module Q = Numeric.Rational
open Q.Infix

type change =
  | Scale_comm of { worker : int; factor : Q.t }
  | Scale_comp of { worker : int; factor : Q.t }
  | Set_z of Q.t
  | Add_worker of Platform.worker
  | Remove_worker of int

type t = change list

let preserves_shape d =
  List.for_all
    (function Add_worker _ | Remove_worker _ -> false | _ -> true)
    d

(* ------------------------------------------------------------------ *)
(* Application                                                         *)

let rebuild workers = Platform.make (Array.to_list workers)

let remake (wk : Platform.worker) ~c ~w ~d =
  Platform.worker ~name:wk.Platform.name ~c ~w ~d ()

let apply_change workers = function
  | Scale_comm { worker; factor } ->
    if Q.sign factor <= 0 then
      Errors.invalid "delta: comm factor must be positive"
    else if worker < 0 || worker >= Array.length workers then
      Errors.invalid "delta: worker %d out of range" (worker + 1)
    else begin
      let wk = workers.(worker) in
      workers.(worker) <-
        remake wk
          ~c:(factor */ wk.Platform.c)
          ~w:wk.Platform.w
          ~d:(factor */ wk.Platform.d);
      Ok workers
    end
  | Scale_comp { worker; factor } ->
    if Q.sign factor <= 0 then
      Errors.invalid "delta: comp factor must be positive"
    else if worker < 0 || worker >= Array.length workers then
      Errors.invalid "delta: worker %d out of range" (worker + 1)
    else begin
      let wk = workers.(worker) in
      workers.(worker) <-
        remake wk ~c:wk.Platform.c
          ~w:(factor */ wk.Platform.w)
          ~d:wk.Platform.d;
      Ok workers
    end
  | Set_z z ->
    if Q.sign z < 0 then
      Errors.invalid "delta: return ratio z must be non-negative"
    else begin
      Array.iteri
        (fun i wk ->
          workers.(i) <-
            remake wk ~c:wk.Platform.c ~w:wk.Platform.w
              ~d:(z */ wk.Platform.c))
        workers;
      Ok workers
    end
  | Add_worker wk -> Ok (Array.append workers [| wk |])
  | Remove_worker i ->
    if i < 0 || i >= Array.length workers then
      Errors.invalid "delta: worker %d out of range" (i + 1)
    else if Array.length workers = 1 then
      Errors.invalid "delta: cannot remove the last worker"
    else
      Ok
        (Array.init
           (Array.length workers - 1)
           (fun j -> if j < i then workers.(j) else workers.(j + 1)))

let apply platform delta =
  let ( let* ) = Result.bind in
  let rec go workers = function
    | [] -> rebuild workers
    | ch :: rest ->
      let* workers = apply_change workers ch in
      go workers rest
  in
  go (Array.copy platform.Platform.workers) delta

let apply_exn platform delta = Errors.get_exn (apply platform delta)

let apply_scenario (s : Scenario.t) delta =
  let ( let* ) = Result.bind in
  let* platform = apply s.Scenario.platform delta in
  if Platform.size platform = Platform.size s.Scenario.platform then
    Scenario.make platform ~sigma1:(Array.copy s.Scenario.sigma1)
      ~sigma2:(Array.copy s.Scenario.sigma2)
  else Ok (Scenario.all_workers_fifo platform)

let apply_scenario_exn s delta = Errors.get_exn (apply_scenario s delta)

(* ------------------------------------------------------------------ *)
(* Text form.  Comma-separated changes; worker indices are 1-based to
   match the default [P1..Pn] worker names everywhere else in the CLI:

     comm:2:5/4    scale c and d of worker 2 by 5/4
     comp:1:1/2    scale w of worker 1 by 1/2
     z:3/2         set a uniform return ratio d_i = (3/2) c_i
     add:1:2:1/2   append a worker with c=1 w=2 d=1/2
     drop:3        remove worker 3                                     *)

let to_spec d =
  String.concat ","
    (List.map
       (function
         | Scale_comm { worker; factor } ->
           Printf.sprintf "comm:%d:%s" (worker + 1) (Q.to_string factor)
         | Scale_comp { worker; factor } ->
           Printf.sprintf "comp:%d:%s" (worker + 1) (Q.to_string factor)
         | Set_z z -> Printf.sprintf "z:%s" (Q.to_string z)
         | Add_worker wk ->
           Printf.sprintf "add:%s:%s:%s"
             (Q.to_string wk.Platform.c)
             (Q.to_string wk.Platform.w)
             (Q.to_string wk.Platform.d)
         | Remove_worker i -> Printf.sprintf "drop:%d" (i + 1))
       d)

let of_spec ?file ~line ~col s =
  let ( let* ) = Result.bind in
  let err ~off fmt = Errors.parse_error ?file ~line ~col:(col + off) fmt in
  let rational ~off text = Text_format.rational ?file ~line { text; col = col + off } in
  let index ~off txt =
    match int_of_string_opt txt with
    | Some i when i >= 1 -> Ok (i - 1)
    | _ -> err ~off "not a 1-based worker index: %S" txt
  in
  let parse_change (off, part) =
    match Text_format.fields ~off ':' part with
    | (_, "") :: _ -> err ~off "empty delta change (stray ',' separator?)"
    | [ (_, "comm"); (oi, i); (ofc, f) ] ->
      let* worker = index ~off:oi i in
      let* factor = rational ~off:ofc f in
      Ok (Scale_comm { worker; factor })
    | [ (_, "comp"); (oi, i); (ofc, f) ] ->
      let* worker = index ~off:oi i in
      let* factor = rational ~off:ofc f in
      Ok (Scale_comp { worker; factor })
    | [ (_, "z"); (oz, z) ] ->
      let* z = rational ~off:oz z in
      Ok (Set_z z)
    | [ (_, "add"); (oc, c); (ow, w); (od, d) ] ->
      let* c = rational ~off:oc c in
      let* w = rational ~off:ow w in
      let* d = rational ~off:od d in
      (match Platform.worker ~c ~w ~d () with
      | wk -> Ok (Add_worker wk)
      | exception Invalid_argument msg -> err ~off "%s" msg)
    | [ (_, "drop"); (oi, i) ] ->
      let* i = index ~off:oi i in
      Ok (Remove_worker i)
    | fields ->
      let stray =
        List.find_opt (fun (_, f) -> f = "") fields |> Option.map fst
      in
      (match stray with
      | Some o ->
        err ~off:o "empty field in delta change (stray ':' separator?)"
      | None ->
        err ~off
          "expected comm:i:f, comp:i:f, z:q, add:c:w:d or drop:i, got %S"
          part)
  in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | part :: rest ->
      let* ch = parse_change part in
      collect (ch :: acc) rest
  in
  if String.trim s = "" then err ~off:0 "empty delta spec"
  else collect [] (Text_format.fields ',' s)

let change_to_string platform = function
  | Scale_comm { worker; factor } ->
    Printf.sprintf "comm(%s) x %s"
      (Platform.get platform worker).Platform.name
      (Q.to_string factor)
  | Scale_comp { worker; factor } ->
    Printf.sprintf "comp(%s) x %s"
      (Platform.get platform worker).Platform.name
      (Q.to_string factor)
  | Set_z z -> Printf.sprintf "z := %s" (Q.to_string z)
  | Add_worker wk ->
    Printf.sprintf "add worker (c=%s w=%s d=%s)"
      (Q.to_string wk.Platform.c)
      (Q.to_string wk.Platform.w)
      (Q.to_string wk.Platform.d)
  | Remove_worker i ->
    Printf.sprintf "drop %s" (Platform.get platform i).Platform.name

let pp platform fmt d =
  Format.pp_print_list
    ~pp_sep:(fun f () -> Format.fprintf f ",@ ")
    (fun f ch -> Format.pp_print_string f (change_to_string platform ch))
    fmt d
