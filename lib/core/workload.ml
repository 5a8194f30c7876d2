module Q = Numeric.Rational
open Q.Infix

type load = { name : string; size : Q.t; release : Q.t; z : Q.t option }
type t = { loads : load array }

let load ?(name = "") ?(release = Q.zero) ?z ~size () =
  if Q.sign size <= 0 then invalid_arg "Workload.load: size must be positive";
  if Q.sign release < 0 then
    invalid_arg "Workload.load: release must be non-negative";
  (match z with
  | Some z when Q.sign z < 0 ->
    invalid_arg "Workload.load: return ratio z must be non-negative"
  | _ -> ());
  { name; size; release; z }

let make = function
  | [] -> Errors.invalid "a workload needs at least one load"
  | loads ->
    let loads =
      List.mapi
        (fun i l ->
          if l.name = "" then { l with name = Printf.sprintf "L%d" (i + 1) }
          else l)
        loads
    in
    Ok { loads = Array.of_list loads }

let make_exn loads = Errors.get_exn (make loads)
let size w = Array.length w.loads
let get w k = w.loads.(k)
let total_size w = Q.sum_array (Array.map (fun l -> l.size) w.loads)

let repeat h w =
  if h < 1 then invalid_arg "Workload.repeat: need at least one copy";
  let k = size w in
  {
    loads =
      Array.init (h * k) (fun i ->
          let l = w.loads.(i mod k) in
          { l with name = Printf.sprintf "%s#%d" l.name ((i / k) + 1) });
  }

let return_cost w k (worker : Platform.worker) =
  match w.loads.(k).z with
  | Some z -> z */ worker.Platform.c
  | None -> worker.Platform.d

let induced_platform w k p =
  Platform.make_exn
    (List.init (Platform.size p) (fun i ->
         let wk = Platform.get p i in
         Platform.worker ~name:wk.Platform.name ~c:wk.Platform.c
           ~w:wk.Platform.w ~d:(return_cost w k wk) ()))

(* ------------------------------------------------------------------ *)
(* Text form                                                           *)

let to_spec w =
  String.concat ","
    (List.map
       (fun l ->
         let base =
           Printf.sprintf "%s:%s" (Q.to_string l.size) (Q.to_string l.release)
         in
         match l.z with
         | Some z -> base ^ ":" ^ Q.to_string z
         | None -> base)
       (Array.to_list w.loads))

let key w = to_spec w

let of_spec ?file ~line ~col s =
  let ( let* ) = Result.bind in
  let rational ~off text = Text_format.rational ?file ~line { text; col = col + off } in
  let build ~off i ~size ~release ~z =
    match load ~name:(Printf.sprintf "L%d" (i + 1)) ~release ?z ~size () with
    | l -> Ok l
    | exception Invalid_argument msg ->
      Errors.parse_error ?file ~line ~col:(col + off) "%s" msg
  in
  let parse_load i (off, part) =
    match Text_format.fields ~off ':' part with
    | [ (os, sz); (orl, rl) ] when sz <> "" && rl <> "" ->
      let* size = rational ~off:os sz in
      let* release = rational ~off:orl rl in
      build ~off i ~size ~release ~z:None
    | [ (os, sz); (orl, rl); (oz, zs) ] when sz <> "" && rl <> "" && zs <> ""
      ->
      let* size = rational ~off:os sz in
      let* release = rational ~off:orl rl in
      let* z = rational ~off:oz zs in
      build ~off i ~size ~release ~z:(Some z)
    | fields ->
      if part = "" then
        Errors.parse_error ?file ~line ~col:(col + off)
          "empty load spec (stray ',' separator?)"
      else (
        match List.find_opt (fun (_, f) -> f = "") fields with
        | Some (o, _) ->
          Errors.parse_error ?file ~line ~col:(col + o)
            "empty field in load spec (stray ':' separator?)"
        | None ->
          Errors.parse_error ?file ~line ~col:(col + off)
            "expected size:release or size:release:z, got %S" part)
  in
  let rec collect i acc = function
    | [] -> Ok (List.rev acc)
    | part :: rest ->
      let* l = parse_load i part in
      collect (i + 1) (l :: acc) rest
  in
  if String.trim s = "" then
    Errors.parse_error ?file ~line ~col "empty workload spec"
  else
    let* loads = collect 0 [] (Text_format.fields ',' s) in
    match make loads with
    | Ok w -> Ok w
    | Error (Errors.Invalid_scenario msg) ->
      Errors.parse_error ?file ~line ~col "%s" msg
    | Error e -> Error e

let pp fmt w =
  Format.fprintf fmt "@[<v>";
  Array.iter
    (fun l ->
      Format.fprintf fmt "%-6s size=%s release=%s%s@,%!" l.name
        (Q.to_string l.size) (Q.to_string l.release)
        (match l.z with Some z -> " z=" ^ Q.to_string z | None -> ""))
    w.loads;
  Format.fprintf fmt "@]"
