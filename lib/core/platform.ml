module Q = Numeric.Rational

type worker = { name : string; c : Q.t; w : Q.t; d : Q.t }
type t = { workers : worker array }

let worker ?name ~c ~w ~d () =
  if Q.sign c <= 0 then invalid_arg "Platform.worker: c must be positive";
  if Q.sign w <= 0 then invalid_arg "Platform.worker: w must be positive";
  if Q.sign d < 0 then invalid_arg "Platform.worker: d must be non-negative";
  { name = Option.value name ~default:""; c; w; d }

let make workers =
  if workers = [] then Errors.invalid "Platform.make: no workers"
  else begin
    let named =
      List.mapi
        (fun i wk ->
          if wk.name = "" then { wk with name = Printf.sprintf "P%d" (i + 1) }
          else wk)
        workers
    in
    Ok { workers = Array.of_list named }
  end

let make_exn workers = Errors.get_exn (make workers)

let bus ~c ~d ws = make_exn (List.map (fun w -> worker ~c ~w ~d ()) ws)

let with_return_ratio ~z specs =
  make_exn (List.map (fun (c, w) -> worker ~c ~w ~d:(Q.mul z c) ()) specs)

let size p = Array.length p.workers
let get p i = p.workers.(i)

let z_ratio p =
  let ratios = Array.map (fun wk -> Q.div wk.d wk.c) p.workers in
  let z = ratios.(0) in
  if Array.for_all (Q.equal z) ratios then Some z else None

let is_bus p =
  let w0 = p.workers.(0) in
  Array.for_all (fun wk -> Q.equal wk.c w0.c && Q.equal wk.d w0.d) p.workers

let scale_comm k p =
  if Q.sign k <= 0 then invalid_arg "Platform.scale_comm: factor must be positive";
  { workers = Array.map (fun wk -> { wk with c = Q.mul k wk.c; d = Q.mul k wk.d }) p.workers }

let scale_comp k p =
  if Q.sign k <= 0 then invalid_arg "Platform.scale_comp: factor must be positive";
  { workers = Array.map (fun wk -> { wk with w = Q.mul k wk.w }) p.workers }

let restrict p keep = { workers = Array.map (fun i -> p.workers.(i)) keep }

let sorted_indices_by p f =
  let idx = Array.init (size p) Fun.id in
  let key = Array.map f p.workers in
  (* stable sort on (key, original index) *)
  Array.sort
    (fun i j ->
      let c = Q.compare key.(i) key.(j) in
      if c <> 0 then c else Stdlib.compare i j)
    idx;
  idx

let to_spec p =
  String.concat ","
    (Array.to_list
       (Array.map
          (fun wk ->
            String.concat ":" (List.map Q.to_string [ wk.c; wk.w; wk.d ]))
          p.workers))

let of_spec ?file ~line ~col s =
  let ( let* ) = Result.bind in
  let err ~off fmt = Errors.parse_error ?file ~line ~col:(col + off) fmt in
  let rational ~off text = Text_format.rational ?file ~line { text; col = col + off } in
  let parse_worker i (off, part) =
    match Text_format.fields ~off ':' part with
    | [ (oc, c); (ow, w); (od, d) ] when c <> "" && w <> "" && d <> "" -> (
      let* c = rational ~off:oc c in
      let* w = rational ~off:ow w in
      let* d = rational ~off:od d in
      match worker ~name:(Printf.sprintf "P%d" (i + 1)) ~c ~w ~d () with
      | wk -> Ok wk
      | exception Invalid_argument msg -> err ~off "%s" msg)
    | _ when part = "" -> err ~off "empty worker spec (stray ',' separator?)"
    | fields -> (
      match List.find_opt (fun (_, f) -> f = "") fields with
      | Some (o, _) -> err ~off:o "empty field in worker spec (stray ':' separator?)"
      | None -> err ~off "expected c:w:d, got %S" part)
  in
  let rec collect i acc = function
    | [] -> Ok (List.rev acc)
    | part :: rest ->
      let* wk = parse_worker i part in
      collect (i + 1) (wk :: acc) rest
  in
  if String.trim s = "" then err ~off:0 "empty platform spec"
  else
    let* workers = collect 0 [] (Text_format.fields ',' s) in
    match make workers with
    | Error (Errors.Invalid_scenario msg) -> err ~off:0 "%s" msg
    | r -> r

let pp fmt p =
  Format.fprintf fmt "@[<v>";
  Array.iter
    (fun wk ->
      Format.fprintf fmt "%-6s c=%-10s w=%-10s d=%s@," wk.name (Q.to_string wk.c)
        (Q.to_string wk.w) (Q.to_string wk.d))
    p.workers;
  Format.fprintf fmt "@]"
