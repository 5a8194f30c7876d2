(* In-memory span recorder for the traced run.

   A span has a name, a start, an end, a parent span and the id of the
   request it belongs to.  Spans are kept in memory while the run
   measures and written out once at the end.  Recording is off until
   [reset], so the untimed oracle and the end-to-end run pay one branch
   per span; it is single-threaded: the traced replay runs on one
   thread. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  req : int;  (** request id shared by every span of one request *)
  name : string;
  start_ns : int;
  stop_ns : int;
}

let recorded : span list ref = ref []
let next_id = ref 0
let current = ref (-1)
let current_req = ref (-1)

let now_ns () = Int64.to_int (Parallel.Clock.now_ns ())

let enabled = ref false

let reset () =
  enabled := true;
  recorded := [];
  next_id := 0;
  current := -1;
  current_req := -1

(* [span name f] runs [f] inside a child span of the current one. *)
let span name f =
  if not !enabled then f ()
  else
  let id = !next_id in
  incr next_id;
  let parent = !current in
  current := id;
  let start_ns = now_ns () in
  let finish () =
    let stop_ns = now_ns () in
    current := parent;
    recorded :=
      { id; parent; req = !current_req; name; start_ns; stop_ns } :: !recorded
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* [request req f] runs [f] as the root span "request" of request [req]. *)
let request req f =
  let saved = !current_req in
  current_req := req;
  let saved_parent = !current in
  current := -1;
  Fun.protect
    ~finally:(fun () ->
      current_req := saved;
      current := saved_parent)
    (fun () -> span "request" f)

let all () = List.rev !recorded

let duration_us s = float_of_int (s.stop_ns - s.start_ns) /. 1e3

(* Self time: the span's duration minus the part of it that its direct
   children cover (the union of their intervals). *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s)
    spans;
  List.map
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.sort (fun a b -> compare a.start_ns b.start_ns)
      in
      let covered, _ =
        List.fold_left
          (fun (acc, upto) k ->
            let lo = max k.start_ns upto in
            if k.stop_ns > lo then (acc + (k.stop_ns - lo), k.stop_ns)
            else (acc, upto))
          (0, min_int) kids
      in
      (s, float_of_int (s.stop_ns - s.start_ns - covered) /. 1e3))
    spans

let write path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id\tparent\treq\tname\tstart_ns\tstop_ns\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" s.id s.parent s.req
            s.name s.start_ns s.stop_ns)
        spans)
