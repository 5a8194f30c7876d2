type kind = Dls.Port_walk.phase = Send | Compute | Return

type event = {
  worker : int;
  kind : kind;
  start : float;
  finish : float;
  load : float;
}

type t = { events : event list; makespan : float }

let kind_to_string = function
  | Send -> "send"
  | Compute -> "compute"
  | Return -> "return"

let make events =
  let events =
    List.sort
      (fun a b ->
        let c = Float.compare a.start b.start in
        if c <> 0 then c else Float.compare a.finish b.finish)
      events
  in
  let makespan = List.fold_left (fun acc e -> Float.max acc e.finish) 0.0 events in
  { events; makespan }

(* Latest step first into [make]'s stable sort, so tied events keep the
   order the pinned traces were recorded in. *)
let of_steps ~date ~load steps =
  make
    (List.rev_map
       (fun (st : _ Dls.Port_walk.step) ->
         let start = date st.start and finish = date st.finish in
         { worker = st.op.worker; kind = st.phase; start; finish; load = load st.op.data })
       steps)

let of_schedule (sched : Dls.Schedule.t) =
  let open Dls.Schedule in
  let f = Numeric.Rational.to_float in
  make
    (List.concat_map
       (fun e ->
         let load = f e.alpha in
         [
           { worker = e.worker; kind = Send; start = f e.send.start; finish = f e.send.finish; load };
           {
             worker = e.worker;
             kind = Compute;
             start = f e.compute.start;
             finish = f e.compute.finish;
             load;
           };
           {
             worker = e.worker;
             kind = Return;
             start = f e.return_.start;
             finish = f e.return_.finish;
             load;
           };
         ])
       (Array.to_list sched.entries))

let workers t =
  List.sort_uniq Stdlib.compare (List.map (fun e -> e.worker) t.events)

let events_of t i = List.filter (fun e -> e.worker = i) t.events

(* Boundary semantics are exact by default ([eps = 0]): two intervals
   overlap only when each one STRICTLY crosses into the other, so
   touching intervals — one finishing exactly when the next starts, the
   normal case in a packed one-port schedule — are NOT overlapping.
   Float comparisons are exact, so no tolerance is needed for traces
   derived from rational schedules or from the noise-free simulator; a
   positive [eps] additionally forgives overlaps up to [eps] and is only
   meant for measured (noisy) float traces. *)
type clash = { first : event; second : event }

let one_port_violations ?(eps = 0.) t =
  let transfers = List.filter (fun e -> e.kind <> Compute) t.events in
  let overlap a b = a.start < b.finish -. eps && b.start < a.finish -. eps in
  let rec scan acc = function
    | [] -> List.rev acc
    | e :: rest ->
      let acc =
        List.fold_left
          (fun acc e' ->
            if overlap e e' then { first = e; second = e' } :: acc else acc)
          acc rest
      in
      scan acc rest
  in
  scan [] transfers

(* Workers may carry several triples (multi-round chunks, multi-load
   batches); the j-th send feeds the j-th compute, whose results leave
   with the j-th return, all in time order. *)
let precedence_violations ?(eps = 0.) t =
  let errs = ref [] in
  let add fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  List.iter
    (fun i ->
      let evs = events_of t i in
      let all k = List.filter (fun e -> e.kind = k) evs in
      let sends = all Send and computes = all Compute and returns = all Return in
      if sends = [] || List.length computes <> List.length sends then
        add "worker %d has an incomplete event set" i
      else if List.length returns > List.length sends then
        add "worker %d returns more chunks than it received" i
      else begin
        List.iteri
          (fun j (s : event) ->
            let c = List.nth computes j in
            if s.finish > c.start +. eps then
              add "worker %d computes chunk %d before reception ends" i (j + 1))
          sends;
        List.iteri
          (fun j (r : event) ->
            let c = List.nth computes j in
            if c.finish > r.start +. eps then
              add "worker %d returns chunk %d before computation ends" i (j + 1))
          returns
      end)
    (workers t);
  List.rev !errs

let is_valid ?eps t =
  one_port_violations ?eps t = [] && precedence_violations ?eps t = []

(* When the rational data is still around, don't check its float shadow:
   validate the schedule itself, exactly. *)
let validate_schedule sched =
  Check.Validator.errors_of_result sched.Dls.Schedule.platform
    (Check.Validator.validate sched)

let pp fmt t =
  Format.fprintf fmt "@[<v>makespan = %.6g@," t.makespan;
  List.iter
    (fun e ->
      Format.fprintf fmt "  t=%-10.4g %-8s worker %d (%.4g -> %.4g, load %.4g)@,"
        e.start (kind_to_string e.kind) e.worker e.start e.finish e.load)
    t.events;
  Format.fprintf fmt "@]"
