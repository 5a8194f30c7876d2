(* Tests for the simulation substrate: the one-port executor (single
   round, multi-round, multi-load, under faults), traces, Gantt
   rendering. *)

module Q = Numeric.Rational
module Star = Sim.Star
module Trace = Sim.Trace
module Gantt = Sim.Gantt
module Trace_io = Sim.Trace_io

let qq = Q.of_ints

(* ------------------------------------------------------------------ *)
(* Star executor                                                       *)
(* ------------------------------------------------------------------ *)

let worker c w d =
  Dls.Platform.worker ~c:(qq (fst c) (snd c)) ~w:(qq (fst w) (snd w))
    ~d:(qq (fst d) (snd d)) ()

let platform_2 () =
  Dls.Platform.make_exn [ worker (1, 1) (1, 1) (1, 2); worker (1, 1) (2, 1) (1, 2) ]

let test_star_single_worker_exact () =
  (* One worker, load 1: makespan = c + w + d. *)
  let p = Dls.Platform.make_exn [ worker (2, 1) (3, 1) (1, 1) ] in
  let plan = { Star.sigma1 = [| 0 |]; sigma2 = [| 0 |]; loads = [| 1.0 |] } in
  let trace = Star.execute p plan in
  Alcotest.(check (float 1e-12)) "makespan" 6.0 trace.Trace.makespan;
  Alcotest.(check bool) "valid" true (Trace.is_valid trace)

let test_star_matches_lp_schedule () =
  (* Without noise the simulator must reproduce the LP makespan exactly
     (here: rho = 6/11 processed in unit time, so load 6 takes 11). *)
  let p = platform_2 () in
  let sol = Dls.Solve.solve_exn ~mode:`Exact (Dls.Scenario.fifo_exn p [| 0; 1 |]) in
  (* rho = 6/11: six load units need 11 time units, i.e. loads x11. *)
  let scale = 11.0 in
  let loads = Array.map (fun a -> Q.to_float a *. scale) sol.Dls.Lp_model.alpha in
  let plan = { Star.sigma1 = [| 0; 1 |]; sigma2 = [| 0; 1 |]; loads } in
  let trace = Star.execute p plan in
  Alcotest.(check (float 1e-9)) "makespan = 11 for 6 loads" 11.0 trace.Trace.makespan

let test_star_master_serializes () =
  (* Two instant-compute workers: returns must queue behind each other. *)
  let p =
    Dls.Platform.make_exn [ worker (1, 1) (1, 100) (1, 1); worker (1, 1) (1, 100) (1, 1) ]
  in
  let plan = { Star.sigma1 = [| 0; 1 |]; sigma2 = [| 0; 1 |]; loads = [| 1.0; 1.0 |] } in
  let trace = Star.execute p plan in
  Alcotest.(check bool) "one-port" true (Trace.one_port_violations trace = []);
  (* sends take [0,1] and [1,2]; worker 0 ready at ~1.01 but the master
     is still sending: its return starts at 2. *)
  let r0 = List.find (fun e -> e.Trace.kind = Trace.Return && e.Trace.worker = 0) trace.Trace.events in
  Alcotest.(check (float 1e-9)) "return waits for port" 2.0 r0.Trace.start

let test_star_return_order_respected () =
  (* sigma2 reversed: worker 1 returns first even if worker 0 is ready. *)
  let p = platform_2 () in
  let plan = { Star.sigma1 = [| 0; 1 |]; sigma2 = [| 1; 0 |]; loads = [| 1.0; 1.0 |] } in
  let trace = Star.execute p plan in
  let ret i =
    List.find (fun e -> e.Trace.kind = Trace.Return && e.Trace.worker = i) trace.Trace.events
  in
  Alcotest.(check bool) "worker1 before worker0" true
    ((ret 1).Trace.finish <= (ret 0).Trace.start +. 1e-12)

let test_star_skips_zero_loads () =
  let p = platform_2 () in
  let plan = { Star.sigma1 = [| 0; 1 |]; sigma2 = [| 0; 1 |]; loads = [| 1.0; 0.0 |] } in
  let trace = Star.execute p plan in
  Alcotest.(check (list int)) "only worker 0" [ 0 ] (Trace.workers trace)

let test_star_noise_slows_down () =
  let p = platform_2 () in
  let plan = { Star.sigma1 = [| 0; 1 |]; sigma2 = [| 0; 1 |]; loads = [| 1.0; 1.0 |] } in
  let noise =
    {
      Star.comm = (fun ~worker:_ x -> x *. 1.5);
      comp = (fun ~worker:_ x -> x *. 2.0);
    }
  in
  let base = Star.execute p plan in
  let slowed = Star.execute ~noise p plan in
  Alcotest.(check bool) "slower" true
    (slowed.Trace.makespan > base.Trace.makespan);
  Alcotest.(check bool) "still valid" true (Trace.is_valid slowed)

let prop_sim_matches_lp =
  (* The central integration property: executing the LP loads with no
     noise yields exactly the LP makespan (load / rho), for any scenario. *)
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:80 ~name:"noise-free simulation = LP prediction"
       (let open QCheck2.Gen in
        let* n = int_range 1 5 in
        let* specs =
          list_size (return n)
            (pair (pair (int_range 1 10) (int_range 1 10)) (int_range 1 10))
        in
        let* flip = bool in
        return (specs, flip))
       (fun (specs, flip) ->
         let platform =
           Dls.Platform.make_exn
             (List.map
                (fun ((cn, cd), wn) ->
                  worker (cn, cd) (wn, 1) (cn, 2 * cd) (* z = 1/2 *))
                specs)
         in
         let sol =
           if flip then Dls.Lifo.optimal platform else Dls.Fifo.optimal platform
         in
         let plan = Star.plan_of_solved sol in
         let trace = Star.execute platform plan in
         let predicted = Q.to_float sol.Dls.Lp_model.rho in
         (* makespan for load rho is exactly 1 *)
         Trace.is_valid trace
         && Float.abs (trace.Trace.makespan -. 1.0) < 1e-9
         && Float.abs (Array.fold_left ( +. ) 0.0 plan.Star.loads -. predicted) < 1e-9))

let prop_sim_never_beats_lp =
  (* With a fixed scenario, the simulator (a particular feasible
     execution) can never finish faster than the LP optimum. *)
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"simulation never beats the LP bound"
       (let open QCheck2.Gen in
        let* n = int_range 1 4 in
        let* specs =
          list_size (return n)
            (pair (pair (int_range 1 10) (int_range 1 10)) (int_range 1 10))
        in
        let* total = int_range 1 500 in
        return (specs, total))
       (fun (specs, total) ->
         let platform =
           Dls.Platform.make_exn
             (List.map (fun ((cn, cd), wn) -> worker (cn, cd) (wn, 1) (cn, 2 * cd)) specs)
         in
         let sol = Dls.Fifo.optimal platform in
         let plan = Star.plan_of_rounded sol ~total in
         let trace = Star.execute platform plan in
         let bound =
           Q.to_float (Dls.Lp_model.time_for_load sol ~load:(Q.of_int total))
         in
         trace.Trace.makespan >= bound -. 1e-6))

let test_star_eager_returns_earlier () =
  (* Near-instant compute, three workers: worker 0's results are ready
     while the master is still sending to worker 1, so under
     Eager_returns they come back before worker 2's data goes out;
     under Sends_first they wait for all three sends. *)
  let p =
    Dls.Platform.make_exn
      [
        worker (1, 1) (1, 100) (1, 1);
        worker (1, 1) (1, 100) (1, 1);
        worker (1, 1) (1, 100) (1, 1);
      ]
  in
  let plan =
    { Star.sigma1 = [| 0; 1; 2 |]; sigma2 = [| 0; 1; 2 |]; loads = [| 1.0; 1.0; 1.0 |] }
  in
  let eager = Star.execute ~protocol:Star.Eager_returns p plan in
  let ret0 t =
    (List.find (fun e -> e.Trace.kind = Trace.Return && e.Trace.worker = 0) t.Trace.events)
      .Trace.start
  in
  let lazy_ = Star.execute p plan in
  Alcotest.(check (float 1e-9)) "eager: right after send 2" 2.0 (ret0 eager);
  Alcotest.(check (float 1e-9)) "lazy: after all sends" 3.0 (ret0 lazy_);
  Alcotest.(check bool) "eager still valid" true (Trace.is_valid eager)

let test_star_eager_respects_sigma2 () =
  (* Even under Eager_returns, worker 1 cannot return before worker 0
     (sigma2 order), although it finishes computing first. *)
  let p =
    Dls.Platform.make_exn [ worker (1, 1) (10, 1) (1, 1); worker (1, 1) (1, 100) (1, 1) ]
  in
  let plan = { Star.sigma1 = [| 0; 1 |]; sigma2 = [| 0; 1 |]; loads = [| 1.0; 1.0 |] } in
  let trace = Star.execute ~protocol:Star.Eager_returns p plan in
  let ret i =
    (List.find (fun e -> e.Trace.kind = Trace.Return && e.Trace.worker = i) trace.Trace.events)
      .Trace.start
  in
  Alcotest.(check bool) "sigma2 preserved" true (ret 0 < ret 1);
  Alcotest.(check bool) "valid" true (Trace.is_valid trace)

let prop_eager_protocol_valid =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"eager protocol traces stay valid"
       (let open QCheck2.Gen in
        let* n = int_range 1 5 in
        list_size (return n)
          (pair (pair (int_range 1 10) (int_range 1 10)) (int_range 1 10)))
       (fun specs ->
         let platform =
           Dls.Platform.make_exn
             (List.map (fun ((cn, cd), wn) -> worker (cn, cd) (wn, 1) (cn, 2 * cd)) specs)
         in
         let sol = Dls.Fifo.optimal platform in
         let plan = Star.plan_of_solved sol in
         let trace = Star.execute ~protocol:Star.Eager_returns platform plan in
         Trace.is_valid trace
         (* eager interleaving is a feasible one-port execution, so it
            can never beat the optimum over ALL one-port schedules for
            the same loads... but it may beat the sends-first structure;
            just require a sane, positive makespan *)
         && trace.Trace.makespan > 0.0))

(* ------------------------------------------------------------------ *)
(* Chunked (multi-round) executor                                      *)
(* ------------------------------------------------------------------ *)

(* A chunked plan: [sends] in port order, then [returns], each a
   (worker, load) pair priced with the linear model. *)
let chunked p ~sends ~returns =
  let op op_kind (i, a) =
    let wk = Dls.Platform.get p i in
    let send = op_kind = Star.Op_send in
    let cost = Q.to_float (if send then wk.Dls.Platform.c else wk.Dls.Platform.d) in
    {
      Star.op_load = 0;
      op_worker = i;
      op_kind;
      op_amount = a;
      op_release = 0.0;
      op_comm = a *. cost;
      op_comp = (if send then a *. Q.to_float wk.Dls.Platform.w else 0.0);
    }
  in
  { Star.ops = List.map (op Star.Op_send) sends @ List.map (op Star.Op_return) returns }

let test_chunked_two_chunks_one_worker () =
  (* Worker (c=1, w=2, d=1/2); chunks of 1 and 2 units.
     sends: [0,1], [1,3]; compute: [1,3], [3,7];
     returns after sends: chunk1 at max(3, 3)=3..3.5, chunk2 at 7..8. *)
  let p = Dls.Platform.make_exn [ worker (1, 1) (2, 1) (1, 2) ] in
  let plan = chunked p ~sends:[ (0, 1.0); (0, 2.0) ] ~returns:[ (0, 1.0); (0, 2.0) ] in
  let trace = Star.execute_multi p plan in
  Alcotest.(check (float 1e-9)) "makespan" 8.0 trace.Trace.makespan;
  let returns =
    List.filter (fun e -> e.Trace.kind = Trace.Return) trace.Trace.events
  in
  Alcotest.(check int) "two returns" 2 (List.length returns);
  Alcotest.(check (float 1e-9)) "first return start" 3.0
    (List.hd returns).Trace.start

let test_chunked_interleaves_compute () =
  (* Two workers, one chunk each: second worker's compute overlaps the
     first worker's, classic pipelining. *)
  let p =
    Dls.Platform.make_exn [ worker (1, 1) (3, 1) (1, 2); worker (1, 1) (3, 1) (1, 2) ]
  in
  let plan = chunked p ~sends:[ (0, 1.0); (1, 1.0) ] ~returns:[ (0, 1.0); (1, 1.0) ] in
  let trace = Star.execute_multi p plan in
  (* sends [0,1],[1,2]; computes [1,4],[2,5]; returns [4,4.5],[5,5.5] *)
  Alcotest.(check (float 1e-9)) "makespan" 5.5 trace.Trace.makespan;
  Alcotest.(check bool) "one-port ok" true (Trace.one_port_violations trace = [])

let expect_invalid label f =
  match f () with
  | exception Dls.Errors.Error (Dls.Errors.Invalid_scenario _) -> ()
  | exception e -> Alcotest.failf "%s: raised %s" label (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: accepted" label

let test_chunked_return_without_send () =
  let p = Dls.Platform.make_exn [ worker (1, 1) (1, 1) (1, 2) ] in
  expect_invalid "return without chunk" (fun () ->
      Star.execute_multi p (chunked p ~sends:[] ~returns:[ (0, 1.0) ]));
  expect_invalid "second return of one chunk" (fun () ->
      Star.execute_multi p (chunked p ~sends:[ (0, 1.0) ] ~returns:[ (0, 1.0); (0, 1.0) ]));
  let op = List.hd (chunked p ~sends:[ (0, 1.0) ] ~returns:[]).Star.ops in
  expect_invalid "worker out of range" (fun () ->
      Star.execute_multi p { Star.ops = [ { op with Star.op_worker = 3 } ] });
  expect_invalid "NaN amount" (fun () ->
      Star.execute_multi p { Star.ops = [ { op with Star.op_comm = Float.nan } ] })

let test_chunked_noise_applies () =
  let p = Dls.Platform.make_exn [ worker (1, 1) (1, 1) (1, 2) ] in
  let plan = chunked p ~sends:[ (0, 1.0) ] ~returns:[ (0, 1.0) ] in
  let noise =
    { Star.comm = (fun ~worker:_ x -> 2.0 *. x); comp = (fun ~worker:_ x -> x) }
  in
  let base = Star.execute_multi p plan in
  let slow = Star.execute_multi ~noise p plan in
  Alcotest.(check (float 1e-9)) "base" 2.5 base.Trace.makespan;
  Alcotest.(check (float 1e-9)) "slowed comm" 4.0 slow.Trace.makespan

let test_plan_of_multiround_rejects_latency () =
  let p = Dls.Platform.make_exn [ worker (1, 1) (1, 1) (1, 2) ] in
  match
    Dls.Multiround.solve p
      (Dls.Multiround.config ~send_latency:(qq 1 100) ~rounds:2 [| 0 |])
  with
  | Dls.Multiround.Too_slow -> Alcotest.fail "should be feasible"
  | Dls.Multiround.Solved s ->
    expect_invalid "latencies accepted by the linear-model simulator" (fun () ->
        Star.plan_of_multiround s)

(* ------------------------------------------------------------------ *)
(* Trace validation                                                    *)
(* ------------------------------------------------------------------ *)

let test_trace_detects_overlap () =
  let e k w s f = { Trace.worker = w; kind = k; start = s; finish = f; load = 1.0 } in
  let bad =
    Trace.make
      [
        e Trace.Send 0 0.0 2.0;
        e Trace.Compute 0 2.0 3.0;
        e Trace.Return 0 3.0 4.0;
        e Trace.Send 1 1.0 2.5 (* overlaps worker 0's send *);
        e Trace.Compute 1 2.5 3.0;
        e Trace.Return 1 4.0 5.0;
      ]
  in
  Alcotest.(check int) "one overlap" 1 (List.length (Trace.one_port_violations bad))

let test_trace_detects_precedence () =
  let e k w s f = { Trace.worker = w; kind = k; start = s; finish = f; load = 1.0 } in
  let bad =
    Trace.make
      [ e Trace.Send 0 0.0 2.0; e Trace.Compute 0 1.0 3.0; e Trace.Return 0 3.0 4.0 ]
  in
  Alcotest.(check int) "one violation" 1
    (List.length (Trace.precedence_violations bad))

let test_trace_of_schedule () =
  let p = platform_2 () in
  let sol = Dls.Solve.solve_exn ~mode:`Exact (Dls.Scenario.fifo_exn p [| 0; 1 |]) in
  let trace = Trace.of_schedule (Dls.Schedule.of_solved sol) in
  Alcotest.(check bool) "valid" true (Trace.is_valid trace);
  Alcotest.(check (float 1e-9)) "horizon 1" 1.0 trace.Trace.makespan

let test_trace_boundary_semantics () =
  (* Touching intervals are NOT overlapping: a transfer ending exactly
     when the next one starts is legal under the one-port model, and
     with the exact default (eps = 0) it must NOT be reported. *)
  let e k w s f = { Trace.worker = w; kind = k; start = s; finish = f; load = 1.0 } in
  let touching =
    Trace.make
      [
        e Trace.Send 0 0.0 2.0;
        e Trace.Compute 0 2.0 3.0;
        e Trace.Return 0 3.0 4.0;
        e Trace.Send 1 2.0 3.0 (* starts the instant worker 0's send ends *);
        e Trace.Compute 1 3.0 4.0;
        e Trace.Return 1 4.0 5.0 (* starts the instant worker 0's return ends *);
      ]
  in
  Alcotest.(check int) "touching is legal at eps=0" 0
    (List.length (Trace.one_port_violations touching));
  (* A strict crossing, however small, IS a violation at the default. *)
  let crossing =
    Trace.make
      [
        e Trace.Send 0 0.0 2.0;
        e Trace.Compute 0 2.0 3.0;
        e Trace.Return 0 3.0 4.0;
        e Trace.Send 1 (2.0 -. 1e-12) 3.0;
        e Trace.Compute 1 3.0 4.0;
        e Trace.Return 1 4.0 5.0;
      ]
  in
  Alcotest.(check int) "strict crossing caught at eps=0" 1
    (List.length (Trace.one_port_violations crossing));
  (* An explicit positive eps forgives crossings up to that tolerance —
     for noisy float traces only; exact data should use eps = 0. *)
  Alcotest.(check int) "eps forgives small crossing" 0
    (List.length (Trace.one_port_violations ~eps:1e-9 crossing));
  (* Back-to-back send/compute/return on one worker is exact precedence,
     not a violation. *)
  Alcotest.(check int) "touching precedence legal" 0
    (List.length (Trace.precedence_violations touching))

let test_trace_validate_schedule () =
  (* Exact rational schedules route through Check.Validator: the
     solver's own output passes, and a tampered copy is rejected with
     a human-readable message. *)
  let p = platform_2 () in
  let sol = Dls.Solve.solve_exn ~mode:`Exact (Dls.Scenario.fifo_exn p [| 0; 1 |]) in
  let sched = Dls.Schedule.of_solved sol in
  (match Trace.validate_schedule sched with
  | Ok () -> ()
  | Error msgs ->
    Alcotest.failf "solver schedule rejected: %s" (String.concat "; " msgs));
  let entries = Array.copy sched.Dls.Schedule.entries in
  let e = entries.(1) in
  entries.(1) <-
    { e with
      Dls.Schedule.return_ = { e.Dls.Schedule.return_ with Dls.Schedule.start = qq 9 11 }
    };
  let bad = { sched with Dls.Schedule.entries } in
  match Trace.validate_schedule bad with
  | Ok () -> Alcotest.fail "tampered schedule accepted"
  | Error msgs -> Alcotest.(check bool) "has messages" true (msgs <> [])

(* ------------------------------------------------------------------ *)
(* Trace serialization                                                 *)
(* ------------------------------------------------------------------ *)

let test_trace_io_roundtrip () =
  let p = platform_2 () in
  let sol = Dls.Solve.solve_exn ~mode:`Exact (Dls.Scenario.fifo_exn p [| 0; 1 |]) in
  let trace = Star.execute p (Star.plan_of_solved sol) in
  match Trace_io.of_string (Trace_io.to_string trace) with
  | Error e -> Alcotest.fail e
  | Ok trace' ->
    Alcotest.(check int) "same event count"
      (List.length trace.Trace.events)
      (List.length trace'.Trace.events);
    Alcotest.(check (float 0.0)) "same makespan (lossless)" trace.Trace.makespan
      trace'.Trace.makespan;
    Alcotest.(check bool) "still valid" true (Trace.is_valid trace');
    List.iter2
      (fun a b ->
        if a <> b then
          Alcotest.failf "event mismatch: worker %d %s" a.Trace.worker
            (Trace.kind_to_string a.Trace.kind))
      trace.Trace.events trace'.Trace.events

let test_trace_io_errors () =
  List.iter
    (fun text ->
      match Trace_io.of_string text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error _ -> ())
    [
      "1,send,0.0\n";
      "x,send,0.0,1.0,1.0\n";
      "1,teleport,0.0,1.0,1.0\n";
      "1,send,2.0,1.0,1.0\n" (* finish before start *);
      "-1,send,0.0,1.0,1.0\n";
    ]

let test_trace_io_empty () =
  match Trace_io.of_string "worker,kind,start,finish,load\n" with
  | Ok t -> Alcotest.(check int) "no events" 0 (List.length t.Trace.events)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Gantt                                                               *)
(* ------------------------------------------------------------------ *)

let test_gantt_renders () =
  let p = platform_2 () in
  let sol = Dls.Solve.solve_exn ~mode:`Exact (Dls.Scenario.fifo_exn p [| 0; 1 |]) in
  let art = Gantt.render_schedule (Dls.Schedule.of_solved sol) in
  Alcotest.(check bool) "has master lane" true
    (String.length art > 0
    && String.split_on_char '\n' art |> List.exists (fun l ->
           String.length l >= 6 && String.sub l 0 6 = "master"));
  String.iter
    (fun ch ->
      if not (List.mem ch [ '>'; '#'; '<'; '.'; ' '; '|'; '\n' ])
         && not (Char.code ch >= 32 && Char.code ch < 127) then
        Alcotest.fail "non-printable character in gantt")
    art

let test_gantt_empty () =
  let art = Gantt.render (Trace.make []) in
  Alcotest.(check string) "placeholder" "(empty trace)\n" art

let count_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan acc i =
    if i + nn > nh then acc
    else if String.sub hay i nn = needle then scan (acc + 1) (i + 1)
    else scan acc (i + 1)
  in
  scan 0 0

let test_gantt_svg_structure () =
  let p = platform_2 () in
  let sol = Dls.Solve.solve_exn ~mode:`Exact (Dls.Scenario.fifo_exn p [| 0; 1 |]) in
  let sched = Dls.Schedule.of_solved sol in
  let svg = Gantt.render_schedule_svg sched in
  Alcotest.(check bool) "opens svg" true
    (String.length svg > 5 && String.sub svg 0 4 = "<svg");
  Alcotest.(check int) "closes svg" 1 (count_substring svg "</svg>");
  (* 2 workers x 3 phases, each drawn once in the worker lane; the 4
     transfers drawn again in the master lane; plus the background. *)
  Alcotest.(check int) "rect count" 11 (count_substring svg "<rect");
  Alcotest.(check int) "send fill" 4 (count_substring svg "#ffffff");
  Alcotest.(check int) "compute fill" 2 (count_substring svg "#555555")

let test_gantt_svg_empty () =
  let svg = Gantt.render_svg (Trace.make []) in
  Alcotest.(check bool) "mentions empty" true
    (count_substring svg "empty trace" = 1 && count_substring svg "</svg>" = 1)

(* ------------------------------------------------------------------ *)
(* Malformed plans and fault-injected execution                        *)
(* ------------------------------------------------------------------ *)

let test_star_rejects_malformed_plans () =
  let p = platform_2 () in
  let expect_error label plan =
    match Star.execute_result p plan with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: malformed plan executed" label
  in
  expect_error "load arity"
    { Star.sigma1 = [| 0; 1 |]; sigma2 = [| 0; 1 |]; loads = [| 1.0 |] };
  expect_error "NaN load"
    { Star.sigma1 = [| 0; 1 |]; sigma2 = [| 0; 1 |]; loads = [| 1.0; Float.nan |] };
  expect_error "negative load"
    { Star.sigma1 = [| 0; 1 |]; sigma2 = [| 0; 1 |]; loads = [| 1.0; -2.0 |] };
  expect_error "index out of range"
    { Star.sigma1 = [| 0; 7 |]; sigma2 = [| 0; 1 |]; loads = [| 1.0; 1.0 |] };
  expect_error "duplicate enrollment"
    { Star.sigma1 = [| 0; 0 |]; sigma2 = [| 0; 1 |]; loads = [| 1.0; 1.0 |] };
  (* The historic wedge: loaded worker enrolled for returns but never
     sent data — its results would silently never come back. *)
  expect_error "loaded worker missing from sigma1"
    { Star.sigma1 = [| 0 |]; sigma2 = [| 0; 1 |]; loads = [| 1.0; 1.0 |] };
  (match
     Star.execute_result p
       { Star.sigma1 = [| 0 |]; sigma2 = [| 0 |]; loads = [| 1.0; 0.0 |] }
   with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "zero-load worker outside the orders must be fine: %s"
      (Dls.Errors.to_string e));
  match
    Star.execute p
      { Star.sigma1 = [| 0; 7 |]; sigma2 = [| 0; 1 |]; loads = [| 1.0; 1.0 |] }
  with
  | exception Dls.Errors.Error _ -> ()
  | _ -> Alcotest.fail "execute should raise the typed error"

(* [Sim.Faults.execute] runs exact loads: [seq_of_plan] lifts a float
   plan's loads exactly, [seq_of_solved] takes the LP's own. *)
let seq_of_plan ?loads (plan : Star.plan) =
  {
    Dls.Replan.sigma1 = plan.Star.sigma1;
    sigma2 = plan.Star.sigma2;
    loads = Option.value loads ~default:(Array.map Q.of_float plan.Star.loads);
    start = Q.zero;
    source = Dls.Replan.Original;
  }

let seq_of_solved sol = seq_of_plan ~loads:sol.Dls.Lp_model.alpha (Star.plan_of_solved sol)

let test_sim_faults_crash_drops_return () =
  let p = platform_2 () in
  let sol = Dls.Fifo.optimal p in
  let faults =
    Dls.Faults.make_exn [ Dls.Faults.Crash { worker = 0; at = qq 1 10 } ]
  in
  match Sim.Faults.execute p faults (seq_of_solved sol) with
  | Error e -> Alcotest.fail (Dls.Errors.to_string e)
  | Ok trace ->
    let returns_of w =
      List.filter
        (fun e -> e.Trace.worker = w && e.Trace.kind = Trace.Return)
        trace.Trace.events
    in
    Alcotest.(check int) "crashed worker never returns" 0
      (List.length (returns_of 0));
    Alcotest.(check bool) "survivor still returns" true (returns_of 1 <> []);
    let returned =
      List.fold_left (fun acc e -> acc +. e.Trace.load) 0.0 (returns_of 1)
    in
    Alcotest.(check bool) "partial completion" true
      (returned < Array.fold_left (fun acc a -> acc +. Q.to_float a) 0.0 sol.Dls.Lp_model.alpha)

let test_sim_faults_decision_trace_valid () =
  let p = platform_2 () in
  let sol = Dls.Fifo.optimal p in
  let load = sol.Dls.Lp_model.rho in
  let original = Dls.Schedule.for_load sol ~load in
  let faults =
    Dls.Faults.make_exn
      [ Dls.Faults.Slowdown { worker = 1; factor = Q.of_int 3; from_ = qq 1 4 } ]
  in
  let outcome = Dls.Replan.respond_exn faults sol ~load in
  match
    Sim.Faults.execute_decision p faults ~original
      ~decision:outcome.Dls.Replan.decision
  with
  | Error e -> Alcotest.fail (Dls.Errors.to_string e)
  | Ok trace ->
    Alcotest.(check bool) "one-port and precedence hold" true
      (Trace.is_valid ~eps:1e-9 trace)

(* ------------------------------------------------------------------ *)
(* Pinned traces                                                       *)
(* ------------------------------------------------------------------ *)

(* Every executor's output over a seeded matrix, pinned by the MD5 of
   its [Trace_io] CSV: the three [Cluster.Gen] families at p = 2..10,
   FIFO and LIFO, rounded, solved and equal-split plans, both master
   protocols, with and without [Cluster.Noise] (whose PRNG makes the
   order of duration draws observable); chunked multi-round plans; and
   multi-load batch plans in the three return-ratio regimes.  Ties
   between events occur throughout (homogeneous platforms, integer
   loads), so the event order is pinned too.  The fixture was recorded
   from the event-engine executors this straight-line loop replaced and
   is never regenerated to make a change pass; its lines are printed by
   [test_sim.exe --print-pinned FILE]. *)

(* Relative to [test/] under [dune runtest], to the repository root
   under [dune exec test/test_sim.exe]. *)
let pinned_fixture =
  let here = "fixtures/pinned_traces.txt" in
  if Sys.file_exists here then here else Filename.concat "test" here

let digest trace = Digest.to_hex (Digest.string (Trace_io.to_string trace))

(* [pinned key run] is the fixture's two lines for one run: without
   noise, and under [Cluster.Noise] seeded from [key]. *)
let pinned key run =
  let seed = Int64.to_int (String.get_int64_le (Digest.string key) 0) in
  let noise = Cluster.Noise.make (Numeric.Prng.create ~seed) ~n:100 in
  [
    Printf.sprintf "%s noise=0 %s" key (digest (run None));
    Printf.sprintf "%s noise=1 %s" key (digest (run (Some noise)));
  ]

(* Each family and size once at the matrix product's z = 1/2 and once
   rescaled to z = 3/2, where LIFO and the mirror paths differ. *)
let pinned_platforms () =
  List.concat_map
    (fun (fi, sc) ->
      List.concat_map
        (fun p ->
          let rng = Numeric.Prng.create ~seed:((1000 * fi) + p) in
          let f = Cluster.Gen.factors rng sc ~workers:p in
          let base = Cluster.Gen.platform Cluster.Workload.gdsdmi ~n:(40 + (20 * fi)) f in
          let label = Printf.sprintf "%s p=%d" (Cluster.Gen.scenario_name sc) p in
          let costs =
            List.init p (fun k ->
                let wk = Dls.Platform.get base k in
                (wk.Dls.Platform.c, wk.Dls.Platform.w))
          in
          [
            (label ^ " z=1/2", base);
            (label ^ " z=3/2", Dls.Platform.with_return_ratio ~z:(qq 3 2) costs);
          ])
        (List.init 9 (fun k -> k + 2)))
    (List.mapi (fun i sc -> (i, sc)) Cluster.Gen.[ Homogeneous; Hom_comm_het_comp; Heterogeneous ])

let pinned_star_lines () =
  List.concat_map
    (fun (label, p) ->
      let n = Dls.Platform.size p in
      List.concat_map
        (fun (oname, sol) ->
          let solved = Star.plan_of_solved sol in
          List.concat_map
            (fun (pname, plan) ->
              List.concat_map
                (fun (prname, protocol) ->
                  pinned
                    (String.concat " " [ "star"; label; oname; pname; prname ])
                    (fun noise -> Star.execute ?noise ~protocol p plan))
                [ ("sends-first", Star.Sends_first); ("eager", Star.Eager_returns) ])
            [
              ("rounded", Star.plan_of_rounded sol ~total:1000);
              ("solved", solved);
              ("equal", { solved with Star.loads = Array.make n (1000.0 /. float n) });
            ])
        [ ("fifo", Dls.Fifo.optimal p); ("lifo", Dls.Lifo.optimal p) ])
    (pinned_platforms ())

let pinned_multiround_lines () =
  List.concat_map
    (fun (label, p) ->
      List.concat_map
        (fun (rounds, with_returns) ->
          let key = Printf.sprintf "multiround %s R=%d returns=%b" label rounds with_returns in
          match
            Dls.Multiround.solve p
              (Dls.Multiround.config ~with_returns ~rounds (Dls.Fifo.order p))
          with
          | Dls.Multiround.Too_slow -> [ key ^ " too slow" ]
          | Dls.Multiround.Solved s ->
            pinned key (fun noise -> Star.execute_multi ?noise p (Star.plan_of_multiround s)))
        [ (1, true); (1, false); (2, true); (2, false); (3, true); (3, false) ])
    (List.filter (fun (_, p) -> Dls.Platform.size p <= 5) (pinned_platforms ()))

let pinned_multiload_lines () =
  List.concat_map
    (fun (r, regime) ->
      List.concat_map
        (fun i ->
          let rng = Random.State.make [| 4242; r; i |] in
          let p = Check.Fuzz.gen_platform rng regime in
          let w = Check.Fuzz.gen_workload rng regime in
          let key = Printf.sprintf "multiload %s #%d" (Check.Fuzz.regime_to_string regime) i in
          match Dls.Steady_state.solve_batch_best p w with
          | Error _ -> [ key ^ " unsolved" ]
          | Ok b -> pinned key (fun noise -> Star.execute_multi ?noise p (Star.plan_of_batch b)))
        (List.init 8 Fun.id))
    (List.mapi (fun r regime -> (r, regime)) Check.Fuzz.all_regimes)

let pinned_lines () =
  pinned_star_lines () @ pinned_multiround_lines () @ pinned_multiload_lines ()

let test_pinned_traces () =
  let want =
    In_channel.with_open_text pinned_fixture In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  let got = pinned_lines () in
  Alcotest.(check int) "line count" (List.length want) (List.length got);
  List.iter2 (fun w g -> Alcotest.(check string) "pinned trace" w g) want got

(* ------------------------------------------------------------------ *)
(* The faulted executor against the exact replay                       *)
(* ------------------------------------------------------------------ *)

(* Without faults, the exact integrator and the linear model date the
   same operations: every trace of the pinned single-round matrix
   (sends-first, noise-free) matches {!Star.execute} event for event,
   to rounding. *)
let test_sim_faults_no_fault_matches_star () =
  let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a) in
  let key e = (e.Trace.worker, e.Trace.kind) in
  let sorted t = List.sort (fun a b -> compare (key a) (key b)) t.Trace.events in
  List.iter
    (fun (label, p) ->
      List.iter
        (fun sol ->
          List.iter
            (fun plan ->
              let reference = Star.execute p plan in
              match Sim.Faults.execute p Dls.Faults.empty (seq_of_plan plan) with
              | Error e -> Alcotest.failf "%s: %s" label (Dls.Errors.to_string e)
              | Ok trace ->
                Alcotest.(check int)
                  (label ^ ": event count")
                  (List.length reference.Trace.events)
                  (List.length trace.Trace.events);
                List.iter2
                  (fun r e ->
                    let same =
                      key r = key e
                      && close r.Trace.start e.Trace.start
                      && close r.Trace.finish e.Trace.finish
                    in
                    if not same then
                      Alcotest.failf "%s: worker %d %s over [%.17g, %.17g], star: [%.17g, %.17g]"
                        label e.Trace.worker (Trace.kind_to_string e.Trace.kind)
                        e.Trace.start e.Trace.finish r.Trace.start r.Trace.finish)
                  (sorted reference) (sorted trace))
            [ Star.plan_of_rounded sol ~total:1000; Star.plan_of_solved sol ])
        [ Dls.Fifo.optimal p; Dls.Lifo.optimal p ])
    (pinned_platforms ())

(* [Dls.Replan.replay_seq] and the faulted executor are the same exact
   walk (perfect detection: the master skips a transfer that can never
   complete, without holding the port), so the trace must lose the same
   workers and land every return on the replay's date rounded once. *)
let agrees_with_replay label trace (reference : Dls.Replan.completion list) =
  let returns =
    List.filter_map
      (fun e ->
        if e.Trace.kind = Trace.Return then Some (e.Trace.worker, e.Trace.finish) else None)
      trace.Trace.events
    |> List.sort compare
  in
  let expected =
    List.filter_map
      (fun c -> Option.map (fun f -> (c.Dls.Replan.worker, Q.to_float f)) c.Dls.Replan.finish)
      reference
    |> List.sort compare
  in
  let lost =
    List.filter_map
      (fun c ->
        if c.Dls.Replan.finish = None then Some (string_of_int c.Dls.Replan.worker) else None)
      reference
  in
  Alcotest.(check (list int))
    (Printf.sprintf "%s: returning workers (lost: %s)" label (String.concat "," lost))
    (List.map fst expected) (List.map fst returns);
  List.iter2
    (fun (w, want) (_, got) ->
      if got <> want then
        Alcotest.failf "%s: worker %d returns at %.17g, exact replay says %.17g" label w got want)
    expected returns

let test_replay_crash_after_compute () =
  (* Worker 0's computation ends at 8 and the crash at 9 cuts its
     return.  The master skips that return at once, so worker 1's
     return runs over [6, 10], not [8, 12]. *)
  let p = Dls.Platform.make_exn [ worker (1, 1) (2, 1) (2, 1); worker (1, 1) (2, 1) (2, 1) ] in
  let faults = Dls.Faults.make_exn [ Dls.Faults.Crash { worker = 0; at = Q.of_int 9 } ] in
  let seq =
    {
      Dls.Replan.sigma1 = [| 1; 0 |];
      sigma2 = [| 0; 1 |];
      loads = [| Q.of_int 2; Q.of_int 2 |];
      start = Q.zero;
      source = Dls.Replan.Original;
    }
  in
  match Sim.Faults.execute p faults seq with
  | Error e -> Alcotest.fail (Dls.Errors.to_string e)
  | Ok trace ->
    agrees_with_replay "crash after compute" trace (Dls.Replan.replay_seq p faults seq)

(* Two LP schedules of the seed-25 matrix whose surviving return meets a
   stall onset exactly: run from loads lifted back from floats, it
   landed one ulp late and lost the stall's whole length (z = 1 case
   434 returned at 0.421875, z > 1 case 1242 at 3.09375); from the exact
   loads it returns at the replay's 0.375 and 2.8125. *)
let test_replay_exact_loads () =
  List.iter
    (fun (regime, i) ->
      let platform, faults, load = Check.Fuzz.fault_case ~seed:25 ~severity:0.8 regime i in
      let original = Dls.Schedule.for_load (Dls.Fifo.optimal platform) ~load in
      let seq = Dls.Replan.seq_of_schedule original ~start:Q.zero in
      let label = Printf.sprintf "%s case %d" (Check.Fuzz.regime_to_string regime) i in
      match Sim.Faults.execute platform faults seq with
      | Error e -> Alcotest.failf "%s: %s" label (Dls.Errors.to_string e)
      | Ok trace -> agrees_with_replay label trace (Dls.Replan.replay_seq platform faults seq))
    [ (Check.Fuzz.Unit_z, 434); (Check.Fuzz.Big_z, 1242) ]

(* Seeded [Faults.gen] cases in each return-ratio regime: the original
   schedule run under the faults matches its exact replay, and the trace
   of the re-planner's decision matches the completions the decision
   reports. *)
let replay_matrix_case regime =
  let name = Printf.sprintf "agrees with exact replay, %s" (Check.Fuzz.regime_to_string regime) in
  Alcotest.test_case name `Quick (fun () ->
      for i = 0 to 1499 do
        let platform, faults, load = Check.Fuzz.fault_case ~seed:25 ~severity:0.8 regime i in
        let sol = Dls.Fifo.optimal platform in
        let original = Dls.Schedule.for_load sol ~load in
        let label = Printf.sprintf "%s case %d" (Check.Fuzz.regime_to_string regime) i in
        let run = function
          | Ok t -> t
          | Error e -> Alcotest.failf "%s: %s" label (Dls.Errors.to_string e)
        in
        agrees_with_replay label
          (run
             (Sim.Faults.execute_decision platform faults ~original
                ~decision:Dls.Replan.Keep_original))
          (Dls.Replan.replay_seq platform faults
             (Dls.Replan.seq_of_schedule original ~start:Q.zero));
        let outcome = Dls.Replan.respond_exn faults sol ~load in
        agrees_with_replay (label ^ " decision")
          (run
             (Sim.Faults.execute_decision platform faults ~original
                ~decision:outcome.Dls.Replan.decision))
          outcome.Dls.Replan.achieved.Dls.Replan.completions
      done)

(* ------------------------------------------------------------------ *)
(* The exact walk against the rational replay it replaced              *)
(* ------------------------------------------------------------------ *)

(* The replay [Dls.Replan.replay_seq] ran before the master's port was
   walked once ({!Dls.Port_walk}), kept as the exact instance's
   reference: every send back to back in [sigma1] order, then the
   returns in [sigma2] order, each phase dated by the integrator. *)
let reference_replay_seq platform plan (s : Dls.Replan.seq) =
  let active order =
    Array.of_list
      (List.filter (fun i -> Q.sign s.loads.(i) > 0) (Array.to_list order))
  in
  let sends = active s.sigma1 and returns = active s.sigma2 in
  let clock = ref s.start in
  let send_finish = Hashtbl.create 8 in
  Array.iter
    (fun i ->
      match
        Dls.Faults.finish_time platform plan (Dls.Faults.Send_to i) ~start:!clock
          ~load:s.loads.(i)
      with
      | Some f ->
        Hashtbl.replace send_finish i f;
        clock := f
      | None -> ())
    sends;
  let master_free = ref !clock in
  Array.to_list
    (Array.map
       (fun i ->
         let finish =
           match Hashtbl.find_opt send_finish i with
           | None -> None
           | Some sf -> (
             match
               Dls.Faults.finish_time platform plan (Dls.Faults.Compute_on i) ~start:sf
                 ~load:s.loads.(i)
             with
             | None -> None
             | Some cf -> (
               let rs = Q.max !master_free cf in
               match
                 Dls.Faults.finish_time platform plan (Dls.Faults.Return_from i) ~start:rs
                   ~load:s.loads.(i)
               with
               | None -> None
               | Some rf ->
                 master_free := rf;
                 Some rf))
         in
         { Dls.Replan.worker = i; load = s.loads.(i); source = s.source; finish })
       returns)

let completion_to_string (c : Dls.Replan.completion) =
  Printf.sprintf "%d:%s:%s:%s" c.worker (Q.to_string c.load)
    (match c.source with Dls.Replan.Original -> "original" | Recovery -> "recovery")
    (match c.finish with Some f -> Q.to_string f | None -> "lost")

let same_as_reference label platform plan seq =
  let same (a : Dls.Replan.completion) (b : Dls.Replan.completion) =
    a.worker = b.worker && Q.equal a.load b.load && a.source = b.source
    && Option.equal Q.equal a.finish b.finish
  in
  let want = reference_replay_seq platform plan seq in
  let got = Dls.Replan.replay_seq platform plan seq in
  if not (List.equal same want got) then
    Alcotest.failf "%s: walk [%s], reference [%s]" label
      (String.concat "; " (List.map completion_to_string got))
      (String.concat "; " (List.map completion_to_string want))

(* Fault plans aimed at one walk's dates: a crash in the middle of each
   phase (a send to a crashed worker still lands, so that crash cuts the
   computation), and a stall starting exactly where a phase starts or
   ends. *)
let aimed_plans platform seq =
  List.concat_map
    (fun (st : _ Dls.Port_walk.step) ->
      let worker = st.op.worker in
      let mid = Q.div (Q.add st.start st.finish) (Q.of_int 2) in
      let duration = Q.sub st.finish st.start in
      let duration = if Q.sign duration > 0 then duration else Q.one in
      List.map Dls.Faults.make_exn
        [
          [ Dls.Faults.Crash { worker; at = mid } ];
          [ Dls.Faults.Stall { worker; at = st.start; duration } ];
          [ Dls.Faults.Stall { worker; at = st.finish; duration } ];
        ])
    (Dls.Replan.walk_seq platform Dls.Faults.empty seq)

(* Arbitrary orders over independent subsets (a loaded worker may be
   missing from [sigma1] and is then lost), a quarter of the loads zero,
   and a start that is mostly not zero. *)
let random_seq rng n =
  let order () =
    let ws = List.filter (fun _ -> Random.State.int rng 5 > 0) (List.init n Fun.id) in
    let keyed = List.map (fun i -> (Random.State.bits rng, i)) ws in
    Array.of_list (List.map snd (List.sort compare keyed))
  in
  let sigma1 = order () in
  let sigma2 = order () in
  {
    Dls.Replan.sigma1;
    sigma2;
    loads =
      Array.init n (fun _ ->
          if Random.State.int rng 4 = 0 then Q.zero
          else qq (1 + Random.State.int rng 20) (1 + Random.State.int rng 7));
    start = qq (Random.State.int rng 5) (1 + Random.State.int rng 3);
    source = (if Random.State.bool rng then Dls.Replan.Original else Dls.Replan.Recovery);
  }

let test_walk_matches_reference () =
  (* The seed-25 matrix: each original FIFO and LIFO seq, fault-free and
     under its faults, and every recovery the re-planner tried. *)
  List.iter
    (fun regime ->
      for i = 0 to 1499 do
        let platform, faults, load = Check.Fuzz.fault_case ~seed:25 ~severity:0.8 regime i in
        let label = Printf.sprintf "%s case %d" (Check.Fuzz.regime_to_string regime) i in
        let sol = Dls.Fifo.optimal platform in
        List.iter
          (fun (oname, sol) ->
            let seq =
              Dls.Replan.seq_of_schedule (Dls.Schedule.for_load sol ~load) ~start:Q.zero
            in
            same_as_reference (label ^ " " ^ oname) platform faults seq;
            same_as_reference (label ^ " " ^ oname ^ " fault-free") platform Dls.Faults.empty
              seq)
          [ ("fifo", sol); ("lifo", Dls.Lifo.optimal platform) ];
        List.iter
          (fun (policy, (r : Dls.Replan.recovery), _) ->
            let seq =
              Dls.Replan.seq_of_schedule ~source:Dls.Replan.Recovery r.schedule ~start:Q.zero
            in
            same_as_reference
              (label ^ " " ^ Dls.Replan.policy_to_string policy)
              platform faults { seq with start = r.at })
          (Dls.Replan.respond_exn faults sol ~load).Dls.Replan.candidates
      done)
    Check.Fuzz.all_regimes;
  (* Random seqs, under a generated plan and under plans aimed at their
     own dates. *)
  for i = 0 to 599 do
    let rng = Random.State.make [| 29; i |] in
    let regime = List.nth Check.Fuzz.all_regimes (i mod 3) in
    let platform = Check.Fuzz.gen_platform rng regime in
    let n = Dls.Platform.size platform in
    let seq = random_seq rng n in
    let label = Printf.sprintf "random seq %d" i in
    let deadline =
      List.fold_left
        (fun acc (st : _ Dls.Port_walk.step) -> Q.max acc st.finish)
        Q.one
        (Dls.Replan.walk_seq platform Dls.Faults.empty seq)
    in
    let prng = Numeric.Prng.create ~seed:(1000 + i) in
    same_as_reference label platform
      (Dls.Faults.gen prng ~workers:n ~deadline ~severity:0.8)
      seq;
    List.iteri
      (fun k plan -> same_as_reference (Printf.sprintf "%s aimed plan %d" label k) platform plan seq)
      (aimed_plans platform seq)
  done

let () =
  if Array.length Sys.argv > 2 && Sys.argv.(1) = "--print-pinned" then
    Out_channel.with_open_text Sys.argv.(2) (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) (pinned_lines ()))
  else
  Alcotest.run "sim"
    [
      ( "star",
        [
          Alcotest.test_case "single worker" `Quick test_star_single_worker_exact;
          Alcotest.test_case "matches LP schedule" `Quick test_star_matches_lp_schedule;
          Alcotest.test_case "master serializes" `Quick test_star_master_serializes;
          Alcotest.test_case "return order" `Quick test_star_return_order_respected;
          Alcotest.test_case "skips zero loads" `Quick test_star_skips_zero_loads;
          Alcotest.test_case "noise slows down" `Quick test_star_noise_slows_down;
          Alcotest.test_case "eager returns earlier" `Quick
            test_star_eager_returns_earlier;
          Alcotest.test_case "eager respects sigma2" `Quick
            test_star_eager_respects_sigma2;
          prop_sim_matches_lp;
          prop_sim_never_beats_lp;
          prop_eager_protocol_valid;
        ] );
      ( "chunked",
        [
          Alcotest.test_case "two chunks one worker" `Quick
            test_chunked_two_chunks_one_worker;
          Alcotest.test_case "pipelining" `Quick test_chunked_interleaves_compute;
          Alcotest.test_case "return without send" `Quick
            test_chunked_return_without_send;
          Alcotest.test_case "noise" `Quick test_chunked_noise_applies;
          Alcotest.test_case "latency rejection" `Quick
            test_plan_of_multiround_rejects_latency;
        ] );
      ( "faults",
        [
          Alcotest.test_case "malformed plans rejected" `Quick
            test_star_rejects_malformed_plans;
          Alcotest.test_case "no fault = star" `Quick
            test_sim_faults_no_fault_matches_star;
          Alcotest.test_case "crash drops return" `Quick
            test_sim_faults_crash_drops_return;
          Alcotest.test_case "decision trace valid" `Quick
            test_sim_faults_decision_trace_valid;
        ] );
      ("pinned", [ Alcotest.test_case "executor traces" `Quick test_pinned_traces ]);
      ("walk", [ Alcotest.test_case "exact walk = reference replay" `Quick test_walk_matches_reference ]);
      ( "replay",
        Alcotest.test_case "crash after compute" `Quick test_replay_crash_after_compute
        :: Alcotest.test_case "exact loads at a stall onset" `Quick test_replay_exact_loads
        :: List.map replay_matrix_case Check.Fuzz.all_regimes );
      ( "trace",
        [
          Alcotest.test_case "detects overlap" `Quick test_trace_detects_overlap;
          Alcotest.test_case "detects precedence" `Quick test_trace_detects_precedence;
          Alcotest.test_case "of_schedule" `Quick test_trace_of_schedule;
          Alcotest.test_case "boundary semantics" `Quick test_trace_boundary_semantics;
          Alcotest.test_case "validate_schedule" `Quick test_trace_validate_schedule;
        ] );
      ( "trace_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_io_roundtrip;
          Alcotest.test_case "errors" `Quick test_trace_io_errors;
          Alcotest.test_case "empty" `Quick test_trace_io_empty;
        ] );
      ( "gantt",
        [
          Alcotest.test_case "renders" `Quick test_gantt_renders;
          Alcotest.test_case "empty" `Quick test_gantt_empty;
          Alcotest.test_case "svg structure" `Quick test_gantt_svg_structure;
          Alcotest.test_case "svg empty" `Quick test_gantt_svg_empty;
        ] );
    ]
