(* Quickstart: schedule a divisible load on a small heterogeneous star
   platform and inspect the result.

   Run with:  dune exec examples/quickstart.exe                       *)

module Q = Numeric.Rational

let () =
  (* A master and three workers.  Costs are per load unit: sending one
     unit to P1 takes 1 time unit, computing it takes 1, returning the
     (half-sized, z = 1/2) result takes 1/2. *)
  let platform =
    Dls.Platform.make_exn
      [
        Dls.Platform.worker ~name:"P1" ~c:Q.one ~w:Q.one ~d:Q.half ();
        Dls.Platform.worker ~name:"P2" ~c:(Q.of_int 2) ~w:Q.one ~d:Q.one ();
        Dls.Platform.worker ~name:"P3" ~c:(Q.of_ints 3 2) ~w:(Q.of_int 3)
          ~d:(Q.of_ints 3 4) ();
      ]
  in
  Format.printf "Platform:@.%a@." Dls.Platform.pp platform;

  (* Theorem 1: the optimal FIFO schedule serves workers by
     non-decreasing communication cost; the LP dimensions the loads and
     performs resource selection. *)
  let fifo = Dls.Fifo.optimal platform in
  Format.printf "Optimal FIFO schedule:@.%a@." Dls.Lp_model.pp fifo;

  (* The same platform under the LIFO discipline (first served returns
     last). *)
  let lifo = Dls.Lifo.optimal platform in
  Format.printf "Optimal LIFO throughput: %s (~%.4f)@.@."
    (Q.to_string lifo.Dls.Lp_model.rho)
    (Q.to_float lifo.Dls.Lp_model.rho);

  (* Realize the FIFO solution as an explicit timeline and draw it. *)
  let schedule = Dls.Schedule.of_solved fifo in
  (match Dls.Schedule.validate schedule with
  | Ok () -> Format.printf "schedule validates: all one-port invariants hold@."
  | Error msgs -> List.iter (Format.printf "INVALID: %s@.") msgs);
  print_newline ();
  print_string (Sim.Gantt.render_schedule schedule);
  print_newline ();

  (* Makespan scaling is linear: processing 600 load units simply scales
     the unit schedule. *)
  let load = Q.of_int 600 in
  Format.printf "makespan for %s units: %s time units@." (Q.to_string load)
    (Q.to_string (Dls.Lp_model.time_for_load fifo ~load));

  (* Execute the campaign on the one-port simulator (no noise):
     the measured makespan matches the LP prediction exactly. *)
  let plan = Sim.Star.plan_of_solved fifo in
  let trace = Sim.Star.execute platform plan in
  Format.printf "simulated unit-campaign makespan: %.6f (LP predicts 1.0)@."
    trace.Sim.Trace.makespan
