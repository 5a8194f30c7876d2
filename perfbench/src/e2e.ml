(* The end-to-end run: untraced, timed on the client.

   A run is [rounds] rounds over the same fixed request list.  Each
   round starts the daemon afresh, so every round meets the same cold
   caches; it runs the warm-up pass, serves the whole measured list
   closed loop, and stops the daemon.  Every figure is a median over
   rounds, so one round slowed by the host does not decide it:

   - [throughput_rps]: the median round's ok replies per second;
   - [latency_p50_ms], [latency_p99_ms]: each request's latency is the
     median of its [rounds] samples, and the quantiles are taken over
     those per-request medians, so 1% of the list, at least 11
     requests, lies beyond p99;
   - [setup_s]: the median of [rounds * setups_per_round] set-ups, each
     timed from spawning the daemon to the end of its warm-up pass;
     each round measures through the last of its set-ups.

   Correctness is checked after the processes are gone, outside the
   timed window: every reply of every round, warm-up included, must be
   an [ok] line equal, byte for byte, to the exact oracle's. *)

let rounds = 5
let setups_per_round = 3

type round = {
  setups : float list;
  warms : Drive.result list;  (** one per set-up *)
  measured : Drive.result;
}

type outcome = {
  attempted : int;
  failed : int;
  throughput_rps : float;
  latency_p50_ms : float;
  latency_p99_ms : float;
  setup_s : float;
}

(* Replies that are missing, not [ok], or differ from the oracle. *)
let failures table lines (r : Drive.result) =
  let bad = ref 0 in
  Array.iteri
    (fun i l ->
      match r.Drive.replies.(i), Hashtbl.find table l with
      | Some got, Ok want when Drive.is_ok got && got = want -> ()
      | _ -> incr bad)
    lines;
  !bad

(* Spawn the daemon and run the warm-up; the daemon and connection are
   handed to [k], and stopped when it returns. *)
let set_up ~dls ~warm k =
  let t0 = Parallel.Clock.now () in
  let topo = Topo.start ~dls ~router:false in
  Fun.protect
    ~finally:(fun () -> Topo.stop topo)
    (fun () ->
      let conn = Drive.connect topo.Topo.daemon in
      Fun.protect
        ~finally:(fun () -> Service.Client.close conn)
        (fun () ->
          let w = Drive.run conn warm in
          k (Parallel.Clock.now () -. t0) w conn))

let round ~dls ~warm ~lines =
  let extra =
    List.init (setups_per_round - 1) (fun _ ->
        set_up ~dls ~warm (fun s w _ -> (s, w)))
  in
  let s, w, measured =
    set_up ~dls ~warm (fun s w conn -> (s, w, Drive.run conn lines))
  in
  {
    setups = s :: List.map fst extra;
    warms = w :: List.map snd extra;
    measured;
  }

let ok_count (r : Drive.result) =
  Array.fold_left
    (fun n x -> match x with Some l when Drive.is_ok l -> n + 1 | _ -> n)
    0 r.Drive.replies

let run ~dls w ~seed ~seconds =
  Topo.prepare ();
  let n = Gen.length ~seconds in
  let warm_reqs, reqs = Gen.stream w ~seed ~n in
  let warm = Array.map Gen.line warm_reqs and lines = Array.map Gen.line reqs in
  let rs = List.init rounds (fun _ -> round ~dls ~warm ~lines) in
  let table = Oracle.table ~jobs:2 (Array.append warm lines) in
  let measured = List.map (fun r -> r.measured) rs in
  let warms = List.concat_map (fun r -> r.warms) rs in
  let median_of l = Quant.median (Array.of_list l) in
  let per_request =
    Quant.sorted
      (Array.init n (fun i ->
           median_of (List.map (fun (m : Drive.result) -> m.Drive.latency_us.(i)) measured)))
  in
  {
    attempted = (rounds * n) + (List.length warms * Array.length warm);
    failed =
      List.fold_left (fun acc m -> acc + failures table lines m) 0 measured
      + List.fold_left (fun acc m -> acc + failures table warm m) 0 warms;
    throughput_rps =
      median_of
        (List.map
           (fun (m : Drive.result) -> float_of_int (ok_count m) /. m.Drive.wall_s)
           measured);
    latency_p50_ms = Quant.quantile_sorted per_request 0.5 /. 1e3;
    latency_p99_ms = Quant.quantile_sorted per_request 0.99 /. 1e3;
    setup_s = median_of (List.concat_map (fun r -> r.setups) rs);
  }
