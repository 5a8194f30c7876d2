let run () =
  let rng = Numeric.Prng.create ~seed:2006 in
  let noise = Cluster.Noise.make rng ~n:100 in
  let machine = Cluster.Workload.gdsdmi in
  let factors = [ 1; 2; 3; 4; 5 ] in
  let sizes_mb = List.init 10 (fun i -> 0.5 *. float_of_int (i + 1)) in
  let time_of factor mb =
    let nominal =
      mb *. 1048576.0 /. float_of_int (machine.Cluster.Workload.bytes_per_sec * factor)
    in
    noise.Sim.Star.comm ~worker:factor nominal
  in
  let series =
    List.map (fun f -> (f, List.map (fun mb -> (mb, time_of f mb)) sizes_mb)) factors
  in
  let rows =
    List.map
      (fun mb ->
        Report.Float mb
        :: List.map
             (fun (_, points) -> Report.Float (List.assoc mb points))
             series)
      sizes_mb
  in
  let notes =
    List.map
      (fun (f, points) ->
        let fit = Stats.linear_fit points in
        let expected =
          1048576.0 /. float_of_int (machine.Cluster.Workload.bytes_per_sec * f)
        in
        Printf.sprintf
          "worker %d: slope %.4g s/MB (model %.4g), intercept %.2g s, R^2 = %.6f"
          f fit.Stats.slope expected fit.Stats.intercept fit.Stats.r2)
      series
  in
  Report.make ~id:"fig8" ~title:"linearity test, transfer time vs message size"
    ~columns:
      ("MB" :: List.map (fun f -> Printf.sprintf "worker%d (s)" f) factors)
    ~notes rows
