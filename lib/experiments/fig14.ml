let comm_factors x = [| 10; 8; 8; x |]
let comp_factors = [| 9; 9; 10; 1 |]

let worker_table ~x =
  let comm = comm_factors x in
  Report.make ~id:"fig14-table" ~title:"worker characteristics (Section 5.3.4)"
    ~columns:[ "worker"; "communication speed"; "computation speed" ]
    (List.init 4 (fun i ->
         [ Report.Int (i + 1); Report.Int comm.(i); Report.Int comp_factors.(i) ]))

let run ~x () =
  let n = 400 and total = 1000 in
  let machine = Cluster.Workload.gdsdmi in
  let rng = Numeric.Prng.create ~seed:14 in
  let rows =
    List.map
      (fun available ->
        let factors =
          {
            Cluster.Gen.comm = Array.sub (comm_factors x) 0 available;
            comp = Array.sub comp_factors 0 available;
          }
        in
        let m =
          Campaign.measure ~rng:(Numeric.Prng.split rng) ~machine ~n ~total
            factors Dls.Heuristics.Inc_c
        in
        [
          Report.Int available;
          Report.Float m.Campaign.lp_time;
          Report.Float m.Campaign.real_time;
          Report.Int m.Campaign.workers_used;
        ])
      [ 1; 2; 3; 4 ]
  in
  Report.make ~id:(Printf.sprintf "fig14-x%d" x)
    ~title:
      (Printf.sprintf "participating workers, INC_C, matrix size %d, x=%d" n x)
    ~columns:[ "available"; "lp time (s)"; "real time (s)"; "workers used" ]
    ~notes:
      [
        "the fourth worker must stay unused for x=1 and be enrolled for x=3";
      ]
    rows
