type config = {
  id : string;
  title : string;
  scenario : Cluster.Gen.scenario;
  comm_times : int;
  comp_times : int;
  heuristics : Dls.Heuristics.t list;
  platforms : int;
  workers : int;
  sizes : int list;
  total : int;
  seed : int;
}

let paper_sizes = [ 40; 60; 80; 100; 120; 140; 160; 180; 200 ]

let base =
  {
    id = "";
    title = "";
    scenario = Cluster.Gen.Heterogeneous;
    comm_times = 1;
    comp_times = 1;
    heuristics = Dls.Heuristics.all;
    platforms = 50;
    workers = 11;
    sizes = paper_sizes;
    total = 1000;
    seed = 1;
  }

let fig10 =
  {
    base with
    id = "fig10";
    title = "50 homogeneous random platforms";
    scenario = Cluster.Gen.Homogeneous;
    (* all FIFO strategies coincide on a homogeneous platform *)
    heuristics = [ Dls.Heuristics.Inc_c; Dls.Heuristics.Lifo ];
    seed = 10;
  }

let fig11 =
  {
    base with
    id = "fig11";
    title = "50 random platforms, homogeneous comm / heterogeneous comp";
    scenario = Cluster.Gen.Hom_comm_het_comp;
    seed = 11;
  }

let fig12 =
  { base with id = "fig12"; title = "50 heterogeneous random platforms"; seed = 12 }

let fig13a =
  {
    base with
    id = "fig13a";
    title = "50 heterogeneous random platforms, calculation power x10";
    comp_times = 10;
    seed = 12 (* same platforms as fig12, rescaled, as in the paper *);
  }

let fig13b =
  {
    base with
    id = "fig13b";
    title = "50 heterogeneous random platforms, communication power x10";
    comm_times = 10;
    seed = 12;
  }

let all = [ fig10; fig11; fig12; fig13a; fig13b ]

(* Everything one (size, platform) point contributes to the report.
   Measuring a point only touches its own pre-split PRNG, so points are
   independent and can be computed on any domain. *)
type point = {
  incc_lp : float;
  incc_ratio : float;
  others : (string * float * float) list;  (* heuristic, lp and real ratios *)
}

let measure_point config machine n factors rng =
  let baseline =
    Campaign.measure ~rng ~machine ~n ~total:config.total factors
      Dls.Heuristics.Inc_c
  in
  let others =
    List.filter_map
      (fun h ->
        if h = Dls.Heuristics.Inc_c then None
        else begin
          let m = Campaign.measure ~rng ~machine ~n ~total:config.total factors h in
          Some
            ( Dls.Heuristics.name h,
              m.Campaign.lp_time /. baseline.Campaign.lp_time,
              m.Campaign.real_time /. baseline.Campaign.lp_time )
        end)
      config.heuristics
  in
  {
    incc_lp = baseline.Campaign.lp_time;
    incc_ratio = baseline.Campaign.real_time /. baseline.Campaign.lp_time;
    others;
  }

let run ?(quick = false) ?(jobs = 1) config =
  let platforms = if quick then min 8 config.platforms else config.platforms in
  let sizes =
    if quick then List.filteri (fun i _ -> i mod 2 = 0) config.sizes
    else config.sizes
  in
  let machine = Cluster.Workload.gdsdmi in
  let root = Numeric.Prng.create ~seed:config.seed in
  let factor_sets =
    List.init platforms (fun _ ->
        Cluster.Gen.scale ~comm_times:config.comm_times
          ~comp_times:config.comp_times
          (Cluster.Gen.factors root config.scenario ~workers:config.workers))
  in
  let sim_rng = Numeric.Prng.split root in
  (* Pre-split one PRNG per point in the exact order the sequential loop
     would, then measure the points (possibly in parallel: results are
     bit-identical because each point owns its stream and the reduction
     below walks them back in sequential order). *)
  let tasks =
    Array.of_list
      (List.concat_map
         (fun n ->
           List.map (fun factors -> (n, factors, Numeric.Prng.split sim_rng)) factor_sets)
         sizes)
  in
  let measure (n, factors, rng) = measure_point config machine n factors rng in
  let points = Parallel.Pool.run ~jobs measure tasks in
  let columns =
    "n" :: "INC_C lp (s)"
    :: List.concat_map
         (fun h ->
           let name = Dls.Heuristics.name h in
           if h = Dls.Heuristics.Inc_c then [ name ^ " real/lp" ]
           else [ name ^ " lp/INC_C lp"; name ^ " real/INC_C lp" ])
         config.heuristics
  in
  let chart : (string * (float * float) list ref) list =
    List.concat_map
      (fun h ->
        let name = Dls.Heuristics.name h in
        if h = Dls.Heuristics.Inc_c then [ (name ^ " real/lp", ref []) ]
        else [ (name ^ " lp", ref []); (name ^ " real", ref []) ])
      config.heuristics
  in
  let push_chart key n v =
    match List.assoc_opt key chart with
    | Some acc -> acc := (float_of_int n, v) :: !acc
    | None -> ()
  in
  let rows =
    List.mapi
      (fun si n ->
        (* per-heuristic accumulated ratios across platforms; pushes
           happen in platform order, exactly as the sequential loop's,
           so the float summation order inside [Stats.mean] (and hence
           the report) is independent of [jobs] *)
        let acc = Hashtbl.create 8 in
        let push key v =
          Hashtbl.replace acc key (v :: Option.value ~default:[] (Hashtbl.find_opt acc key))
        in
        List.iteri
          (fun pi _factors ->
            let pt = points.((si * platforms) + pi) in
            push "incc_lp" pt.incc_lp;
            push "incc_ratio" pt.incc_ratio;
            List.iter
              (fun (name, lp_ratio, real_ratio) ->
                push (name ^ "_lp") lp_ratio;
                push (name ^ "_real") real_ratio)
              pt.others)
          factor_sets;
        let mean key = Stats.mean (Hashtbl.find acc key) in
        push_chart "INC_C real/lp" n (mean "incc_ratio");
        List.iter
          (fun h ->
            if h <> Dls.Heuristics.Inc_c then begin
              let name = Dls.Heuristics.name h in
              push_chart (name ^ " lp") n (mean (name ^ "_lp"));
              push_chart (name ^ " real") n (mean (name ^ "_real"))
            end)
          config.heuristics;
        Report.Int n :: Report.Float (mean "incc_lp")
        :: List.concat_map
             (fun h ->
               let name = Dls.Heuristics.name h in
               if h = Dls.Heuristics.Inc_c then [ Report.Float (mean "incc_ratio") ]
               else
                 [ Report.Float (mean (name ^ "_lp")); Report.Float (mean (name ^ "_real")) ])
             config.heuristics)
      sizes
  in
  let plot =
    Plot.render ~y_min:0.4 ~y_max:1.4
      (List.map
         (fun (label, acc) -> { Plot.label; points = List.rev !acc })
         chart)
  in
  let notes =
    Printf.sprintf
      "%d platforms x %d workers, %d items per campaign; ratios are \
       per-platform, then averaged; chart: time relative to INC_C lp, vs \
       matrix size (paper's y-range 0.4-1.4)"
      platforms config.workers config.total
    :: String.split_on_char '\n' plot
  in
  Report.make ~id:config.id ~title:config.title ~columns ~notes rows
