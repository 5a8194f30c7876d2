(* Tests for the experiment harnesses: report/stats utilities, the
   campaign runner and the qualitative shapes of every reproduced
   figure. *)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let test_report_row_width () =
  try
    ignore
      (Experiments.Report.make ~id:"x" ~title:"t" ~columns:[ "a"; "b" ]
         [ [ Experiments.Report.Int 1 ] ]);
    Alcotest.fail "accepted ragged row"
  with Invalid_argument _ -> ()

let test_report_cells () =
  Alcotest.(check string) "int" "42" (Experiments.Report.cell_to_string (Experiments.Report.Int 42));
  Alcotest.(check string) "str" "hi" (Experiments.Report.cell_to_string (Experiments.Report.Str "hi"));
  Alcotest.(check string) "float" "1.5" (Experiments.Report.cell_to_string (Experiments.Report.Float 1.5));
  Alcotest.(check string) "whole float" "2.0" (Experiments.Report.cell_to_string (Experiments.Report.Float 2.0))

let test_report_csv () =
  let t =
    Experiments.Report.make ~id:"x" ~title:"t" ~columns:[ "a"; "b,c" ]
      [ [ Experiments.Report.Str "x\"y"; Experiments.Report.Int 7 ] ]
  in
  let csv = Experiments.Report.to_csv t in
  Alcotest.(check string) "escaped" "a,\"b,c\"\n\"x\"\"y\",7\n" csv

let test_report_json () =
  let t =
    Experiments.Report.make ~id:"j" ~title:"quote \" and newline\n"
      ~columns:[ "a" ] ~notes:[ "tab\there" ]
      [ [ Experiments.Report.Float 1.5 ]; [ Experiments.Report.Str "x" ] ]
  in
  let json = Experiments.Report.to_json t in
  Alcotest.(check bool) "escaped quote" true (contains_substring json "\\\"");
  Alcotest.(check bool) "escaped newline" true (contains_substring json "\\n");
  Alcotest.(check bool) "escaped tab" true (contains_substring json "\\t");
  Alcotest.(check bool) "numeric stays numeric" true (contains_substring json "[1.5]");
  Alcotest.(check bool) "object shape" true
    (String.length json > 2 && json.[0] = '{' && json.[String.length json - 1] = '}')

let test_report_pp_smoke () =
  let t =
    Experiments.Report.make ~id:"id" ~title:"title" ~columns:[ "col" ]
      ~notes:[ "a note" ]
      [ [ Experiments.Report.Int 3 ] ]
  in
  let s = Format.asprintf "%a" Experiments.Report.pp t in
  Alcotest.(check bool) "has title" true (contains_substring s "title");
  Alcotest.(check bool) "has note" true (contains_substring s "a note")

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_mean_stddev () =
  Alcotest.(check (float 1e-12)) "mean" 2.0 (Experiments.Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-12)) "stddev" (sqrt (2.0 /. 3.0))
    (Experiments.Stats.stddev [ 1.0; 2.0; 3.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.mean: empty list")
    (fun () -> ignore (Experiments.Stats.mean []))

let test_stats_linear_fit () =
  let fit = Experiments.Stats.linear_fit [ (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) ] in
  Alcotest.(check (float 1e-12)) "slope" 2.0 fit.Experiments.Stats.slope;
  Alcotest.(check (float 1e-12)) "intercept" 1.0 fit.Experiments.Stats.intercept;
  Alcotest.(check (float 1e-12)) "r2" 1.0 fit.Experiments.Stats.r2

let test_stats_fit_degenerate () =
  (try
     ignore (Experiments.Stats.linear_fit [ (1.0, 2.0) ]);
     Alcotest.fail "one point accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Experiments.Stats.linear_fit [ (1.0, 2.0); (1.0, 3.0) ]);
    Alcotest.fail "vertical line accepted"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Plot                                                                *)
(* ------------------------------------------------------------------ *)

let test_plot_basic () =
  let chart =
    Experiments.Plot.render ~width:20 ~height:5
      [
        { Experiments.Plot.label = "up"; points = [ (0.0, 0.0); (1.0, 1.0) ] };
        { Experiments.Plot.label = "down"; points = [ (0.0, 1.0); (1.0, 0.0) ] };
      ]
  in
  Alcotest.(check bool) "mentions both labels" true
    (contains_substring chart "up" && contains_substring chart "down");
  Alcotest.(check bool) "uses markers" true
    (contains_substring chart "*" && contains_substring chart "+");
  let lines = String.split_on_char '\n' chart in
  (* 5 grid rows + axis + x labels + 2 legend lines + trailing empty *)
  Alcotest.(check int) "line count" 10 (List.length lines)

let test_plot_empty () =
  Alcotest.(check string) "no data" "(no data)\n" (Experiments.Plot.render []);
  Alcotest.(check string) "empty series" "(no data)\n"
    (Experiments.Plot.render [ { Experiments.Plot.label = "x"; points = [] } ])

let test_plot_degenerate_scale () =
  (* All points identical: must not divide by zero. *)
  let chart =
    Experiments.Plot.render
      [ { Experiments.Plot.label = "flat"; points = [ (1.0, 2.0); (1.0, 2.0) ] } ]
  in
  Alcotest.(check bool) "renders" true (String.length chart > 0)

let test_plot_y_clamp () =
  (* Fixed y-range clamps out-of-range points instead of crashing. *)
  let chart =
    Experiments.Plot.render ~y_min:0.0 ~y_max:1.0
      [ { Experiments.Plot.label = "wild"; points = [ (0.0, -5.0); (1.0, 7.0) ] } ]
  in
  Alcotest.(check bool) "renders" true (contains_substring chart "wild")

let test_plot_too_many_series () =
  let s label = { Experiments.Plot.label; points = [ (0.0, 0.0) ] } in
  try
    ignore
      (Experiments.Plot.render
         (List.init 9 (fun i -> s (string_of_int i))));
    Alcotest.fail "9 series accepted"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)
(* ------------------------------------------------------------------ *)

let test_campaign_sane () =
  let rng = Numeric.Prng.create ~seed:3 in
  let factors = Cluster.Gen.factors rng Cluster.Gen.Heterogeneous ~workers:6 in
  let m =
    Experiments.Campaign.measure ~rng ~machine:Cluster.Workload.gdsdmi ~n:100
      ~total:500 factors Dls.Heuristics.Inc_c
  in
  Alcotest.(check bool) "lp positive" true (m.Experiments.Campaign.lp_time > 0.0);
  Alcotest.(check bool) "real >= lp (noise inflates)" true
    (m.Experiments.Campaign.real_time >= m.Experiments.Campaign.lp_time *. 0.999);
  Alcotest.(check bool) "workers in range" true
    (m.Experiments.Campaign.workers_used >= 1 && m.Experiments.Campaign.workers_used <= 6)

let test_campaign_noise_free_matches_lp () =
  let rng = Numeric.Prng.create ~seed:4 in
  let factors = Cluster.Gen.factors rng Cluster.Gen.Heterogeneous ~workers:5 in
  let m =
    Experiments.Campaign.measure ~noise_params:Cluster.Noise.none ~rng
      ~machine:Cluster.Workload.gdsdmi ~n:80 ~total:100_000 factors
      Dls.Heuristics.Inc_c
  in
  (* Large totals make the integer-rounding error negligible. *)
  Alcotest.(check bool) "within 0.1%" true
    (Float.abs ((m.Experiments.Campaign.real_time /. m.Experiments.Campaign.lp_time) -. 1.0)
    < 1e-3)

(* ------------------------------------------------------------------ *)
(* Figure harnesses                                                    *)
(* ------------------------------------------------------------------ *)

let test_fig23_diagrams () =
  let reports = Experiments.Fig23.run () in
  Alcotest.(check (list string)) "three diagrams" [ "fig2"; "fig3a"; "fig3b" ]
    (List.map (fun r -> r.Experiments.Report.id) reports);
  List.iter
    (fun r ->
      Alcotest.(check bool) "has a chart" true
        (List.exists
           (fun n -> contains_substring n "legend:")
           r.Experiments.Report.notes);
      Alcotest.(check bool) "has loads" true
        (List.length r.Experiments.Report.rows >= 1))
    reports

let test_fig8_linearity () =
  let r = Experiments.Fig8.run () in
  Alcotest.(check int) "10 rows" 10 (List.length r.Experiments.Report.rows);
  (* every per-worker note must report an essentially perfect fit *)
  List.iter
    (fun note ->
      if contains_substring note "R^2" then begin
        match String.index_opt note '=' with
        | Some _ ->
          let r2 =
            Scanf.sscanf (List.nth (String.split_on_char '=' note) 1) " %f"
              Fun.id
          in
          if r2 < 0.98 then Alcotest.failf "poor linearity: %s" note
        | None -> ()
      end)
    r.Experiments.Report.notes

let test_fig9_selects_three_workers () =
  let r = Experiments.Fig9.run () in
  let items_of_row row =
    match List.rev row with
    | Experiments.Report.Int items :: _ -> items
    | _ -> Alcotest.fail "unexpected row shape"
  in
  let used =
    List.length
      (List.filter (fun row -> items_of_row row > 0) r.Experiments.Report.rows)
  in
  Alcotest.(check int) "3 of 5 workers used" 3 used;
  Alcotest.(check bool) "trace reported valid" true
    (List.exists (fun n -> contains_substring n "trace valid: true") r.Experiments.Report.notes)

let float_cell = function
  | Experiments.Report.Float f -> f
  | Experiments.Report.Int i -> float_of_int i
  | Experiments.Report.Str s -> Alcotest.failf "expected number, got %S" s

let test_sweep_fig12_shape () =
  let r = Experiments.Sweep.run ~quick:true Experiments.Sweep.fig12 in
  Alcotest.(check int) "5 sizes in quick mode" 5 (List.length r.Experiments.Report.rows);
  List.iter
    (fun row ->
      match row with
      | [ _n; lp; incc_ratio; incw_lp; incw_real; _lifo_lp; lifo_real ] ->
        Alcotest.(check bool) "lp positive" true (float_cell lp > 0.0);
        Alcotest.(check bool) "real above lp" true (float_cell incc_ratio >= 1.0);
        (* Theorem 1: INC_C is the optimal FIFO order, INC_W cannot have
           a smaller LP time. *)
        Alcotest.(check bool) "INC_W lp ratio >= 1" true
          (float_cell incw_lp >= 1.0 -. 1e-9);
        Alcotest.(check bool) "INC_W real above" true (float_cell incw_real >= 1.0);
        Alcotest.(check bool) "LIFO real sane" true
          (float_cell lifo_real >= 0.8 && float_cell lifo_real < 2.0)
      | _ -> Alcotest.fail "unexpected column count")
    r.Experiments.Report.rows

let test_sweep_fig10_homogeneous_columns () =
  let r = Experiments.Sweep.run ~quick:true Experiments.Sweep.fig10 in
  (* INC_W is dropped: all FIFO orders coincide on homogeneous platforms. *)
  Alcotest.(check int) "5 columns" 5 (List.length r.Experiments.Report.columns)

let test_fig14_resource_selection () =
  let used_row r avail =
    let row = List.nth r.Experiments.Report.rows (avail - 1) in
    match List.rev row with
    | Experiments.Report.Int used :: _ -> used
    | _ -> Alcotest.fail "unexpected row"
  in
  let lp_of r avail =
    float_cell (List.nth (List.nth r.Experiments.Report.rows (avail - 1)) 1)
  in
  let r1 = Experiments.Fig14.run ~x:1 () in
  Alcotest.(check int) "x=1: 4 available, 3 used" 3 (used_row r1 4);
  Alcotest.(check bool) "x=1: adding w4 does not help" true
    (Float.abs (lp_of r1 4 -. lp_of r1 3) < 1e-9);
  let r3 = Experiments.Fig14.run ~x:3 () in
  Alcotest.(check int) "x=3: 4 available, 4 used" 4 (used_row r3 4);
  Alcotest.(check bool) "x=3: adding w4 helps" true (lp_of r3 4 < lp_of r3 3);
  (* availability can only improve the makespan *)
  List.iter
    (fun r ->
      let lps = List.map (fun a -> lp_of r a) [ 1; 2; 3; 4 ] in
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> a >= b -. 1e-9 && non_increasing rest
        | _ -> true
      in
      Alcotest.(check bool) "monotone" true (non_increasing lps))
    [ r1; r3 ]

let test_fig14_worker_table () =
  let t = Experiments.Fig14.worker_table ~x:1 in
  Alcotest.(check int) "4 workers" 4 (List.length t.Experiments.Report.rows)

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let test_theorem2_check_exact () =
  let r = Experiments.Ablations.theorem2_check () in
  List.iter
    (fun row ->
      match List.rev row with
      | Experiments.Report.Str verdict :: _ ->
        Alcotest.(check string) "exact agreement" "exact" verdict
      | _ -> Alcotest.fail "unexpected row")
    r.Experiments.Report.rows

let test_oneport_cost_ratios () =
  let r = Experiments.Ablations.one_port_cost ~quick:true () in
  List.iter
    (fun row ->
      match row with
      | [ _n; mean; mx ] ->
        Alcotest.(check bool) "two-port never slower" true (float_cell mean >= 1.0 -. 1e-12);
        Alcotest.(check bool) "max >= mean shape" true (float_cell mx >= 1.0 -. 1e-12)
      | _ -> Alcotest.fail "unexpected row")
    r.Experiments.Report.rows

let test_permutation_gap_bounds () =
  let r = Experiments.Ablations.permutation_gap ~quick:true () in
  List.iter
    (fun row ->
      match row with
      | [ _name; mean; mn; _hits ] ->
        Alcotest.(check bool) "at most the brute optimum" true
          (float_cell mean <= 1.0 +. 1e-9);
        Alcotest.(check bool) "min <= mean" true
          (float_cell mn <= float_cell mean +. 1e-9)
      | _ -> Alcotest.fail "unexpected row")
    r.Experiments.Report.rows

let test_lifo_regime_shape () =
  let r = Experiments.Ablations.lifo_regime ~quick:true () in
  (* The compute-bound end must favour LIFO; the comm-bound end must not. *)
  let ratio row = float_cell (List.nth row 1) in
  let first = List.hd r.Experiments.Report.rows in
  let last = List.nth r.Experiments.Report.rows (List.length r.Experiments.Report.rows - 1) in
  Alcotest.(check bool) "comm-bound: LIFO not better" true (ratio first >= 0.99);
  Alcotest.(check bool) "compute-bound: LIFO wins" true (ratio last < 1.0);
  (* enrollment grows towards compute-bound regimes *)
  let enrolled row = float_cell (List.nth row 2) in
  Alcotest.(check bool) "enrollment grows" true (enrolled last > enrolled first)

let test_affine_latency_shape () =
  let r = Experiments.Ablations.affine_latency ~quick:true () in
  let rhos =
    List.filter_map
      (fun row ->
        match List.nth row 1 with
        | Experiments.Report.Float f -> Some f
        | _ -> None)
      r.Experiments.Report.rows
  in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-9 && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "rho falls with latency" true (non_increasing rhos);
  let enrolled row =
    match List.nth row 2 with Experiments.Report.Int i -> i | _ -> -1
  in
  let first = enrolled (List.hd r.Experiments.Report.rows) in
  let last =
    enrolled (List.nth r.Experiments.Report.rows (List.length r.Experiments.Report.rows - 1))
  in
  Alcotest.(check bool) "enrollment shrinks" true (last <= first)

let test_multiround_ablation_shape () =
  let r = Experiments.Ablations.multiround ~quick:true () in
  let linear = List.map (fun row -> float_cell (List.nth row 1)) r.Experiments.Report.rows in
  let affine =
    List.filter_map
      (fun row ->
        match List.nth row 2 with
        | Experiments.Report.Float f -> Some f
        | _ -> None)
      r.Experiments.Report.rows
  in
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && non_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "linear monotone" true (non_decreasing linear);
  (* the affine curve must NOT be monotone: a finite optimum exists *)
  let best = List.fold_left Float.max neg_infinity affine in
  let last = List.nth affine (List.length affine - 1) in
  Alcotest.(check bool) "affine peaks before the end" true (last < best)

let test_protocol_ablation () =
  let r = Experiments.Ablations.protocol ~quick:true () in
  List.iter
    (fun row ->
      match row with
      | [ _n; lp; naive_mean; naive_min ] ->
        (* LP plans: the two policies must coincide exactly. *)
        Alcotest.(check (float 1e-9)) "LP plans unaffected" 1.0 (float_cell lp);
        (* Eager never helps: it is a feasible one-port execution of the
           same orders, and lazy realizes the LP's canonical form. *)
        Alcotest.(check bool) "eager never beats lazy" true
          (float_cell naive_min >= 1.0 -. 1e-9);
        Alcotest.(check bool) "mean >= min" true
          (float_cell naive_mean >= float_cell naive_min -. 1e-9)
      | _ -> Alcotest.fail "unexpected row")
    r.Experiments.Report.rows

let test_scaling_ablation () =
  let r = Experiments.Ablations.scaling ~quick:true () in
  let timings =
    match r.Experiments.Report.timings with
    | Some t -> t.Experiments.Report.rows
    | None -> Alcotest.fail "no timings"
  in
  List.iter2
    (fun row timing ->
      match (row, timing) with
      | [ w; err; pivots ], [ w'; exact_ms; float_ms ] ->
        Alcotest.(check bool) "same worker count" true (w = w');
        Alcotest.(check bool) "exact time positive" true (float_cell exact_ms > 0.0);
        Alcotest.(check bool) "float no slower x10" true
          (float_cell float_ms < float_cell exact_ms *. 10.0);
        Alcotest.(check bool) "solvers agree" true (float_cell err < 1e-9);
        Alcotest.(check bool) "pivots sane" true (float_cell pivots >= 1.0)
      | _ -> Alcotest.fail "unexpected row")
    r.Experiments.Report.rows timings

let test_sensitivity_ablation_shape () =
  let r = Experiments.Ablations.sensitivity ~quick:true () in
  (* degradation grows with jitter for both heuristics *)
  List.iter
    (fun col ->
      let series =
        List.map (fun row -> float_cell (List.nth row col)) r.Experiments.Report.rows
      in
      let first = List.hd series in
      let last = List.nth series (List.length series - 1) in
      Alcotest.(check bool) "grows with jitter" true (last > first);
      Alcotest.(check bool) "baseline near 1" true (first < 1.05))
    [ 1; 2 ]

let test_ordering_ablation () =
  let r = Experiments.Ablations.ordering ~quick:true () in
  match r.Experiments.Report.rows with
  | (Experiments.Report.Str "INC_C (Theorem 1)" :: [ v ]) :: rest ->
    Alcotest.(check (float 1e-9)) "INC_C is the reference" 1.0 (float_cell v);
    List.iter
      (fun row ->
        match row with
        | [ _; ratio ] ->
          Alcotest.(check bool) "no order beats INC_C" true
            (float_cell ratio <= 1.0 +. 1e-9)
        | _ -> Alcotest.fail "unexpected row")
      rest
  | _ -> Alcotest.fail "INC_C row missing or misplaced"

let test_robustness_recovery () =
  let r = Experiments.Ablations.robustness ~quick:true () in
  Alcotest.(check int) "4 severities x 3 regimes" 12
    (List.length r.Experiments.Report.rows);
  List.iter
    (fun row ->
      match row with
      | [ _severity; _z; unrecovered; recovered; _gain; _recoveries ] ->
        Alcotest.(check bool) "recovery never loses" true
          (float_cell recovered >= float_cell unrecovered)
      | _ -> Alcotest.fail "unexpected row")
    r.Experiments.Report.rows;
  (* The row means above are floats; the never-worse property holds per
     case and exactly, on the very cases the quick table draws. *)
  List.iter
    (fun severity ->
      List.iter
        (fun regime ->
          for i = 0 to 5 do
            let platform, plan, load =
              Check.Fuzz.fault_case ~seed:2026 ~severity regime i
            in
            Alcotest.(check (list string))
              (Printf.sprintf "case %d, severity %.2f, z %s" i severity
                 (Check.Fuzz.regime_to_string regime))
              []
              (Check.Fuzz.check_faulted platform plan ~load)
          done)
        Check.Fuzz.all_regimes)
    [ 0.25; 0.5; 0.75; 1.0 ]

let test_multiload_beats_back_to_back () =
  let r = Experiments.Ablations.multiload ~quick:true () in
  (* The mix's total is 8; the periods are exact LP optima. *)
  Alcotest.(check (list string)) "steady-state periods"
    [ "48/5"; "12"; "16" ]
    (List.map
       (fun row -> Experiments.Report.cell_to_string (List.nth row 2))
       r.Experiments.Report.rows);
  List.iter
    (fun row ->
      Alcotest.(check bool) "steady state beats back-to-back" true
        (float_cell (List.nth row 6) > 1.0))
    r.Experiments.Report.rows

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_ids_unique () =
  let ids = Experiments.Registry.ids () in
  Alcotest.(check int) "no duplicates" (List.length ids)
    (List.length (List.sort_uniq Stdlib.compare ids));
  Alcotest.(check bool) "all paper figures present" true
    (List.for_all
       (fun id -> List.mem id ids)
       [ "fig8"; "fig9"; "fig10"; "fig11"; "fig12"; "fig13a"; "fig13b"; "fig14" ])

let test_registry_find () =
  let e = Experiments.Registry.find "fig12" in
  Alcotest.(check string) "id" "fig12" e.Experiments.Registry.id;
  try
    ignore (Experiments.Registry.find "nope");
    Alcotest.fail "found a ghost"
  with Not_found -> ()

(* ------------------------------------------------------------------ *)
(* Pinned tables                                                       *)
(* ------------------------------------------------------------------ *)

(* Every table [dls experiment] prints, pinned by the MD5 of its text
   (as [Report.print] writes it) and of its CSV, in
   [fixtures/pinned_experiments.txt]: the [--quick] tables, checked
   here, and the full ones, checked by [test_experiments.exe
   --check-full] (about 90 s).  A line is [mode experiment report kind
   md5].  The fixture is regenerated ([--print-pinned FILE], which runs
   both modes) only by a change that means to move a figure, and that
   change lists the cells that moved. *)

(* Relative to [test/] under [dune runtest], to the repository root
   under [dune exec test/test_experiments.exe]. *)
let pinned_fixture =
  let here = "fixtures/pinned_experiments.txt" in
  if Sys.file_exists here then here else Filename.concat "test" here

let pinned_lines ~quick ~jobs =
  let mode = if quick then "quick" else "full" in
  let md5 s = Digest.to_hex (Digest.string s) in
  List.concat_map
    (fun (e : Experiments.Registry.entry) ->
      List.concat_map
        (fun (r : Experiments.Report.t) ->
          let line kind text =
            Printf.sprintf "%s %s %s %s %s" mode e.Experiments.Registry.id
              r.Experiments.Report.id kind (md5 text)
          in
          [
            line "text" (Format.asprintf "%a@." Experiments.Report.pp r);
            line "csv" (Experiments.Report.to_csv r);
          ])
        (e.Experiments.Registry.run ~quick ~jobs))
    Experiments.Registry.all

let fixture_lines mode =
  In_channel.with_open_text pinned_fixture In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.starts_with ~prefix:(mode ^ " ") l)

(* The fixture was printed with [jobs = 1]; two domains here check that
   the parallel sweeps print the same bytes. *)
let test_pinned_quick () =
  let want = fixture_lines "quick" and got = pinned_lines ~quick:true ~jobs:2 in
  Alcotest.(check int) "line count" (List.length want) (List.length got);
  List.iter2 (fun w g -> Alcotest.(check string) "pinned table" w g) want got

let check_full () =
  let want = fixture_lines "full" and got = pinned_lines ~quick:false ~jobs:2 in
  let bad = ref (List.length want <> List.length got) in
  if !bad then Printf.printf "%d lines pinned, %d computed\n" (List.length want) (List.length got)
  else
    List.iter2
      (fun w g ->
        if w <> g then begin
          bad := true;
          Printf.printf "pinned:   %s\ncomputed: %s\n" w g
        end)
      want got;
  if !bad then exit 1 else Printf.printf "%d full-table digests match\n" (List.length got)

let () =
  match Array.to_list Sys.argv with
  | [ _; "--print-pinned"; file ] ->
    Out_channel.with_open_text file (fun oc ->
        List.iter
          (fun quick ->
            List.iter (fun l -> output_string oc (l ^ "\n")) (pinned_lines ~quick ~jobs:1))
          [ true; false ])
  | [ _; "--check-full" ] -> check_full ()
  | _ ->
  Alcotest.run "experiments"
    [
      ( "report",
        [
          Alcotest.test_case "row width" `Quick test_report_row_width;
          Alcotest.test_case "cells" `Quick test_report_cells;
          Alcotest.test_case "csv" `Quick test_report_csv;
          Alcotest.test_case "json" `Quick test_report_json;
          Alcotest.test_case "pp" `Quick test_report_pp_smoke;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/stddev" `Quick test_stats_mean_stddev;
          Alcotest.test_case "linear fit" `Quick test_stats_linear_fit;
          Alcotest.test_case "degenerate fits" `Quick test_stats_fit_degenerate;
        ] );
      ( "plot",
        [
          Alcotest.test_case "basic" `Quick test_plot_basic;
          Alcotest.test_case "empty" `Quick test_plot_empty;
          Alcotest.test_case "degenerate scale" `Quick test_plot_degenerate_scale;
          Alcotest.test_case "y clamp" `Quick test_plot_y_clamp;
          Alcotest.test_case "too many series" `Quick test_plot_too_many_series;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "sane measurement" `Quick test_campaign_sane;
          Alcotest.test_case "noise-free matches LP" `Quick
            test_campaign_noise_free_matches_lp;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig2-3 diagrams" `Quick test_fig23_diagrams;
          Alcotest.test_case "fig8 linearity" `Quick test_fig8_linearity;
          Alcotest.test_case "fig9 selection" `Quick test_fig9_selects_three_workers;
          Alcotest.test_case "fig12 shape" `Slow test_sweep_fig12_shape;
          Alcotest.test_case "fig10 columns" `Slow test_sweep_fig10_homogeneous_columns;
          Alcotest.test_case "fig14 selection" `Quick test_fig14_resource_selection;
          Alcotest.test_case "fig14 table" `Quick test_fig14_worker_table;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "theorem2 exact" `Quick test_theorem2_check_exact;
          Alcotest.test_case "one-port cost" `Slow test_oneport_cost_ratios;
          Alcotest.test_case "permutation gap" `Slow test_permutation_gap_bounds;
          Alcotest.test_case "ordering" `Slow test_ordering_ablation;
          Alcotest.test_case "lifo regime" `Slow test_lifo_regime_shape;
          Alcotest.test_case "affine latency" `Slow test_affine_latency_shape;
          Alcotest.test_case "multiround" `Slow test_multiround_ablation_shape;
          Alcotest.test_case "protocol" `Slow test_protocol_ablation;
          Alcotest.test_case "sensitivity" `Slow test_sensitivity_ablation_shape;
          Alcotest.test_case "scaling" `Slow test_scaling_ablation;
          Alcotest.test_case "robustness" `Quick test_robustness_recovery;
          Alcotest.test_case "multiload" `Quick test_multiload_beats_back_to_back;
        ] );
      ("pinned", [ Alcotest.test_case "quick tables" `Quick test_pinned_quick ]);
      ( "registry",
        [
          Alcotest.test_case "unique ids" `Quick test_registry_ids_unique;
          Alcotest.test_case "find" `Quick test_registry_find;
        ] );
    ]
