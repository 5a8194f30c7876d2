(* Golden exact answers.  [fixtures/golden_p11.txt] holds, one per line,
   a request and its reply as rendered by [Protocol.response_to_string]
   (tab-separated), for FIFO and LIFO solves and [check] on p = 11
   platforms of the paper's experiment families: the three
   heterogeneity scenarios, each plain and with communication or
   computation x10, at return ratios z = 1/2, 1 and 3/2.

   The replies were recorded once and are never regenerated to make a
   change pass: every exact answer rests on the bignum kernel, and the
   benchmark's oracle links the same kernel, so this file is what
   catches an arithmetic change that alters an answer.  The lines are
   printed by [test_golden.exe --print]. *)

module Q = Numeric.Rational
module P = Service.Protocol

let fixture = "fixtures/golden_p11.txt"

let platforms () =
  let families =
    List.concat_map
      (fun sc -> [ (sc, 1, 1); (sc, 10, 1); (sc, 1, 10) ])
      Cluster.Gen.[ Homogeneous; Hom_comm_het_comp; Heterogeneous ]
  in
  let rng = Numeric.Prng.create ~seed:2005 in
  List.concat_map
    (fun z ->
      List.mapi
        (fun i (sc, comm_times, comp_times) ->
          let f =
            Cluster.Gen.scale ~comm_times ~comp_times
              (Cluster.Gen.factors rng sc ~workers:11)
          in
          let base =
            Cluster.Gen.platform Cluster.Workload.gdsdmi ~n:(40 + (20 * i)) f
          in
          Dls.Platform.with_return_ratio ~z
            (List.init 11 (fun k ->
                 let wk = Dls.Platform.get base k in
                 (wk.Dls.Platform.c, wk.Dls.Platform.w))))
        families)
    [ Q.of_ints 1 2; Q.one; Q.of_ints 3 2 ]

let requests () =
  List.concat_map
    (fun p ->
      let solve order load =
        P.Solve
          {
            s_platform = p;
            s_order = order;
            s_model = Dls.Lp_model.One_port;
            s_fast = true;
            s_load = load;
          }
      in
      [ solve P.Fifo (Some (Q.of_int 1000)); solve P.Lifo None; P.Check p ])
    (platforms ())

let solve_reply mode (r : P.solve_req) =
  let p = r.P.s_platform in
  let scenario =
    match r.P.s_order with
    | P.Fifo -> Dls.Scenario.fifo_exn p (Dls.Fifo.order p)
    | P.Lifo -> Dls.Scenario.lifo_exn p (Dls.Lifo.order p)
  in
  let sol = Dls.Solve.solve_exn ~mode ~model:r.P.s_model scenario in
  P.Ok_solve
    {
      rho = sol.Dls.Lp_model.rho;
      sigma1 = Array.copy scenario.Dls.Scenario.sigma1;
      alpha = sol.Dls.Lp_model.alpha;
      idle = sol.Dls.Lp_model.idle;
      makespan =
        Option.map (fun load -> Dls.Lp_model.time_for_load sol ~load) r.P.s_load;
    }

let check_reply p =
  let count = function Ok () -> 0 | Error msgs -> List.length msgs in
  let violations sol =
    count (Check.Validator.errors_of_result p (Check.Validator.validate_solved sol))
    + count (Check.Certificate.check sol)
  in
  let v = violations (Dls.Fifo.optimal p) + violations (Dls.Lifo.optimal p) in
  P.Ok_check { check_ok = v = 0; violations = v }

(* Every reply a request gets, one per solve mode. *)
let replies = function
  | P.Solve r ->
    List.map
      (fun mode -> P.response_to_string (solve_reply mode r))
      [ `Exact; `Fast; `Cached ]
  | P.Check p -> [ P.response_to_string (check_reply p) ]
  | _ -> assert false

let lines () =
  List.map
    (fun r -> (P.request_to_string r, List.hd (replies r)))
    (requests ())

let read_fixture () =
  let ic = open_in_bin fixture in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> (
          match String.index_opt l '\t' with
          | Some i -> go ((String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1)) :: acc)
          | None -> Alcotest.failf "fixture line without a tab: %S" l)
        | exception End_of_file -> List.rev acc
      in
      go [])

let test_requests () =
  let got = List.map (fun r -> P.request_to_string r) (requests ()) in
  let want = List.map fst (read_fixture ()) in
  Alcotest.(check int) "request count" (List.length want) (List.length got);
  List.iteri
    (fun i (w, g) -> Alcotest.(check string) (Printf.sprintf "request %d" i) w g)
    (List.combine want got)

let test_replies () =
  List.iteri
    (fun i (req, want) ->
      match P.parse_request ~line:1 req with
      | Error e -> Alcotest.failf "request %d does not parse: %s" i (Dls.Errors.to_string e)
      | Ok r ->
        List.iter
          (fun got -> Alcotest.(check string) (Printf.sprintf "reply %d" i) want got)
          (replies r))
    (read_fixture ())

(* The structured FIFO/LIFO certificate never loses a win of the
   generic one: every float basis [certify_basis] accepts on these
   platforms is certified by the structured rung, or read as a shape it
   does not cover and handed on to [certify_basis]. *)
let test_structured_keeps_generic_wins () =
  let generic = ref 0 and structured = ref 0 in
  List.iter
    (fun p ->
      List.iter
        (fun model ->
          List.iter
            (fun s ->
              let lp = Dls.Lp_model.problem model s in
              match Simplex.Float_solver.solve lp with
              | Simplex.Float_solver.Optimal f -> (
                let basis = f.Simplex.Float_solver.basis in
                let one_port = model = Dls.Lp_model.One_port in
                match
                  ( Simplex.Solver.certify_basis lp ~basis,
                    Dls.Structured_cert.certify ~one_port s ~basis )
                with
                | None, _ -> ()
                | Some _, Dls.Structured_cert.Certified _ ->
                  incr generic;
                  incr structured
                | Some _, Dls.Structured_cert.Shape -> incr generic
                | Some _, Dls.Structured_cert.Rejected ->
                  Alcotest.failf "structured rung rejects a certified basis of %s"
                    (Dls.Platform_io.to_string p))
              | _ -> ())
            [
              Dls.Scenario.fifo_exn p (Dls.Fifo.order p);
              Dls.Scenario.lifo_exn p (Dls.Lifo.order p);
            ])
        Dls.Lp_model.[ One_port; Two_port ])
    (platforms ());
  if !structured = 0 || !generic = 0 then
    Alcotest.failf "vacuous: %d generic wins, %d structured" !generic !structured

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print" then
    List.iter (fun (req, rep) -> Printf.printf "%s\t%s\n" req rep) (lines ())
  else
    Alcotest.run "golden"
      [
        ( "p11",
          [
            Alcotest.test_case "requests" `Quick test_requests;
            Alcotest.test_case "replies, every solve mode" `Quick test_replies;
            Alcotest.test_case "structured rung keeps generic wins" `Quick
              test_structured_keeps_generic_wins;
          ] );
      ]
