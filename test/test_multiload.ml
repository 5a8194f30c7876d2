(* Multi-load scheduling end to end: the steady-state LP, the batch
   extension of LP(2), the capacity/periodic squeeze tying them
   together, the simulator replay, and protocol v2 (solve-multi, hello,
   typed unsupported).  Everything exact unless the simulator's floats
   are involved. *)

module Q = Numeric.Rational
module P = Service.Protocol
module SS = Dls.Steady_state
module W = Dls.Workload

let qq = Q.of_ints
let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let prop ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let rat = Alcotest.testable Q.pp (fun a b -> Q.compare a b = 0)

(* Three workers, uniform return ratio [z]: heterogeneous links and
   speeds so neither resource row is trivially tight. *)
let plat z =
  Dls.Platform.with_return_ratio ~z
    [ (Q.one, Q.of_int 2); (qq 1 2, Q.of_int 3); (Q.of_int 2, qq 3 2) ]

let regimes = [ ("z<1", qq 1 2); ("z=1", Q.one); ("z>1", Q.of_int 2) ]

let mix ?(release2 = Q.zero) () =
  W.make_exn
    [
      W.load ~size:(Q.of_int 5) ();
      W.load ~release:release2 ~size:(Q.of_int 3) ();
    ]

(* ------------------------------------------------------------------ *)
(* Steady state                                                        *)
(* ------------------------------------------------------------------ *)

let test_steady_validates () =
  List.iter
    (fun (label, z) ->
      let p = plat z in
      let w = mix () in
      let s = SS.solve_exn p w in
      (match Check.Validator.validate_steady s with
      | Ok () -> ()
      | Error vs ->
        Alcotest.failf "%s: steady violations: %s" label
          (String.concat "; "
             (List.map (Check.Validator.violation_to_string p) vs)));
      Alcotest.check rat
        (label ^ ": throughput = total/period")
        (Q.div (W.total_size w) s.SS.period)
        s.SS.throughput;
      let naive = Dls.Errors.get_exn (SS.naive_makespan p w) in
      check
        (label ^ ": period <= back-to-back")
        true
        (Q.compare s.SS.period naive <= 0))
    regimes

(* The steady period is asymptotically optimal: H copies of the mix can
   never beat H*T (capacity), and the periodic construction finishes by
   (H+2)*T — both sides exact, at every regime. *)
let test_squeeze () =
  let h = 3 in
  List.iter
    (fun (label, z) ->
      let p = plat z in
      let w = mix () in
      let s = SS.solve_exn p w in
      let b =
        Dls.Errors.get_exn (SS.solve_batch_best ~max_depth:2 p (W.repeat h w))
      in
      let lo = Q.mul (Q.of_int h) s.SS.period in
      let hi = Q.mul (Q.of_int (h + 2)) s.SS.period in
      check (label ^ ": H*T <= makespan") true (Q.compare lo b.SS.makespan <= 0);
      check
        (label ^ ": makespan <= (H+2)*T")
        true
        (Q.compare b.SS.makespan hi <= 0))
    regimes

(* A one-load batch at depth 0 is exactly the paper's LP(2): same LP,
   different route — the makespans must agree bit for bit. *)
let test_single_load_batch_is_lp2 () =
  List.iter
    (fun (label, z) ->
      let p = plat z in
      let w = W.make_exn [ W.load ~size:(Q.of_int 7) () ] in
      let induced = W.induced_platform w 0 p in
      let order = Dls.Fifo.order induced in
      let b = Dls.Errors.get_exn (SS.solve_batch ~depth:0 ~order p w) in
      let sol = Dls.Fifo.solve_order induced order in
      check_str
        (label ^ ": batch makespan = LP(2) makespan")
        (Q.to_string (Dls.Lp_model.time_for_load sol ~load:(Q.of_int 7)))
        (Q.to_string b.SS.makespan))
    regimes

(* ------------------------------------------------------------------ *)
(* Batch with releases: validation and simulator replay                *)
(* ------------------------------------------------------------------ *)

let test_batch_validates_and_replays () =
  List.iter
    (fun (label, z) ->
      let p = plat z in
      let w = mix ~release2:(qq 1 2) () in
      let b = Dls.Errors.get_exn (SS.solve_batch_best p w) in
      (match Check.Validator.validate_batch b with
      | Ok () -> ()
      | Error vs ->
        Alcotest.failf "%s: batch violations: %s" label
          (String.concat "; "
             (List.map (Check.Validator.violation_to_string p) vs)));
      (* The eager replay is componentwise minimal for the LP's port
         order, so a noise-free run lands exactly on the LP makespan. *)
      let trace = Sim.Star.execute_multi p (Sim.Star.plan_of_batch b) in
      check (label ^ ": replay trace valid") true (Sim.Trace.is_valid trace);
      let lp = Q.to_float b.SS.makespan in
      check
        (label ^ ": replay makespan = LP makespan")
        true
        (Float.abs (trace.Sim.Trace.makespan -. lp) <= 1e-9 *. Float.max 1. lp))
    regimes

(* The seeded differential matrix itself, at test size: every regime,
   zero failures.  [dls check --fuzz-multi N] scales the same matrix
   up. *)
let test_fuzz_matrix () =
  List.iter
    (fun regime ->
      match Check.Fuzz.run_multi_matrix ~count:4 regime with
      | [] -> ()
      | f :: _ ->
        Alcotest.failf "%s: case %d failed: %s"
          (Check.Fuzz.regime_to_string regime)
          f.Check.Fuzz.index
          (String.concat "; " f.Check.Fuzz.messages))
    Check.Fuzz.all_regimes

(* ------------------------------------------------------------------ *)
(* Workload spec parsing                                               *)
(* ------------------------------------------------------------------ *)

let test_workload_spec_roundtrip () =
  List.iter
    (fun spec ->
      match W.of_spec ~line:1 ~col:1 spec with
      | Error e -> Alcotest.failf "spec %S: %s" spec (Dls.Errors.to_string e)
      | Ok w -> check_str "canonical spec round-trips" spec (W.to_spec w))
    [ "5:0,3:1/2"; "1:0"; "5:0:2,3:1/2:1/4"; "7/3:1:1" ]

let test_workload_spec_errors () =
  List.iter
    (fun (spec, expect_col) ->
      match W.of_spec ~line:1 ~col:1 spec with
      | Ok _ -> Alcotest.failf "spec %S: expected a parse error" spec
      | Error (Dls.Errors.Parse_error { col; _ }) ->
        Alcotest.(check int) (Printf.sprintf "col of %S" spec) expect_col col
      | Error e -> Alcotest.failf "spec %S: %s" spec (Dls.Errors.to_string e))
    [
      ("", 1);
      ("x:0", 1);
      ("5:y", 3);
      ("5:0,3", 5);
      ("5:0:z", 5);
      ("0:0", 1);  (* sizes must be positive *)
      ("5:-1", 1);  (* releases cannot be negative; blamed on the load *)
      ("5:0,", 5);  (* stray ',' *)
      (",5:0", 1);
      ("5:0,,3:1", 5);
      ("5::1", 3);  (* stray ':' *)
      ("5:0:", 5);
      (":0", 1);
    ]

let test_workload_spec_whitespace () =
  (* Blanks around separators are trimmed (offsets still point into the
     original string), the load order is pinned left to right. *)
  List.iter
    (fun (spec, canonical) ->
      match W.of_spec ~line:1 ~col:1 spec with
      | Error e -> Alcotest.failf "spec %S: %s" spec (Dls.Errors.to_string e)
      | Ok w -> check_str (Printf.sprintf "canonical of %S" spec) canonical (W.to_spec w))
    [
      (" 5:0 ,\t3:1/2 ", "5:0,3:1/2");
      ("5:0, 3:1/2:2", "5:0,3:1/2:2");
    ];
  match W.of_spec ~line:1 ~col:1 "5:0,3:1/2" with
  | Error e -> Alcotest.failf "spec: %s" (Dls.Errors.to_string e)
  | Ok w ->
    let l0 = W.get w 0 in
    Alcotest.(check bool)
      "first load is the first part" true
      (Q.equal l0.W.size (Q.of_int 5) && Q.equal l0.W.release Q.zero)

(* ------------------------------------------------------------------ *)
(* Protocol v2                                                         *)
(* ------------------------------------------------------------------ *)

let multi_req ?depth mode =
  P.Solve_multi
    {
      u_platform = plat Q.one;
      u_workload = mix ~release2:(qq 1 2) ();
      u_mode = mode;
      u_depth = depth;
    }

let test_protocol_request_roundtrip () =
  List.iter
    (fun req ->
      let line = P.request_to_string req in
      match P.parse_request ~line:1 line with
      | Error e -> Alcotest.failf "%S: %s" line (Dls.Errors.to_string e)
      | Ok req' ->
        check_str "canonical line is a fixed point" line
          (P.request_to_string req'))
    [ multi_req P.Steady; multi_req ~depth:2 P.Batch; P.Hello ]

let test_protocol_response_roundtrip () =
  List.iter
    (fun resp ->
      let line = P.response_to_string resp in
      match P.parse_response line with
      | Error e -> Alcotest.failf "%S: %s" line (Dls.Errors.to_string e)
      | Ok resp' ->
        check_str "response round-trips" line (P.response_to_string resp'))
    [
      P.Ok_multi
        {
          mm_mode = P.Steady;
          mm_value = qq 48 5;
          mm_throughput = qq 5 6;
          mm_depth = None;
          mm_alloc = [| [| Q.one; Q.zero |]; [| qq 1 2; qq 5 2 |] |];
        };
      P.Ok_multi
        {
          mm_mode = P.Batch;
          mm_value = Q.of_int 12;
          mm_throughput = qq 2 3;
          mm_depth = Some 1;
          mm_alloc = [| [| Q.one |] |];
        };
      P.Ok_hello
        {
          server_version = P.version;
          server_min_version = P.min_version;
          server_verbs = P.verbs;
        };
      P.Unsupported { verb = "frobnicate"; server_version = P.version };
    ]

let test_unknown_verb_typed () =
  (match P.parse_request_v ~line:1 "frobnicate 1:1:1" with
  | `Unknown_verb v -> check_str "verb surfaced" "frobnicate" v
  | `Request _ | `Malformed _ ->
    Alcotest.fail "unknown verb not distinguished");
  (* ...while a known verb with a bad payload is malformed, not
     unknown. *)
  match P.parse_request_v ~line:1 "solve-multi 1:1:1 workload=x" with
  | `Malformed (Dls.Errors.Parse_error _) -> ()
  | `Malformed e -> Alcotest.failf "unexpected: %s" (Dls.Errors.to_string e)
  | `Request _ | `Unknown_verb _ -> Alcotest.fail "bad payload not rejected"

(* Garbage and mutation fuzz: the parsers must be total — typed errors,
   never exceptions — on arbitrary bytes and on corrupted canonical
   lines. *)
let gen_garbage =
  QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (0 -- 60))

let prop_parse_request_total =
  prop ~count:500 "parse_request never raises" gen_garbage (fun s ->
      (match P.parse_request ~line:1 s with Ok _ | Error _ -> ());
      (match P.parse_request_v ~line:1 s with
      | `Request _ | `Unknown_verb _ | `Malformed _ -> ());
      (match P.parse_response s with Ok _ | Error _ -> ());
      true)

let prop_solve_multi_mutations =
  let canonical = P.request_to_string (multi_req ~depth:1 P.Batch) in
  let gen =
    QCheck2.Gen.(
      let n = String.length canonical in
      pair (0 -- (n - 1)) (map Char.chr (int_range 32 126)))
  in
  prop ~count:500 "mutated solve-multi lines parse or fail cleanly" gen
    (fun (i, ch) ->
      let b = Bytes.of_string canonical in
      Bytes.set b i ch;
      let s = Bytes.to_string b in
      (match P.parse_request ~line:1 s with
      | Ok req ->
        (* Anything accepted must re-render canonically. *)
        String.length (P.request_to_string req) > 0
      | Error (Dls.Errors.Parse_error _) -> true
      | Error _ -> false)
      &&
      (* truncations too *)
      match P.parse_request ~line:1 (String.sub canonical 0 i) with
      | Ok _ | Error (Dls.Errors.Parse_error _) -> true
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Server: solve-multi, hello, version skew                            *)
(* ------------------------------------------------------------------ *)

let tmp_socket () =
  let path = Filename.temp_file "dls-multiload" ".sock" in
  Sys.remove path;
  path

let with_server f =
  let path = tmp_socket () in
  let cfg = Service.Server.default_config (Service.Server.Unix_socket path) in
  match Service.Server.start { cfg with Service.Server.jobs = 2 } with
  | Error e -> Alcotest.failf "server start: %s" (Dls.Errors.to_string e)
  | Ok server ->
    let r =
      match f server with
      | v -> v
      | exception exn ->
        Service.Server.stop server;
        raise exn
    in
    Service.Server.stop server;
    r

let test_server_solve_multi () =
  with_server (fun server ->
      let address = Service.Server.address server in
      let outcome =
        Service.Client.with_client address (fun cl ->
            (* hello: the version handshake *)
            (match Service.Client.request cl P.Hello with
            | Ok (P.Ok_hello h) ->
              Alcotest.(check int) "version" P.version h.P.server_version;
              check "min <= version" true
                (h.P.server_min_version <= h.P.server_version);
              check "solve-multi advertised" true
                (List.mem "solve-multi" h.P.server_verbs)
            | Ok other ->
              Alcotest.failf "hello: %s" (P.response_to_string other)
            | Error e -> Alcotest.failf "hello: %s" (Dls.Errors.to_string e));
            (* version skew: an unknown verb gets the typed refusal and
               the connection survives *)
            (match Service.Client.request_raw cl "solve-quantum 1:1:1" with
            | Ok (P.Unsupported { verb; server_version }) ->
              check_str "refused verb" "solve-quantum" verb;
              Alcotest.(check int) "speaks version" P.version server_version
            | Ok other ->
              Alcotest.failf "skew: %s" (P.response_to_string other)
            | Error e -> Alcotest.failf "skew: %s" (Dls.Errors.to_string e));
            (* solve-multi steady: bit-identical to the direct solve *)
            let p = plat (qq 1 2) in
            let w = mix () in
            let direct = SS.solve_exn p w in
            match
              Service.Client.request cl
                (P.Solve_multi
                   {
                     u_platform = p;
                     u_workload = w;
                     u_mode = P.Steady;
                     u_depth = None;
                   })
            with
            | Ok (P.Ok_multi r) ->
              check_str "period bit-identical"
                (Q.to_string direct.SS.period)
                (Q.to_string r.P.mm_value);
              Alcotest.(check int) "one alloc row per load" 2
                (Array.length r.P.mm_alloc)
            | Ok other ->
              Alcotest.failf "solve-multi: %s" (P.response_to_string other)
            | Error e ->
              Alcotest.failf "solve-multi: %s" (Dls.Errors.to_string e))
      in
      match outcome with
      | Ok () -> ()
      | Error e -> Alcotest.failf "client: %s" (Dls.Errors.to_string e))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "multiload"
    [
      ( "steady",
        [
          Alcotest.test_case "validates, all regimes" `Quick
            test_steady_validates;
          Alcotest.test_case "squeeze H*T <= M <= (H+2)*T" `Slow test_squeeze;
          Alcotest.test_case "single-load batch = LP(2)" `Quick
            test_single_load_batch_is_lp2;
        ] );
      ( "batch",
        [
          Alcotest.test_case "validates and replays" `Quick
            test_batch_validates_and_replays;
          Alcotest.test_case "differential fuzz matrix" `Slow test_fuzz_matrix;
        ] );
      ( "spec",
        [
          Alcotest.test_case "round-trip" `Quick test_workload_spec_roundtrip;
          Alcotest.test_case "positioned errors" `Quick
            test_workload_spec_errors;
          Alcotest.test_case "spec whitespace + order" `Quick
            test_workload_spec_whitespace;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick
            test_protocol_request_roundtrip;
          Alcotest.test_case "response round-trip" `Quick
            test_protocol_response_roundtrip;
          Alcotest.test_case "unknown verb is typed" `Quick
            test_unknown_verb_typed;
          prop_parse_request_total;
          prop_solve_multi_mutations;
        ] );
      ("server", [ Alcotest.test_case "solve-multi + hello" `Quick test_server_solve_multi ]);
    ]
