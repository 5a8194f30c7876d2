(* Horizontal scale-out: the consistent-hash ring (balance, minimal
   remap, cross-process determinism via pinned hashes), the tier-2
   shared solution store and its compaction (and the boot error for a
   byte budget that cannot work), the [--journal] alias of
   [dls serve --store], the open-loop Poisson load generator, and the
   front router end to end — bit-identity through the router against
   the direct exact solve, two shards out-serving one on a sleep-bound
   stream, shard affinity, failover past a dead shard and the merged
   control plane.
   Servers and routers bind throwaway Unix sockets under the temp dir;
   everything runs in-process except the CLI check, which drives the
   real [dls] binary. *)

module Q = Numeric.Rational
module P = Service.Protocol

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let q = Q.of_string

let platform specs =
  Dls.Platform.make_exn
    (List.mapi
       (fun i (c, w, d) ->
         Dls.Platform.worker
           ~name:(Printf.sprintf "P%d" (i + 1))
           ~c:(q c) ~w:(q w) ~d:(q d) ())
       specs)

let p2 () = platform [ ("1", "1", "1/2"); ("1", "2", "1/2") ]
let p3 () = platform [ ("1/2", "1", "1/4"); ("1", "2", "1/2"); ("2", "3", "1") ]

let tmp_socket () =
  let path = Filename.temp_file "dls-scale" ".sock" in
  Sys.remove path;
  path

let tmp_file suffix = Filename.temp_file "dls-scale" suffix

let server_cfg ?(jobs = 2) ?journal_max_bytes ?store path =
  {
    (Service.Server.default_config (Service.Server.Unix_socket path)) with
    Service.Server.jobs;
    journal_max_bytes;
    store;
  }

let start_server_exn cfg =
  match Service.Server.start cfg with
  | Ok s -> s
  | Error e -> Alcotest.failf "server start: %s" (Dls.Errors.to_string e)

let start_router_exn cfg =
  match Service.Router.start cfg with
  | Ok r -> r
  | Error e -> Alcotest.failf "router start: %s" (Dls.Errors.to_string e)

(* One request over a throwaway connection; fails the test on any
   transport or protocol error. *)
let request_via address req =
  match
    Service.Client.with_client address (fun cl -> Service.Client.request cl req)
  with
  | Ok (Ok resp) -> resp
  | Ok (Error e) | Error e ->
    Alcotest.failf "request: %s" (Dls.Errors.to_string e)

let raw_via address line =
  match
    Service.Client.with_client address (fun cl ->
        Service.Client.request_raw cl line)
  with
  | Ok (Ok resp) -> resp
  | Ok (Error e) | Error e -> Alcotest.failf "raw: %s" (Dls.Errors.to_string e)

let solve_req p =
  P.Solve
    {
      P.s_platform = p;
      s_order = P.Fifo;
      s_model = Dls.Lp_model.One_port;
      s_fast = false;
      s_load = None;
    }

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)
(* ------------------------------------------------------------------ *)

let keys_1k () = Array.init 1000 (fun i -> Printf.sprintf "key-%d" i)

(* Every shard within 20% of the even share across 1000 keys, at the
   router's default point count. *)
let test_ring_balance () =
  List.iter
    (fun n_shards ->
      let names =
        Array.init n_shards (fun i -> Printf.sprintf "shard-%d" i)
      in
      let ring = Service.Ring.create ~vnodes:128 names in
      let counts = Array.make n_shards 0 in
      Array.iter
        (fun k ->
          let s = Service.Ring.lookup ring k in
          counts.(s) <- counts.(s) + 1)
        (keys_1k ());
      let mean = 1000. /. float_of_int n_shards in
      Array.iteri
        (fun i c ->
          let dev = Float.abs (float_of_int c -. mean) /. mean in
          if dev > 0.20 then
            Alcotest.failf "shard %d of %d owns %d keys (%.0f%% off even)" i
              n_shards c (100. *. dev))
        counts)
    [ 2; 3; 4; 8 ]

(* Removing a shard moves exactly the keys it owned — every other key
   keeps its shard — and the moved fraction is about 1/N. *)
let test_ring_minimal_remap () =
  let names = Array.init 4 (fun i -> Printf.sprintf "shard-%d" i) in
  let ring = Service.Ring.create ~vnodes:128 names in
  let ring' = Service.Ring.remove ring 2 in
  let moved = ref 0 in
  Array.iter
    (fun k ->
      let before = Service.Ring.lookup ring k in
      let after = Service.Ring.lookup ring' k in
      if before = 2 then begin
        incr moved;
        check ("moved key leaves removed shard: " ^ k) true (after <> 2)
      end
      else check_int ("unmoved key keeps its shard: " ^ k) before after)
    (keys_1k ());
  check "some keys moved" true (!moved > 0);
  (* 1/N = 250 of 1000; allow the arc-length slack the balance test
     allows. *)
  check "remap is minimal (<= 1/N + slack)" true (!moved <= 300);
  (* Failover order: the second entry of [route] is the owner after
     removal — retrying down the route list follows the remap. *)
  Array.iter
    (fun k ->
      if Service.Ring.lookup ring k = 2 then
        match Service.Ring.route ring k with
        | owner :: next :: _ ->
          check_int ("route head is the owner: " ^ k) 2 owner;
          check_int
            ("route successor is the post-removal owner: " ^ k)
            (Service.Ring.lookup ring' k)
            next
        | _ -> Alcotest.fail "route shorter than 2 on a 4-shard ring")
    (keys_1k ())

(* The placement must be a pure function of the byte strings: pinned
   hash constants (computed independently) and pinned lookups prove
   any process, today or later, places keys identically. *)
let test_ring_determinism () =
  let golden =
    [
      ("", 0xf52a15e9a9b5e89bL);
      ("a", 0x02c0bdbf481420f8L);
      ("solve", 0x4b65c556b6ce48deL);
      ("shard-0#0", 0xf921b31cc0d686a3L);
    ]
  in
  List.iter
    (fun (s, h) ->
      Alcotest.(check int64) (Printf.sprintf "hash %S" s) h
        (Service.Ring.hash s))
    golden;
  let ring = Service.Ring.create ~vnodes:128 [| "shard-0"; "shard-1" |] in
  let pinned = [ 0; 0; 0; 1; 0; 0; 1; 0 ] in
  List.iteri
    (fun i expect ->
      check_int
        (Printf.sprintf "pinned lookup key-%d" i)
        expect
        (Service.Ring.lookup ring (Printf.sprintf "key-%d" i)))
    pinned;
  (* Route: starts at the owner, visits every shard exactly once. *)
  let ring4 =
    Service.Ring.create ~vnodes:128
      (Array.init 4 (fun i -> Printf.sprintf "shard-%d" i))
  in
  Array.iter
    (fun k ->
      let r = Service.Ring.route ring4 k in
      check_int ("route covers the ring: " ^ k) 4 (List.length r);
      check_int ("route head is lookup: " ^ k)
        (Service.Ring.lookup ring4 k)
        (List.hd r);
      check ("route is distinct: " ^ k) true
        (List.length (List.sort_uniq compare r) = 4))
    (Array.sub (keys_1k ()) 0 50)

let test_ring_validation () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  raises (fun () -> Service.Ring.create ~vnodes:0 [| "a" |]);
  raises (fun () -> Service.Ring.create ~vnodes:8 [||]);
  let ring = Service.Ring.create ~vnodes:8 [| "a"; "b" |] in
  raises (fun () -> Service.Ring.remove ring 5);
  let solo = Service.Ring.remove ring 0 in
  (* the survivor keeps its original index *)
  check_int "survivor keeps its index" 1 (Service.Ring.lookup solo "x");
  raises (fun () -> Service.Ring.remove solo 1)

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

let open_store_exn path =
  match Service.Store.open_ path with
  | Ok s -> s
  | Error e -> Alcotest.failf "store open: %s" (Dls.Errors.to_string e)

let add_exn store ~key ~value =
  match Service.Store.add store ~key ~value with
  | Ok () -> ()
  | Error e -> Alcotest.failf "store add: %s" (Dls.Errors.to_string e)

let test_store_roundtrip () =
  let path = tmp_file ".store" in
  let s = open_store_exn path in
  add_exn s ~key:"k1" ~value:"v1";
  add_exn s ~key:"k2" ~value:"v2 with spaces";
  check "mem k1" true (Service.Store.mem s "k1");
  check_int "length" 2 (Service.Store.length s);
  check "find k1" true (Service.Store.find s "k1" = Some "v1");
  check "find k2" true (Service.Store.find s "k2" = Some "v2 with spaces");
  check "find missing" true (Service.Store.find s "nope" = None);
  (* re-adding an indexed key is a no-op, not a duplicate record *)
  let size = Service.Store.size_bytes s in
  add_exn s ~key:"k1" ~value:"other";
  check_int "no duplicate append" size (Service.Store.size_bytes s);
  let st = Service.Store.stats s in
  check_int "hits" 2 st.Service.Store.hits;
  check_int "misses" 1 st.Service.Store.misses;
  check_int "appended" 2 st.Service.Store.appended;
  Service.Store.close s;
  (* persistence across a reopen *)
  let s2 = open_store_exn path in
  check "persisted k2" true
    (Service.Store.find s2 "k2" = Some "v2 with spaces");
  Service.Store.close s2;
  Sys.remove path

(* Two handles on one file: a record added through one is visible
   through the other (the cross-shard sharing contract). *)
let test_store_cross_handle () =
  let path = tmp_file ".store" in
  let a = open_store_exn path in
  let b = open_store_exn path in
  add_exn a ~key:"from-a" ~value:"1";
  check "b sees a's append" true (Service.Store.find b "from-a" = Some "1");
  add_exn b ~key:"from-b" ~value:"2";
  check "a sees b's append" true (Service.Store.find a "from-b" = Some "2");
  (* compaction through b swaps the inode; a must follow it *)
  (match Service.Store.compact b () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "compact: %s" (Dls.Errors.to_string e));
  check "a survives b's compaction" true
    (Service.Store.find a "from-a" = Some "1");
  Service.Store.close a;
  Service.Store.close b;
  Sys.remove path

let test_store_compact () =
  let path = tmp_file ".store" in
  let s = open_store_exn path in
  for i = 1 to 5 do
    add_exn s
      ~key:(Printf.sprintf "k%d" i)
      ~value:(String.make 64 (Char.chr (Char.code '0' + i)))
  done;
  let before = Service.Store.size_bytes s in
  let live k = k = "k2" || k = "k4" in
  (match Service.Store.compact s ~live () with
  | Ok (b, a) ->
    check_int "reported before" before b;
    check "compaction shrinks" true (a < b)
  | Error e -> Alcotest.failf "compact: %s" (Dls.Errors.to_string e));
  check "kept key survives" true (Service.Store.find s "k2" <> None);
  check "dropped key is gone" true (Service.Store.find s "k1" = None);
  Service.Store.close s;
  let s2 = open_store_exn path in
  check_int "fresh handle sees only survivors" 2 (Service.Store.length s2);
  check "survivor value intact" true
    (Service.Store.find s2 "k4" = Some (String.make 64 '4'));
  Service.Store.close s2;
  Sys.remove path

(* A torn append (crash mid-write by some shard) must cost only the
   torn record. *)
let test_store_torn_tail () =
  let path = tmp_file ".store" in
  let s = open_store_exn path in
  add_exn s ~key:"good" ~value:"value";
  Service.Store.close s;
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "rec deadbeef 4 9\npar";
  close_out oc;
  let s2 = open_store_exn path in
  check "valid prefix served" true (Service.Store.find s2 "good" = Some "value");
  check_int "torn record not indexed" 1 (Service.Store.length s2);
  (* appending after the torn tail still works, and the new record is
     readable through a fresh handle *)
  add_exn s2 ~key:"after" ~value:"tear";
  Service.Store.close s2;
  let s3 = open_store_exn path in
  check "append after tear readable" true
    (Service.Store.find s3 "after" = Some "tear");
  Service.Store.close s3;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Journal compaction                                                  *)
(* ------------------------------------------------------------------ *)

(* One record exactly as the store writes it. *)
let record key value =
  Printf.sprintf "rec %08x %d %d\n%s\n%s\n"
    (Service.Store.crc32 (key ^ "\n" ^ value))
    (String.length key) (String.length value) key value

(* Compaction keeps the latest record of every live key, in the order
   of each key's last record.  The store never re-adds a key itself, so
   the superseded duplicate here stands for two shards racing on it. *)
let test_journal_compact () =
  let path = tmp_file ".journal" in
  let oc = open_out_bin path in
  List.iter
    (fun (k, v) -> output_string oc (record k v))
    [ ("k1", "old"); ("k2", "gone"); ("k3", "kept"); ("k1", "new") ];
  close_out oc;
  let s = open_store_exn path in
  check "last record wins" true (Service.Store.find s "k1" = Some "new");
  let before = Service.Store.size_bytes s in
  (match Service.Store.compact s ~live:(fun k -> k = "k1" || k = "k3") () with
  | Ok (b, a) ->
    check_int "before bytes" before b;
    check "compaction shrinks" true (a < b);
    check_int "size_bytes agrees" a (Service.Store.size_bytes s)
  | Error e -> Alcotest.failf "compact: %s" (Dls.Errors.to_string e));
  check_int "compactions counted" 1
    (Service.Store.stats s).Service.Store.compactions;
  (* the store stays appendable after the fd swap *)
  add_exn s ~key:"k4" ~value:"post";
  Service.Store.close s;
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  check_str "latest live records in last-append order, then the append"
    (record "k3" "kept" ^ record "k1" "new" ^ record "k4" "post")
    contents;
  Sys.remove path

(* End to end: a byte budget compacts the store while serving, and the
   count lands in the wire stats. *)
let test_server_journal_budget () =
  let jpath = tmp_file ".journal" in
  let server =
    start_server_exn
      (server_cfg ~store:jpath ~journal_max_bytes:128 (tmp_socket ()))
  in
  let address = Service.Server.address server in
  (* several distinct solves: every fresh response is appended, and
     each append beyond 128 bytes triggers a compaction pass *)
  List.iter
    (fun p -> ignore (request_via address (solve_req p)))
    [ p2 (); p3 () ];
  let stats = Service.Server.stats server in
  Service.Server.stop server;
  check "compactions surfaced in stats" true
    (stats.P.compactions >= 1);
  check "store survives compaction" true (Sys.file_exists jpath);
  Sys.remove jpath

(* A byte budget that cannot work is a typed boot error, not a silent
   no-op (no store to compact) or a compaction on every evaluation (a budget
   below one byte). *)
let test_budget_rejected () =
  let jpath = tmp_file ".journal" in
  List.iter
    (fun (label, store, budget) ->
      match
        Service.Server.start
          (server_cfg ?store ~journal_max_bytes:budget (tmp_socket ()))
      with
      | Error (Dls.Errors.Invalid_scenario _) -> ()
      | Error e ->
        Alcotest.failf "%s: expected an invalid-config error, got %s" label
          (Dls.Errors.to_string e)
      | Ok server ->
        Service.Server.stop server;
        Alcotest.failf "%s: server started" label)
    [
      ("budget without a store", None, 1000);
      ("zero budget", Some jpath, 0);
      ("negative budget", Some jpath, -1);
    ];
  Sys.remove jpath

(* A batch LP beyond the daemon's cap is a typed refusal, answered
   without solving.  The cap counts [4 · loads · workers + 1]
   variables: [at_cap] workers with one load fit it, one more worker
   does not.  Steady state, whose LP does not grow with the batch, is
   not capped, and neither is [dls solve-multi] (checked below). *)
let workers n = platform (List.init n (fun i -> ("1", string_of_int (i + 1), "1/2")))

let loads k =
  Dls.Workload.make_exn
    (List.init k (fun i ->
         Dls.Workload.load ~release:Q.zero ~size:(Q.of_int (100 * (i + 1))) ()))

let multi ?depth mode n k =
  P.Solve_multi
    { P.u_platform = workers n; u_workload = loads k; u_mode = mode; u_depth = depth }

let at_cap = (Service.Server.max_batch_lp_vars - 1) / 4

let test_batch_cap () =
  let server = start_server_exn (server_cfg (tmp_socket ())) in
  let address = Service.Server.address server in
  Fun.protect
    ~finally:(fun () -> Service.Server.stop server)
    (fun () ->
      List.iter
        (fun (label, req) ->
          match request_via address req with
          | P.Failed (Dls.Errors.Invalid_scenario _) -> ()
          | resp ->
            Alcotest.failf "%s: expected an invalid-scenario refusal, got %s" label
              (P.response_to_string resp))
        [
          ("one worker over the cap, one load", multi P.Batch (at_cap + 1) 1);
          ("p = 11, two loads", multi P.Batch 11 2);
          ("two workers, many loads, fixed depth", multi ~depth:0 P.Batch 2 at_cap);
        ];
      List.iter
        (fun (label, req) ->
          match request_via address req with
          | P.Ok_multi _ -> ()
          | resp ->
            Alcotest.failf "%s: expected an answer, got %s" label
              (P.response_to_string resp))
        [
          ("at the cap", multi P.Batch at_cap 1);
          ("steady state over the cap", multi P.Steady (at_cap + 1) 2);
        ])

(* ------------------------------------------------------------------ *)
(* CLI: --journal is another name for --store                          *)
(* ------------------------------------------------------------------ *)

let dls_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/dls_cli.exe"

(* Run [dls serve] with [args], send [req] once it listens, SIGTERM it,
   and return the reply plus the daemon's final stats line. *)
let serve_cli args req =
  let sock = tmp_socket () and out = tmp_file ".out" in
  let out_fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let argv =
    Array.of_list ([ dls_exe; "serve"; "--socket"; sock; "--jobs"; "1" ] @ args)
  in
  let pid = Unix.create_process dls_exe argv Unix.stdin out_fd null in
  Unix.close out_fd;
  Unix.close null;
  (* The socket file appears at bind, a moment before listen: retry. *)
  let rec ask tries =
    match
      Service.Client.with_client (Service.Server.Unix_socket sock) (fun cl ->
          Service.Client.request cl req)
    with
    | Ok (Ok resp) -> P.response_to_string resp
    | (Ok (Error _) | Error _) when tries > 0 ->
      Unix.sleepf 0.05;
      ask (tries - 1)
    | Ok (Error e) | Error e ->
      Unix.kill pid Sys.sigkill;
      Alcotest.failf "dls serve: %s" (Dls.Errors.to_string e)
  in
  let reply = ask 200 in
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  check "clean drain" true (status = Unix.WEXITED 0);
  let ic = open_in out in
  let rec last acc =
    match input_line ic with line -> last line | exception End_of_file -> acc
  in
  let final = last "" in
  close_in ic;
  Sys.remove out;
  match P.parse_response final with
  | Ok (P.Ok_stats st) -> (reply, st)
  | _ -> Alcotest.failf "no final stats line: %S" final

let test_cli_journal_alias () =
  let file = tmp_file ".journal" in
  let req = solve_req (p2 ()) in
  let first, s1 = serve_cli [ "--journal"; file ] req in
  check_int "--journal appends to the file" 1 s1.P.journal_appended;
  check_int "--journal probes it first" 1 s1.P.store_misses;
  let again, s2 = serve_cli [ "--store"; file ] req in
  check_str "--store serves what --journal wrote" first again;
  check_int "a store hit" 1 s2.P.store_hits;
  check_int "nothing re-appended" 0 s2.P.journal_appended;
  (* one option under two names: giving both is a usage error *)
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process dls_exe
      [| dls_exe; "serve"; "--socket"; tmp_socket (); "--store"; file;
         "--journal"; file |]
      Unix.stdin null null
  in
  Unix.close null;
  let _, status = Unix.waitpid [] pid in
  check "--store with --journal rejected" true (status = Unix.WEXITED 124);
  Sys.remove file

(* The CLI surfaces the boot error: a budget with no store exits
   non-zero instead of serving. *)
let test_cli_budget_without_store () =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process dls_exe
      [| dls_exe; "serve"; "--socket"; tmp_socket (); "--journal-max-bytes";
         "1000" |]
      Unix.stdin null null
  in
  Unix.close null;
  (* Bounded wait: a daemon that starts serving instead would otherwise
     hang the suite. *)
  let rec wait tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when tries > 0 ->
      Unix.sleepf 0.05;
      wait (tries - 1)
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Alcotest.fail "dls serve kept running"
    | _, status -> status
  in
  check "--journal-max-bytes without --store fails" true
    (wait 200 <> Unix.WEXITED 0)

(* ------------------------------------------------------------------ *)
(* CLI: dls chaos outlives its upstream                                *)
(* ------------------------------------------------------------------ *)

(* A [dls chaos] in front of a [dls serve] that is SIGKILLed: the next
   line on a held connection makes the proxy write to the dead upstream.
   The proxy must survive that write, relay again once the daemon is
   back on the same path (its stale socket file reclaimed), and exit 0
   on SIGTERM. *)
let test_cli_chaos_survives_upstream_kill () =
  let up = tmp_socket () and front = tmp_socket () in
  let live = ref [] in
  let spawn args =
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process dls_exe
        (Array.of_list (dls_exe :: args))
        Unix.stdin null null
    in
    Unix.close null;
    live := pid :: !live;
    pid
  in
  let reap pid =
    live := List.filter (( <> ) pid) !live;
    snd (Unix.waitpid [] pid)
  in
  let serve () = spawn [ "serve"; "--socket"; up; "--jobs"; "1" ] in
  let front_addr = Service.Server.Unix_socket front in
  let req = solve_req (p2 ()) in
  (* Retry while the proxy or the daemon behind it comes up. *)
  let rec ask tries =
    match
      Service.Client.with_client front_addr (fun cl ->
          Service.Client.request cl req)
    with
    | Ok (Ok resp) -> P.response_to_string resp
    | (Ok (Error _) | Error _) when tries > 0 ->
      Unix.sleepf 0.05;
      ask (tries - 1)
    | Ok (Error e) | Error e ->
      Alcotest.failf "through the proxy: %s" (Dls.Errors.to_string e)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid))
        !live)
    (fun () ->
      let daemon = serve () in
      let proxy =
        spawn
          [ "chaos"; "--listen-socket"; front; "--upstream-socket"; up;
            "--severity"; "0" ]
      in
      let first = ask 100 in
      let held =
        match Service.Client.connect front_addr with
        | Ok cl -> cl
        | Error e -> Alcotest.failf "connect: %s" (Dls.Errors.to_string e)
      in
      check "held connection answers" true
        (Result.is_ok (Service.Client.request held req));
      Unix.kill daemon Sys.sigkill;
      ignore (reap daemon);
      check "held connection fails with the upstream" true
        (Result.is_error (Service.Client.request held req));
      Service.Client.close held;
      let daemon = serve () in
      check_str "the proxy answers after the upstream restarts" first (ask 100);
      Unix.kill proxy Sys.sigterm;
      check "the proxy exits 0 on SIGTERM" true (reap proxy = Unix.WEXITED 0);
      Unix.kill daemon Sys.sigterm;
      check "the daemon drains" true (reap daemon = Unix.WEXITED 0))

(* [dls loadgen --rps] against a daemon: the open-loop CLI path answers
   every request, exits 0 and writes the offered rate and the worst
   scheduling lag to its JSON. *)
let test_cli_loadgen_open_loop () =
  let sock = tmp_socket () and json = tmp_file ".json" in
  let server = start_server_exn (server_cfg sock) in
  let status =
    Fun.protect
      ~finally:(fun () -> Service.Server.stop server)
      (fun () ->
        let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        let pid =
          Unix.create_process dls_exe
            [| dls_exe; "loadgen"; "--socket"; sock; "--requests"; "80";
               "--rps"; "400"; "--connections"; "2"; "--json"; json |]
            Unix.stdin null null
        in
        Unix.close null;
        snd (Unix.waitpid [] pid))
  in
  check "dls loadgen --rps exits 0" true (status = Unix.WEXITED 0);
  let ic = open_in json in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove json;
  let lines = List.map String.trim (String.split_on_char '\n' text) in
  (* one ["key": number,] per line *)
  let field key =
    let prefix = Printf.sprintf "\"%s\": " key in
    match List.find_opt (String.starts_with ~prefix) lines with
    | Some l ->
      let n = String.length prefix in
      let v = String.sub l n (String.length l - n) in
      float_of_string (List.hd (String.split_on_char ',' v))
    | None -> Alcotest.failf "loadgen JSON has no %S:\n%s" key text
  in
  check "failed is 0" true (field "failed" = 0.);
  check "offered_rps > 0" true (field "offered_rps" > 0.);
  check "max_lag_ms >= 0" true (field "max_lag_ms" >= 0.)

(* A rate that is not positive is a usage error before any request is
   sent: [--rps] refuses it as [Loadgen.run ~rps] does, instead of
   running the closed loop. *)
let test_cli_loadgen_bad_rate () =
  List.iter
    (fun rate ->
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let pid =
        Unix.create_process dls_exe
          [| dls_exe; "loadgen"; "--socket"; tmp_socket (); "--requests"; "5";
             "--rps=" ^ rate |]
          Unix.stdin null null
      in
      Unix.close null;
      let status = snd (Unix.waitpid [] pid) in
      check
        (Printf.sprintf "dls loadgen --rps=%s is a usage error" rate)
        true
        (status = Unix.WEXITED Cmdliner.Cmd.Exit.cli_error))
    [ "-5"; "0"; "nan" ]

(* The CLI's solve-multi solves a batch the daemon refuses. *)
let test_cli_batch_uncapped () =
  let spec =
    String.concat "," (List.init (at_cap + 1) (fun i -> Printf.sprintf "1:%d:1/2" (i + 1)))
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process dls_exe
      [| dls_exe; "solve-multi"; "-p"; spec; "-w"; "100:0"; "--batch" |]
      Unix.stdin null null
  in
  Unix.close null;
  check "dls solve-multi --batch over the daemon's cap exits 0" true
    (snd (Unix.waitpid [] pid) = Unix.WEXITED 0)

(* ------------------------------------------------------------------ *)
(* Server + tier-2 store                                               *)
(* ------------------------------------------------------------------ *)

(* A solution computed by one daemon is an admission-time answer for a
   different daemon sharing the store — across a restart, with a cold
   tier-1. *)
let test_server_store_tier2 () =
  let spath = tmp_file ".store" in
  Dls.Lp_model.reset_cache ();
  let a = start_server_exn (server_cfg ~store:spath (tmp_socket ())) in
  let req = solve_req (p2 ()) in
  let first = P.response_to_string (request_via (Service.Server.address a) req) in
  let sa = Service.Server.stats a in
  Service.Server.stop a;
  check_int "fresh solve missed the store" 1 sa.P.store_misses;
  check_int "no store hit on first sight" 0 sa.P.store_hits;
  (* a different daemon, empty tier-1, same store *)
  Dls.Lp_model.reset_cache ();
  let b = start_server_exn (server_cfg ~store:spath (tmp_socket ())) in
  let again = P.response_to_string (request_via (Service.Server.address b) req) in
  check_str "tier-2 answer bit-identical" first again;
  (* the hit was promoted to tier 1: a repeat is a warm hit *)
  let third = P.response_to_string (request_via (Service.Server.address b) req) in
  check_str "tier-1 promoted answer bit-identical" first third;
  let sb = Service.Server.stats b in
  Service.Server.stop b;
  check_int "restarted shard hit the store" 1 sb.P.store_hits;
  check "promotion made the repeat a warm hit" true (sb.P.warm_hits >= 1);
  Sys.remove spath

(* ------------------------------------------------------------------ *)
(* Open-loop load generator                                            *)
(* ------------------------------------------------------------------ *)

let test_arrivals () =
  let a = Service.Loadgen.arrivals ~seed:7 ~rps:100. 500 in
  let b = Service.Loadgen.arrivals ~seed:7 ~rps:100. 500 in
  check "deterministic" true (a = b);
  let c = Service.Loadgen.arrivals ~seed:8 ~rps:100. 500 in
  check "seed matters" true (a <> c);
  check_int "length" 500 (Array.length a);
  Array.iteri
    (fun i t ->
      check ("positive arrival " ^ string_of_int i) true (t > 0.);
      if i > 0 then
        check ("monotone " ^ string_of_int i) true (t >= a.(i - 1)))
    a;
  (* realised rate of the draw is within a factor of the target *)
  let offered = 500. /. a.(499) in
  check "offered near target" true (offered > 50. && offered < 200.);
  (* a prefix of the schedule is the schedule of a shorter run: the
     per-request gaps depend only on (seed, i) *)
  let short = Service.Loadgen.arrivals ~seed:7 ~rps:100. 100 in
  check "prefix property" true (short = Array.sub a 0 100);
  match Service.Loadgen.arrivals ~seed:1 ~rps:0. 10 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rps = 0 must be rejected"

(* The request multiset and the schedule are invariant under the
   connection count — only the interleaving changes. *)
let test_open_loop_invariance () =
  let server = start_server_exn (server_cfg (tmp_socket ())) in
  let address = Service.Server.address server in
  let run connections =
    match
      Service.Loadgen.run ~rps:600. address ~connections ~requests:60 ~seed:5
        ~distinct:4 ()
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "open-loop run: %s" (Dls.Errors.to_string e)
  in
  let one = run 1 in
  let four = run 4 in
  Service.Server.stop server;
  check_int "ok invariant" one.Service.Loadgen.ok four.Service.Loadgen.ok;
  check_int "everything answered" 60 one.Service.Loadgen.ok;
  check "offered rate is schedule-determined" true
    (one.Service.Loadgen.offered_rps = four.Service.Loadgen.offered_rps);
  check "lag is measured" true (four.Service.Loadgen.max_lag_ms >= 0.)

let test_open_loop_accounting () =
  let server = start_server_exn (server_cfg (tmp_socket ())) in
  let address = Service.Server.address server in
  let o =
    match
      Service.Loadgen.run ~rps:400. address ~connections:2 ~requests:80
        ~seed:11 ~distinct:5 ()
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "open-loop run: %s" (Dls.Errors.to_string e)
  in
  Service.Server.stop server;
  check "offered is one Poisson draw of the target" true
    (o.Service.Loadgen.offered_rps > 200.
    && o.Service.Loadgen.offered_rps < 800.);
  check_int "sent" 80 o.Service.Loadgen.sent;
  check_int "ok" 80 o.Service.Loadgen.ok;
  (* an open loop cannot finish before its own schedule *)
  check "wall at least the schedule span" true
    (o.Service.Loadgen.wall_s >= 80. /. o.Service.Loadgen.offered_rps -. 0.5)

(* ------------------------------------------------------------------ *)
(* Router                                                              *)
(* ------------------------------------------------------------------ *)

let with_fleet ?(shards = 2) f =
  let servers =
    List.init shards (fun _ -> start_server_exn (server_cfg (tmp_socket ())))
  in
  let cfg =
    Service.Router.default_config
      (Service.Server.Unix_socket (tmp_socket ()))
      ~shard_addresses:(List.map Service.Server.address servers)
  in
  let router = start_router_exn cfg in
  Fun.protect
    ~finally:(fun () ->
      Service.Router.stop router;
      List.iter Service.Server.stop servers)
    (fun () -> f router servers)

(* The direct exact answer a served [solve] must reproduce. *)
let direct_exact (r : P.solve_req) =
  let p = r.P.s_platform in
  let scenario =
    match r.P.s_order with
    | P.Fifo -> Dls.Scenario.fifo_exn p (Dls.Fifo.order p)
    | P.Lifo -> Dls.Scenario.lifo_exn p (Dls.Lifo.order p)
  in
  Dls.Solve.solve_exn ~mode:`Exact ~model:r.P.s_model scenario

let check_q_array label expected got =
  check_int (label ^ " length") (Array.length expected) (Array.length got);
  Array.iteri
    (fun i e ->
      check_str
        (Printf.sprintf "%s.(%d)" label i)
        (Q.to_string e) (Q.to_string got.(i)))
    expected

(* Every distinct [solve] among the first [8 * distinct] requests of the
   seeded load-generator stream. *)
let stream_solves ~seed ~distinct =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun i ->
      match Service.Loadgen.request ~seed ~distinct i with
      | P.Solve r as req ->
        let key = P.request_key req in
        if Hashtbl.mem seen key then None
        else begin
          Hashtbl.add seen key ();
          Some r
        end
      | _ -> None)
    (List.init (8 * distinct) Fun.id)

(* Responses through the router are byte-identical to a plain daemon's,
   and every solve of the seeded stream comes back with the direct
   exact rho, alpha and idle. *)
let test_router_bit_identity () =
  let reference = start_server_exn (server_cfg (tmp_socket ())) in
  Fun.protect
    ~finally:(fun () -> Service.Server.stop reference)
    (fun () ->
      with_fleet (fun router _ ->
          List.iter
            (fun p ->
              let req = solve_req p in
              let direct =
                P.response_to_string
                  (request_via (Service.Server.address reference) req)
              in
              let routed =
                P.response_to_string
                  (request_via (Service.Router.address router) req)
              in
              check_str "routed = direct" direct routed)
            [ p2 (); p3 () ];
          let solves = stream_solves ~seed:2026 ~distinct:6 in
          check "stream carries solves" true (solves <> []);
          List.iteri
            (fun n r ->
              let label = Printf.sprintf "stream solve %d" n in
              let direct = direct_exact r in
              match request_via (Service.Router.address router) (P.Solve r) with
              | P.Ok_solve s ->
                check_str (label ^ " rho")
                  (Q.to_string direct.Dls.Lp_model.rho)
                  (Q.to_string s.P.rho);
                check_q_array (label ^ " alpha") direct.Dls.Lp_model.alpha
                  s.P.alpha;
                check_q_array (label ^ " idle") direct.Dls.Lp_model.idle
                  s.P.idle
              | other ->
                Alcotest.failf "%s: expected ok solve, got %s" label
                  (P.response_to_string other))
            solves))

(* Sharding doubles capacity when evaluation is the bottleneck.  Each
   daemon has one worker and a 20 ms [worker_delay] per evaluation, and
   the stream's keys are pairwise distinct, so neither single-flight
   collapse nor a cache can shorten the work: one daemon serialises
   every request, two shards split them.  The expected wall-time ratio
   is about 1/2; the test asks only for routed < single. *)
let test_router_beats_single () =
  let requests = 40 and seed = 2026 and distinct = 100_000 in
  let keys =
    List.init requests (fun i ->
        P.request_key (Service.Loadgen.request ~seed ~distinct i))
  in
  check_int "stream keys pairwise distinct" requests
    (List.length (List.sort_uniq compare keys));
  let sleepy () =
    { (server_cfg ~jobs:1 (tmp_socket ())) with
      Service.Server.worker_delay = 0.02 }
  in
  let drive address =
    match
      Service.Loadgen.run address ~connections:8 ~requests ~seed ~distinct ()
    with
    | Ok o ->
      check_int "every request ok" requests o.Service.Loadgen.ok;
      o.Service.Loadgen.wall_s
    | Error e -> Alcotest.failf "loadgen: %s" (Dls.Errors.to_string e)
  in
  Dls.Lp_model.reset_cache ();
  let single = start_server_exn (sleepy ()) in
  let single_s =
    Fun.protect
      ~finally:(fun () -> Service.Server.stop single)
      (fun () -> drive (Service.Server.address single))
  in
  Dls.Lp_model.reset_cache ();
  let shards = List.init 2 (fun _ -> start_server_exn (sleepy ())) in
  let router =
    start_router_exn
      {
        (Service.Router.default_config
           (Service.Server.Unix_socket (tmp_socket ()))
           ~shard_addresses:(List.map Service.Server.address shards))
        with
        Service.Router.attempt_timeout = None;
      }
  in
  let routed_s, routed =
    Fun.protect
      ~finally:(fun () ->
        Service.Router.stop router;
        List.iter Service.Server.stop shards)
      (fun () ->
        let wall = drive (Service.Router.address router) in
        (wall, (Service.Router.stats router).Service.Router.r_routed))
  in
  Printf.printf "single %.3fs, routed %.3fs, split [%s]\n" single_s routed_s
    (String.concat "; " (Array.to_list (Array.map string_of_int routed)));
  Array.iteri
    (fun i n -> check (Printf.sprintf "shard %d routed some" i) true (n > 0))
    routed;
  check_int "shards split the stream" requests
    (Array.fold_left ( + ) 0 routed);
  if not (routed_s < single_s) then
    Alcotest.failf "router over two shards %.3fs >= single daemon %.3fs"
      routed_s single_s

(* Equal requests land on one shard, and that shard is the ring
   owner. *)
let test_router_affinity () =
  with_fleet (fun router servers ->
      let req = solve_req (p2 ()) in
      let owner = Service.Router.shard_of_key router (P.request_key req) in
      for _ = 1 to 3 do
        ignore (request_via (Service.Router.address router) req)
      done;
      let s = Service.Router.stats router in
      check_int "all three on the owner" 3
        s.Service.Router.r_routed.(owner);
      check_int "nothing elsewhere" 3
        (Array.fold_left ( + ) 0 s.Service.Router.r_routed);
      check_int "no failovers" 0 s.Service.Router.r_failovers;
      (* the owning daemon collapsed the repeats into its cache *)
      let owner_stats = Service.Server.stats (List.nth servers owner) in
      check_int "owner served every copy" 3 owner_stats.P.served)

(* Killing the owning shard must degrade capacity, not availability:
   the request fails over to the ring successor and still answers
   bit-identically. *)
let test_router_failover () =
  with_fleet (fun router servers ->
      let req = solve_req (p3 ()) in
      let expected =
        P.response_to_string (request_via (Service.Router.address router) req)
      in
      let owner = Service.Router.shard_of_key router (P.request_key req) in
      Service.Server.stop (List.nth servers owner);
      let after =
        P.response_to_string (request_via (Service.Router.address router) req)
      in
      check_str "failover answer bit-identical" expected after;
      let s = Service.Router.stats router in
      check "failover counted" true (s.Service.Router.r_failovers >= 1);
      check_int "nothing unavailable" 0 s.Service.Router.r_unavailable)

(* The control plane speaks for the whole fleet: stats fan out and
   merge, hello is answered locally, malformed lines never reach a
   shard. *)
let test_router_control_plane () =
  with_fleet (fun router servers ->
      ignore (request_via (Service.Router.address router) (solve_req (p2 ())));
      ignore (request_via (Service.Router.address router) (solve_req (p3 ())));
      let merged =
        match request_via (Service.Router.address router) P.Stats with
        | P.Ok_stats s -> s
        | other ->
          Alcotest.failf "expected stats, got %s" (P.response_to_string other)
      in
      let direct_sum =
        List.fold_left
          (fun acc srv -> acc + (Service.Server.stats srv).P.served)
          0 servers
      in
      check_int "merged served = sum over shards" direct_sum merged.P.served;
      (match request_via (Service.Router.address router) P.Health with
      | P.Ok_health h -> check "fleet healthy" true h.P.healthy
      | other ->
        Alcotest.failf "expected health, got %s" (P.response_to_string other));
      (match raw_via (Service.Router.address router) "hello" with
      | P.Ok_hello _ -> ()
      | other ->
        Alcotest.failf "expected hello, got %s" (P.response_to_string other));
      (match raw_via (Service.Router.address router) "no-such-verb x" with
      | P.Unsupported _ -> ()
      | other ->
        Alcotest.failf "expected unsupported, got %s"
          (P.response_to_string other));
      (match raw_via (Service.Router.address router) "solve garbage" with
      | P.Failed _ -> ()
      | other ->
        Alcotest.failf "expected failure, got %s"
          (P.response_to_string other));
      let s = Service.Router.stats router in
      check "hello/malformed answered locally" true
        (s.Service.Router.r_local >= 2);
      check "fanouts counted" true (s.Service.Router.r_fanouts >= 2))

(* ------------------------------------------------------------------ *)
(* Wire format: JSON stats, merge, back compatibility                  *)
(* ------------------------------------------------------------------ *)

let sample_stats () =
  {
    P.accepted = 10;
    served = 7;
    rejected = 2;
    timed_out = 1;
    failed = 2;
    malformed = 1;
    batches = 4;
    max_batch = 5;
    collapsed = 3;
    cache_hits = 6;
    cache_misses = 4;
    repair_probes = 3;
    repair_wins = 2;
    repair_pivots = 5;
    shed = 2;
    brownouts = 1;
    hangups = 3;
    warm_hits = 5;
    journal_appended = 9;
    store_hits = 6;
    store_misses = 3;
    store_demoted = 2;
    compactions = 1;
    queue_depth = 0;
    inflight = 0;
    p50_us = 256;
    p90_us = 1024;
    p99_us = 2048;
    max_us = 1843;
    uptime_s = 12.5;
  }

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || go (i + 1)
  in
  go 0

(* The JSON rendering carries exactly the line format's fields. *)
let test_stats_json () =
  let json = P.stats_to_json (sample_stats ()) in
  List.iter
    (fun fragment -> check ("json has " ^ fragment) true (contains json fragment))
    [
      "\"served\":7";
      "\"store_hits\":6";
      "\"store_misses\":3";
      "\"store_demoted\":2";
      "\"compactions\":1";
      "\"p99_us\":2048";
      "\"uptime_s\":12.5";
    ]

let test_merge_stats () =
  let a = sample_stats () in
  let b = { a with P.served = 100; p99_us = 9999; uptime_s = 3.; max_batch = 2 } in
  let m = P.merge_stats a [ b ] in
  check_int "served sums" 107 m.P.served;
  check_int "accepted sums" 20 m.P.accepted;
  check_int "store_hits sums" 12 m.P.store_hits;
  check_int "compactions sums" 2 m.P.compactions;
  check_int "p99 is the worst" 9999 m.P.p99_us;
  check_int "max_batch is the max" 5 m.P.max_batch;
  check "uptime is the eldest" true (m.P.uptime_s = 12.5);
  (* merging nothing is the identity *)
  check "identity" true (P.merge_stats a [] = a)

(* A PR-9-era stats line (no store/compaction fields) must still
   parse, with the new counters defaulting to zero. *)
let test_stats_backcompat () =
  let rendered = P.response_to_string (P.Ok_stats (sample_stats ())) in
  (match P.parse_response rendered with
  | Ok (P.Ok_stats s) -> check "round trip" true (s = sample_stats ())
  | Ok other ->
    Alcotest.failf "expected stats, got %s" (P.response_to_string other)
  | Error e -> Alcotest.failf "parse: %s" (Dls.Errors.to_string e));
  let old_line =
    "ok stats accepted=10 served=7 rejected=2 timed_out=1 failed=2 \
     malformed=1 batches=4 max_batch=5 collapsed=3 cache_hits=6 \
     cache_misses=4 queue_depth=0 inflight=0 p50_us=256 p90_us=1024 \
     p99_us=2048 max_us=1843 uptime_s=12.5"
  in
  match P.parse_response old_line with
  | Ok (P.Ok_stats s) ->
    check_int "store_hits defaults to 0" 0 s.P.store_hits;
    check_int "store_misses defaults to 0" 0 s.P.store_misses;
    check_int "store_demoted defaults to 0" 0 s.P.store_demoted;
    check_int "compactions defaults to 0" 0 s.P.compactions
  | Ok other ->
    Alcotest.failf "expected stats, got %s" (P.response_to_string other)
  | Error e -> Alcotest.failf "parse: %s" (Dls.Errors.to_string e)

(* The wire renderings pinned byte for byte: field names, order and
   number formatting are a contract with operators and perfbench. *)
let sample_line =
  "ok stats accepted=10 served=7 rejected=2 timed_out=1 failed=2 \
   malformed=1 batches=4 max_batch=5 collapsed=3 cache_hits=6 \
   cache_misses=4 repair_probes=3 repair_wins=2 repair_pivots=5 \
   shed=2 brownouts=1 hangups=3 warm_hits=5 journal_appended=9 store_hits=6 store_misses=3 store_demoted=2 \
   compactions=1 queue_depth=0 inflight=0 p50_us=256 p90_us=1024 \
   p99_us=2048 max_us=1843 uptime_s=12.5"

let test_stats_bytes () =
  check_str "ok stats line" sample_line
    (P.response_to_string (P.Ok_stats (sample_stats ())));
  check_str "stats JSON"
    "{\"accepted\":10,\"served\":7,\"rejected\":2,\"timed_out\":1,\
     \"failed\":2,\"malformed\":1,\"batches\":4,\"max_batch\":5,\
     \"collapsed\":3,\"cache_hits\":6,\"cache_misses\":4,\
     \"repair_probes\":3,\"repair_wins\":2,\"repair_pivots\":5,\
     \"shed\":2,\"brownouts\":1,\"hangups\":3,\"warm_hits\":5,\"journal_appended\":9,\
     \"store_hits\":6,\"store_misses\":3,\"store_demoted\":2,\
     \"compactions\":1,\"queue_depth\":0,\"inflight\":0,\"p50_us\":256,\
     \"p90_us\":1024,\"p99_us\":2048,\"max_us\":1843,\"uptime_s\":12.5}"
    (P.stats_to_json (sample_stats ()))

let gen_stats_of n =
  let open QCheck2.Gen in
  let* a = array_size (return 29) n in
  let* uptime_s = float_bound_inclusive 1e9 in
  return
    {
      P.accepted = a.(0);
      served = a.(1);
      rejected = a.(2);
      timed_out = a.(3);
      failed = a.(4);
      malformed = a.(5);
      batches = a.(6);
      max_batch = a.(7);
      collapsed = a.(8);
      cache_hits = a.(9);
      cache_misses = a.(10);
      repair_probes = a.(11);
      repair_wins = a.(12);
      repair_pivots = a.(13);
      shed = a.(14);
      brownouts = a.(15);
      hangups = a.(16);
      warm_hits = a.(17);
      journal_appended = a.(18);
      store_hits = a.(19);
      store_misses = a.(20);
      store_demoted = a.(21);
      compactions = a.(22);
      queue_depth = a.(23);
      inflight = a.(24);
      p50_us = a.(25);
      p90_us = a.(26);
      p99_us = a.(27);
      max_us = a.(28);
      uptime_s;
    }

let gen_stats = QCheck2.Gen.(gen_stats_of (oneof [ small_nat; int ]))
let print_stats s = P.response_to_string (P.Ok_stats s)

(* [(key, value)] pairs of the [ok stats ...] line, in order. *)
let line_pairs line =
  match String.split_on_char ' ' line with
  | "ok" :: "stats" :: kvs ->
    List.map
      (fun kv ->
        match String.index_opt kv '=' with
        | Some i ->
          (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
        | None -> Alcotest.failf "not key=value: %S" kv)
      kvs
  | _ -> Alcotest.failf "not a stats line: %S" line

(* [(key, value)] pairs of the flat JSON object, in order; values are
   bare numbers, so splitting on commas is exact. *)
let json_pairs json =
  let n = String.length json in
  if n < 2 || json.[0] <> '{' || json.[n - 1] <> '}' then
    Alcotest.failf "not one JSON object: %S" json;
  List.map
    (fun kv ->
      match String.index_opt kv ':' with
      | Some i when i >= 2 && kv.[0] = '"' && kv.[i - 1] = '"' ->
        (String.sub kv 1 (i - 2), String.sub kv (i + 1) (String.length kv - i - 1))
      | _ -> Alcotest.failf "not \"key\":value: %S" kv)
    (String.split_on_char ',' (String.sub json 1 (n - 2)))

let stats_field_count = 30

let prop_stats_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"qcheck stats round trip"
       ~print:print_stats gen_stats (fun s ->
         let line = print_stats s in
         let line_keys = List.map fst (line_pairs line) in
         let json_keys = List.map fst (json_pairs (P.stats_to_json s)) in
         if List.length line_keys <> stats_field_count then
           QCheck2.Test.fail_reportf "%d keys on the line"
             (List.length line_keys)
         else if json_keys <> line_keys then
           QCheck2.Test.fail_reportf "JSON keys %s differ from line keys"
             (String.concat "," json_keys)
         else
           match P.parse_response line with
           | Ok (P.Ok_stats s') -> s' = s
           | Ok other ->
             QCheck2.Test.fail_reportf "parsed as %s" (P.response_to_string other)
           | Error e -> QCheck2.Test.fail_report (Dls.Errors.to_string e)))

(* Every field's merge rule, read off the JSON of the inputs and of
   the merge: the evaluation/latency maxima and the uptime take the
   maximum, every other field adds up. *)
let max_keys = [ "max_batch"; "p50_us"; "p90_us"; "p99_us"; "max_us"; "uptime_s" ]

let prop_merge_rules =
  (* small enough that the sums cannot overflow *)
  let shard = gen_stats_of (QCheck2.Gen.int_range 0 1_000_000) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"qcheck merge rule per field"
       ~print:(fun l -> String.concat "\n" (List.map print_stats l))
       QCheck2.Gen.(list_size (int_range 1 4) shard)
       (fun shards ->
         let merged = P.merge_stats (List.hd shards) (List.tl shards) in
         let inputs = List.map (fun s -> json_pairs (P.stats_to_json s)) shards in
         let out = json_pairs (P.stats_to_json merged) in
         List.length out = stats_field_count
         && List.for_all
              (fun (k, v) ->
                let vs = List.map (List.assoc k) inputs in
                if k = "uptime_s" then
                  float_of_string v
                  = List.fold_left Float.max neg_infinity
                      (List.map float_of_string vs)
                else
                  let vs = List.map int_of_string vs in
                  int_of_string v
                  = (if List.mem k max_keys then List.fold_left max min_int vs
                     else List.fold_left ( + ) 0 vs))
              out))

let required_keys =
  [
    "accepted"; "served"; "rejected"; "timed_out"; "failed"; "malformed";
    "batches"; "max_batch"; "collapsed"; "cache_hits"; "cache_misses";
    "queue_depth"; "inflight"; "p50_us"; "p90_us"; "p99_us"; "max_us";
    "uptime_s";
  ]

let without key =
  "ok stats "
  ^ String.concat " "
      (List.filter_map
         (fun (k, v) -> if k = key then None else Some (k ^ "=" ^ v))
         (line_pairs sample_line))

(* The oldest lines carry only the 18 required fields: every optional
   counter defaults to 0. *)
let test_stats_required_only () =
  let line =
    "ok stats "
    ^ String.concat " "
        (List.filter_map
           (fun (k, v) -> if List.mem k required_keys then Some (k ^ "=" ^ v) else None)
           (line_pairs sample_line))
  in
  let s = sample_stats () in
  let expected =
    {
      s with
      P.repair_probes = 0;
      repair_wins = 0;
      repair_pivots = 0;
      shed = 0;
      brownouts = 0;
      hangups = 0;
      warm_hits = 0;
      journal_appended = 0;
      store_hits = 0;
      store_misses = 0;
      store_demoted = 0;
      compactions = 0;
    }
  in
  (match P.parse_response line with
  | Ok (P.Ok_stats got) ->
    check_str "required-only line" (print_stats expected) (print_stats got)
  | Ok other -> Alcotest.failf "expected stats, got %s" (P.response_to_string other)
  | Error e -> Alcotest.failf "parse: %s" (Dls.Errors.to_string e));
  (* dropping one optional field alone takes the same default *)
  List.iter
    (fun (k, _) ->
      if not (List.mem k required_keys) then
        match P.parse_response (without k) with
        | Ok (P.Ok_stats got) ->
          check_str ("default for " ^ k)
            (List.assoc k (json_pairs (P.stats_to_json expected)))
            (List.assoc k (json_pairs (P.stats_to_json got)))
        | _ -> Alcotest.failf "line without %s did not parse" k)
    (line_pairs sample_line)

let test_stats_required_missing () =
  List.iter
    (fun k ->
      match P.parse_response (without k) with
      | Error (Dls.Errors.Parse_error { msg; _ }) ->
        check ("error names " ^ k) true (contains msg (Printf.sprintf "%S" k))
      | Error e -> Alcotest.failf "untyped error without %s: %s" k (Dls.Errors.to_string e)
      | Ok r -> Alcotest.failf "line without %s parsed: %s" k (P.response_to_string r))
    required_keys

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "scale"
    [
      ( "ring",
        [
          Alcotest.test_case "balance within 20% over 1k keys" `Quick
            test_ring_balance;
          Alcotest.test_case "minimal remap on shard removal" `Quick
            test_ring_minimal_remap;
          Alcotest.test_case "pinned hashes and lookups" `Quick
            test_ring_determinism;
          Alcotest.test_case "argument validation" `Quick test_ring_validation;
        ] );
      ( "store",
        [
          Alcotest.test_case "round trip + persistence" `Quick
            test_store_roundtrip;
          Alcotest.test_case "cross-handle visibility" `Quick
            test_store_cross_handle;
          Alcotest.test_case "compaction" `Quick test_store_compact;
          Alcotest.test_case "torn tail tolerated" `Quick test_store_torn_tail;
        ] );
      ( "journal",
        [
          Alcotest.test_case "compact keeps latest live records" `Quick
            test_journal_compact;
          Alcotest.test_case "server compacts on byte budget" `Quick
            test_server_journal_budget;
          Alcotest.test_case "cli --journal names the store" `Quick
            test_cli_journal_alias;
          Alcotest.test_case "unworkable byte budget rejected" `Quick
            test_budget_rejected;
          Alcotest.test_case "cli budget without --store exits non-zero"
            `Quick test_cli_budget_without_store;
          Alcotest.test_case "oversized batch LP refused" `Quick test_batch_cap;
          Alcotest.test_case "cli solve-multi batch uncapped" `Quick
            test_cli_batch_uncapped;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "cli proxy survives an upstream kill" `Quick
            test_cli_chaos_survives_upstream_kill;
        ] );
      ( "tiering",
        [
          Alcotest.test_case "store carries answers across restart" `Quick
            test_server_store_tier2;
        ] );
      ( "openloop",
        [
          Alcotest.test_case "arrival schedule" `Quick test_arrivals;
          Alcotest.test_case "invariant under connection count" `Quick
            test_open_loop_invariance;
          Alcotest.test_case "offered vs achieved accounting" `Quick
            test_open_loop_accounting;
          Alcotest.test_case "cli --rps run" `Quick test_cli_loadgen_open_loop;
          Alcotest.test_case "cli --rps refuses a bad rate" `Quick test_cli_loadgen_bad_rate;
        ] );
      ( "router",
        [
          Alcotest.test_case "bit-identity through the router" `Quick
            test_router_bit_identity;
          Alcotest.test_case "shard affinity" `Quick test_router_affinity;
          Alcotest.test_case "two shards beat one on a sleep-bound stream"
            `Quick test_router_beats_single;
          Alcotest.test_case "failover past a dead shard" `Quick
            test_router_failover;
          Alcotest.test_case "merged control plane" `Quick
            test_router_control_plane;
        ] );
      ( "wire",
        [
          Alcotest.test_case "stats as JSON" `Quick test_stats_json;
          Alcotest.test_case "merge across shards" `Quick test_merge_stats;
          Alcotest.test_case "old stats lines still parse" `Quick
            test_stats_backcompat;
          Alcotest.test_case "stats line and JSON byte for byte" `Quick
            test_stats_bytes;
          prop_stats_roundtrip;
          prop_merge_rules;
          Alcotest.test_case "required-only stats line defaults" `Quick
            test_stats_required_only;
          Alcotest.test_case "missing required stats field" `Quick
            test_stats_required_missing;
        ] );
    ]
