(* The service under test runs as child processes of the built [dls]
   binary, never in the driver's process, so it shares neither a GC nor
   a runtime lock with the load driver.  Every child is stopped and
   reaped before the driver exits. *)

type t = { pid : int; label : string }

let live : t list ref = ref []

let reaped pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let signal pid s = try Unix.kill pid s with Unix.Unix_error _ -> ()

(* TERM every child (the daemon and router drain on it), give them
   [grace] seconds, then KILL the rest; returns once all are reaped. *)
let stop ?(grace = 10.) procs =
  List.iter (fun p -> signal p.pid Sys.sigterm) procs;
  let deadline = Unix.gettimeofday () +. grace in
  let rec wait pending =
    let pending = List.filter (fun p -> not (reaped p.pid)) pending in
    if pending <> [] then begin
      if Unix.gettimeofday () > deadline then
        List.iter (fun p -> signal p.pid Sys.sigkill) pending;
      Unix.sleepf 0.001;
      wait pending
    end
  in
  wait procs;
  live := List.filter (fun p -> not (List.memq p procs)) !live

let () = at_exit (fun () -> stop ~grace:2. !live)

let spawn ~dls ~log label args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close null;
        Unix.close out)
      (fun () ->
        Unix.create_process dls (Array.of_list (dls :: args)) null out out)
  in
  let p = { pid; label } in
  live := p :: !live;
  p

(* Poll until [path] accepts a connection, at 1 ms steps. *)
let wait_ready ?(timeout = 60.) p path =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if reaped p.pid then failwith (Printf.sprintf "%s exited during start-up" p.label);
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let ok =
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    Unix.close fd;
    if not ok then begin
      if Unix.gettimeofday () > deadline then
        failwith (Printf.sprintf "%s not ready after %.0f s" p.label timeout);
      Unix.sleepf 0.001;
      go ()
    end
  in
  go ()

let remove path = try Sys.remove path with Sys_error _ -> ()
