(* The process topology: one [dls serve --jobs 1 --store FILE], which
   the driver talks to directly.  The traced run also puts a [dls route]
   in front of it, to measure the router hop on the workload's own
   keys. *)

type t = {
  procs : Proc.t list;
  daemon : string;  (** the daemon's socket; the driver sends the workload here *)
  router : string option;
}

let socket = Gen.run_dir ^ "/daemon.sock"
let router_socket = Gen.run_dir ^ "/router.sock"
let store = Gen.run_dir ^ "/store.dat"

let prepare () =
  if not (Sys.file_exists Gen.run_dir) then Sys.mkdir Gen.run_dir 0o755;
  Array.iter Proc.remove (Sys.readdir Gen.run_dir |> Array.map (Filename.concat Gen.run_dir))

let log label = Filename.concat Gen.run_dir (label ^ ".log")

let start ~dls ~router =
  List.iter Proc.remove [ socket; router_socket; store ];
  let d =
    Proc.spawn ~dls ~log:(log "daemon") "daemon"
      [ "serve"; "--socket"; socket; "--jobs"; "1"; "--store"; store ]
  in
  Proc.wait_ready d socket;
  if router then begin
    let r =
      Proc.spawn ~dls ~log:(log "router") "router"
        [ "route"; "--socket"; router_socket; "--shard"; socket ]
    in
    Proc.wait_ready r router_socket;
    { procs = [ r; d ]; daemon = socket; router = Some router_socket }
  end
  else { procs = [ d ]; daemon = socket; router = None }

let stop t = Proc.stop t.procs
