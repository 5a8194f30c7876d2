(* The closed-loop load driver: one connection, which sends its next
   request only after the previous reply line has been read in full.
   Latency is taken on the client, on the monotonic clock, from just
   before the request line is written to just after the whole reply
   line is read. *)

type result = {
  replies : string option array;  (** [None] on a transport failure *)
  latency_us : float array;
  wall_s : float;  (** first send to last reply *)
}

let connect path =
  match Service.Client.connect (Service.Server.Unix_socket path) with
  | Ok c -> c
  | Error e -> failwith ("connect " ^ path ^ ": " ^ Dls.Errors.to_string e)

let run conn lines =
  let n = Array.length lines in
  let replies = Array.make n None in
  let latency_us = Array.make n 0. in
  let t0 = Parallel.Clock.now () in
  for i = 0 to n - 1 do
    let s = Parallel.Clock.now () in
    let r = Service.Client.request_line conn lines.(i) in
    latency_us.(i) <- (Parallel.Clock.now () -. s) *. 1e6;
    match r with Ok l -> replies.(i) <- Some l | Error _ -> ()
  done;
  { replies; latency_us; wall_s = Parallel.Clock.now () -. t0 }

let is_ok line = String.length line >= 3 && String.sub line 0 3 = "ok "
