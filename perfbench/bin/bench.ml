(* One benchmark run of the solver service; see perfbench/README.md.

   bench --dls PATH --workload NAME --seed N --seconds S --trace 0|1

   Prints, as the last line of stdout, one JSON object with the keys
   correct, attempted, failed and metrics. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: bench --dls PATH --workload (cold-p11|near-dup) --seed N \
     --seconds S --trace 0|1";
  exit 2

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (m : Layers.metric) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.Layers.name
          (json_number m.Layers.value) m.Layers.unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = opts [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let w = match Gen.of_name (get "workload") with Some w -> w | None -> usage () in
  let dls = get "dls" and seed = int "seed" and seconds = int "seconds" in
  if seconds < 1 then usage ();
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* A signalled run still stops its children: [exit] runs the
     [at_exit] hook that reaps them. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  match int "trace" with
  | 0 ->
    let o = E2e.run ~dls w ~seed ~seconds in
    let metrics =
      Layers.
        [
          metric "throughput_rps" "1/s" o.E2e.throughput_rps;
          metric "latency_p50_ms" "ms" o.E2e.latency_p50_ms;
          metric "latency_p99_ms" "ms" o.E2e.latency_p99_ms;
          metric "setup_s" "s" o.E2e.setup_s;
        ]
    in
    let finite = List.for_all (fun (m : Layers.metric) -> Float.is_finite m.Layers.value) metrics in
    print_result
      ~correct:(o.E2e.failed = 0 && finite)
      ~attempted:o.E2e.attempted ~failed:o.E2e.failed metrics
  | 1 ->
    let attempted, failed, metrics = Layers.run ~dls w ~seed ~seconds in
    let finite = List.for_all (fun (m : Layers.metric) -> Float.is_finite m.Layers.value) metrics in
    print_result ~correct:(failed = 0 && finite) ~attempted ~failed metrics
  | _ -> usage ()
