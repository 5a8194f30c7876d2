(* Self-scheduling domain pool.
 *
 * A [map] call publishes its array as a batch on the pool's list of
 * open batches.  Workers sleep on one condition until a batch is open,
 * then claim its indices one [Atomic.fetch_and_add] at a time until it
 * is exhausted, and unlink it.  The caller claims from its own batch in
 * the same way and then waits for the items other domains still run.
 *
 * Results land in per-index slots, so scheduling decides only who
 * computes an item, never what the output array contains; the smallest
 * failing index re-raises in the caller. *)

type batch = {
  run : int -> unit;  (* execute item [i] into its result slot; never raises *)
  n : int;
  next : int Atomic.t;  (* next unclaimed index *)
  remaining : int Atomic.t;  (* items not yet finished, across all domains *)
}

type t = {
  m : Mutex.t;
  opened : Condition.t;  (* a batch was published, or [stop] was set *)
  finished : Condition.t;  (* some batch's [remaining] reached 0 *)
  mutable batches : batch list;  (* open batches, newest first *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* Cooperative timeouts                                                *)

exception Task_timeout of { elapsed : float; budget : float }

let () =
  Printexc.register_printer (function
    | Task_timeout { elapsed; budget } ->
      Some
        (Printf.sprintf "Pool.Task_timeout (ran %.3fs, budget %.3fs)" elapsed
           budget)
    | _ -> None)

(* Cooperative: a task cannot be killed midway, so the budget is checked
   when it completes — an overrunning task still finishes, but its
   result is replaced by [Task_timeout].  A task's own exception wins
   over the overrun.  The clock is monotonic ({!Clock}), so a wall-clock
   step during the task can neither fire a spurious timeout nor mask a
   real one. *)
let timed ?timeout f x =
  match timeout with
  | None -> f x
  | Some budget ->
    let t0 = Clock.now () in
    let v = f x in
    let elapsed = Clock.elapsed_s ~since:t0 in
    if elapsed > budget then raise (Task_timeout { elapsed; budget });
    v

(* ------------------------------------------------------------------ *)
(* Claiming                                                            *)

(* Claim and run items of [b] until none is left unclaimed, then unlink
   [b] (a no-op if another participant already did).  The participant
   that finishes the last item wakes the waiting callers; it takes the
   mutex to do so, so the signal cannot fall between a caller's check
   of [remaining] and its wait. *)
let drain t b =
  let rec claim () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.n then begin
      b.run i;
      if Atomic.fetch_and_add b.remaining (-1) = 1 then begin
        Mutex.lock t.m;
        Condition.broadcast t.finished;
        Mutex.unlock t.m
      end;
      claim ()
    end
  in
  claim ();
  Mutex.lock t.m;
  t.batches <- List.filter (fun b' -> b' != b) t.batches;
  Mutex.unlock t.m

let rec worker t =
  Mutex.lock t.m;
  while t.batches = [] && not t.stop do
    Condition.wait t.opened t.m
  done;
  match t.batches with
  | b :: _ when not t.stop ->
    Mutex.unlock t.m;
    drain t b;
    worker t
  | _ -> Mutex.unlock t.m

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let create ?jobs () =
  let n_jobs = max 1 (Option.value jobs ~default:(default_jobs ())) in
  let t =
    {
      m = Mutex.create ();
      opened = Condition.create ();
      finished = Condition.create ();
      batches = [];
      stop = false;
      domains = [];
    }
  in
  t.domains <- List.init (n_jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let shutdown t =
  Mutex.lock t.m;
  t.stop <- true;
  Condition.broadcast t.opened;
  Mutex.unlock t.m;
  let ds = t.domains in
  t.domains <- [];
  List.iter Domain.join ds

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map t f arr =
  let n = Array.length arr in
  if n <= 1 || t.domains = [] then Array.map f arr
  else begin
    let slots = Array.make n None in
    let run i =
      slots.(i) <- Some (match f arr.(i) with v -> Ok v | exception e -> Error e)
    in
    let b = { run; n; next = Atomic.make 0; remaining = Atomic.make n } in
    Mutex.lock t.m;
    t.batches <- b :: t.batches;
    Condition.broadcast t.opened;
    Mutex.unlock t.m;
    drain t b;
    Mutex.lock t.m;
    while Atomic.get b.remaining > 0 do
      Condition.wait t.finished t.m
    done;
    Mutex.unlock t.m;
    Array.iter (function Some (Error e) -> raise e | _ -> ()) slots;
    Array.map (function Some (Ok v) -> v | _ -> assert false (* every slot ran *)) slots
  end

let run ?jobs f arr =
  let n_jobs = max 1 (Option.value jobs ~default:(default_jobs ())) in
  if n_jobs <= 1 || Array.length arr <= 1 then Array.map f arr
  else with_pool ~jobs:n_jobs (fun t -> map t f arr)

let run_local ?jobs ~init f arr =
  let n_jobs = max 1 (Option.value jobs ~default:(default_jobs ())) in
  if n_jobs <= 1 || Array.length arr <= 1 then Array.map (f (init ())) arr
  else
    with_pool ~jobs:n_jobs (fun t ->
        (* One scratch state per participating domain, created lazily on
           the domain's first claim.  The key is fresh per call, so
           states never leak between batches. *)
        let key = Domain.DLS.new_key init in
        map t (fun x -> f (Domain.DLS.get key) x) arr)
