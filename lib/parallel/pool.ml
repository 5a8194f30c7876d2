(* Work-stealing domain pool.
 *
 * Task distribution is lock-free: every participant — worker domain or
 * active [map] caller — owns a Chase–Lev deque ({!Deque}).  A [map]
 * call claims a mapper slot, turns its index range into a task, and
 * executes it by lazy binary splitting: ranges wider than the chunk
 * push their upper half onto the owner's own deque (bottom, LIFO) and
 * recurse into the lower half, so the owner walks indices in ascending
 * order while idle domains steal the oldest — widest — ranges from the
 * top and split those in their own deques.  After the first few steals
 * almost every claim is an uncontended owner-local pop; there is no
 * shared lock anywhere on the claim path, so any number of [map] calls
 * can run concurrently (or reentrantly) on one pool.
 *
 * Determinism is untouched by all of this: results land in per-index
 * slots, so scheduling decides only who computes an item, never what
 * the output array contains.  Failures are collected per index and the
 * smallest failing index re-raises in the caller, as before.
 *
 * The only mutex left guards the idle-sleep protocol (workers that
 * found no work anywhere park on a condvar until a push wakes them)
 * and each batch's completion signal; neither is on the claim path. *)

type batch = {
  run : int -> unit;  (* execute item [i] into its result slot; never raises *)
  grain : int;  (* widest range executed without splitting *)
  remaining : int Atomic.t;  (* items not yet finished, across all domains *)
  bm : Mutex.t;
  bc : Condition.t;  (* signalled once [remaining] hits 0 *)
}

type task = { b : batch; lo : int; hi : int }

type t = {
  slots : task Deque.t array;
  (* [0 .. n_jobs-2] are owned by the worker domains; the rest are
     mapper slots, claimed per [map] call via [slot_busy]. *)
  slot_busy : bool Atomic.t array;
  pending : int Atomic.t;  (* pushed-but-unclaimed tasks, pool-wide *)
  sleepers : int Atomic.t;
  m : Mutex.t;
  work_available : Condition.t;
  stop : bool Atomic.t;
  mutable domains : unit Domain.t list;
  n_jobs : int;
}

let default_jobs () = Domain.recommended_domain_count ()
let jobs t = t.n_jobs

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
(* Task execution: lazy binary splitting                               *)

(* Wakeups are a parallelism hint, not a liveness requirement: every
   participant drains its own deque before idling, so a batch completes
   even if no sleeper ever wakes.  That lets the push path signal
   WITHOUT taking [t.m] (legal for condvars) — a signal that races into
   a sleeper's check-then-wait gap is simply lost, and the next push
   retries.  Taking the mutex here would serialize pushers against
   workers re-acquiring it as they wake, forcing a context switch per
   push on a loaded machine.  Shutdown still broadcasts under the
   mutex, so parking workers never miss [stop]. *)
let wake_one t =
  if Atomic.get t.sleepers > 0 then Condition.signal t.work_available

let finish b k =
  (* fetch_and_add returns the pre-decrement value: [k] means this was
     the batch's last live range. *)
  if Atomic.fetch_and_add b.remaining (-k) = k then begin
    Mutex.lock b.bm;
    Condition.broadcast b.bc;
    Mutex.unlock b.bm
  end

(* Run one claimed range on the deque [my], splitting as we go.  Only
   the bottom half is executed here; upper halves go onto our own deque
   where we will pop them next (depth-first, ascending indices) unless
   a thief takes them first. *)
let exec_task t ~my { b; lo; hi } =
  let d = t.slots.(my) in
  let lo = ref lo and hi = ref hi in
  let running = ref true in
  while !running do
    if !hi - !lo > b.grain then begin
      let mid = (!lo + !hi) / 2 in
      Deque.push d { b; lo = mid; hi = !hi };
      Atomic.incr t.pending;
      wake_one t;
      hi := mid
    end
    else begin
      for i = !lo to !hi - 1 do
        b.run i
      done;
      finish b (!hi - !lo);
      running := false
    end
  done

(* Claim work: own deque first (uncontended pop), then sweep the other
   deques as a thief, starting just past our own so victims differ
   across participants. *)
let next_task t ~my =
  match Deque.pop t.slots.(my) with
  | Some _ as r ->
    Atomic.decr t.pending;
    r
  | None ->
    let n = Array.length t.slots in
    let rec sweep i =
      if i >= n then None
      else
        match Deque.steal t.slots.((my + i) mod n) with
        | Some _ as r ->
          Atomic.decr t.pending;
          r
        | None -> sweep (i + 1)
    in
    sweep 1

(* A full [next_task] miss already swept every deque in the pool, so a
   handful of retries is plenty before parking — spinning longer only
   steals cycles from the domains that hold actual work. *)
let spin_budget = 4

let worker t k =
  let spins = ref 0 in
  while not (Atomic.get t.stop) do
    match next_task t ~my:k with
    | Some task ->
      spins := 0;
      exec_task t ~my:k task
    | None ->
      incr spins;
      if !spins < spin_budget then Domain.cpu_relax ()
      else begin
        spins := 0;
        (* Idle-sleep protocol: [sleepers] is raised before re-checking
           [pending] (both SC atomics), and pushers read [sleepers]
           after raising [pending] — so at least one side always sees
           the other and no wakeup is lost; the mutex only closes the
           check-then-wait gap. *)
        Mutex.lock t.m;
        Atomic.incr t.sleepers;
        if Atomic.get t.pending = 0 && not (Atomic.get t.stop) then
          Condition.wait t.work_available t.m;
        Atomic.decr t.sleepers;
        Mutex.unlock t.m
      end
  done

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let create ?jobs () =
  let n_jobs = max 1 (Option.value jobs ~default:(default_jobs ())) in
  let workers = n_jobs - 1 in
  (* Enough mapper slots for every domain to be inside a reentrant
     [map] plus external callers; exhaustion degrades to inline
     execution, never an error. *)
  let mappers = max 4 (2 * n_jobs) in
  let n_slots = workers + mappers in
  let t =
    {
      slots = Array.init n_slots (fun _ -> Deque.create ());
      slot_busy = Array.init n_slots (fun i -> Atomic.make (i < workers));
      pending = Atomic.make 0;
      sleepers = Atomic.make 0;
      m = Mutex.create ();
      work_available = Condition.create ();
      stop = Atomic.make false;
      domains = [];
      n_jobs;
    }
  in
  t.domains <- List.init workers (fun k -> Domain.spawn (fun () -> worker t k));
  t

let shutdown t =
  Atomic.set t.stop true;
  Mutex.lock t.m;
  Condition.broadcast t.work_available;
  Mutex.unlock t.m;
  let ds = t.domains in
  t.domains <- [];
  List.iter Domain.join ds

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Mapper-slot claim: first free slot past the worker-owned prefix.
   Lock-free; [None] under pathological reentrancy depth. *)
let acquire_slot t =
  let n = Array.length t.slot_busy in
  let workers = t.n_jobs - 1 in
  let rec go i =
    if i >= n then None
    else if
      (not (Atomic.get t.slot_busy.(i)))
      && Atomic.compare_and_set t.slot_busy.(i) false true
    then Some i
    else go (i + 1)
  in
  go workers

let release_slot t i = Atomic.set t.slot_busy.(i) false

let default_chunk ~size ~jobs =
  (* a few leaves per worker: small enough that thieves find ranges
     worth splitting, large enough to keep per-claim overhead out of
     the profile *)
  max 1 (size / (jobs * 4))

let map ?chunk t f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if t.n_jobs <= 1 || n = 1 || t.domains = [] then Array.map f arr
  else begin
    let results = Array.make n None in
    let failures = Array.make n None in
    let run i =
      match f arr.(i) with
      | v -> results.(i) <- Some v
      | exception e -> failures.(i) <- Some e
    in
    let chunk =
      match chunk with
      | Some c when c >= 1 -> c
      | _ -> default_chunk ~size:n ~jobs:t.n_jobs
    in
    (* Auto-partitioning: [chunk] is the granularity the caller wants
       for load balancing, but below [n / (8 * jobs)] extra splits only
       add claim traffic — ~8 leaves per participant already lets
       thieves even out a skewed batch.  Coarsening the grain changes
       which domain runs an item, never the result (per-index slots). *)
    let grain = max chunk (n / (8 * t.n_jobs)) in
    (match acquire_slot t with
    | None ->
      (* Every mapper slot is busy (deep reentrancy): run inline.
         Results are identical — only the parallelism is lost. *)
      for i = 0 to n - 1 do
        run i
      done
    | Some my ->
      let b =
        {
          run;
          grain;
          remaining = Atomic.make n;
          bm = Mutex.create ();
          bc = Condition.create ();
        }
      in
      (* Participate: execute our own range depth-first, then drain
         whatever of it is still on our deque.  Parked workers are woken
         by the per-push signals as the spine unfolds. *)
      exec_task t ~my { b; lo = 0; hi = n };
      let rec drain () =
        match Deque.pop t.slots.(my) with
        | Some task ->
          Atomic.decr t.pending;
          exec_task t ~my task;
          drain ()
        | None -> ()
      in
      drain ();
      (* Our deque is empty and we push nothing more: the slot can be
         recycled while we wait for ranges that thieves took. *)
      release_slot t my;
      Mutex.lock b.bm;
      while Atomic.get b.remaining > 0 do
        Condition.wait b.bc b.bm
      done;
      Mutex.unlock b.bm);
    Array.iter (function Some e -> raise e | None -> ()) failures;
    Array.map
      (function Some v -> v | None -> assert false (* every slot ran *))
      results
  end

let run ?jobs ?chunk f arr =
  let n_jobs = max 1 (Option.value jobs ~default:(default_jobs ())) in
  if n_jobs <= 1 || Array.length arr <= 1 then Array.map f arr
  else with_pool ~jobs:n_jobs (fun t -> map ?chunk t f arr)

let run_local ?jobs ?chunk ~init f arr =
  let n_jobs = max 1 (Option.value jobs ~default:(default_jobs ())) in
  if n_jobs <= 1 || Array.length arr <= 1 then Array.map (f (init ())) arr
  else
    with_pool ~jobs:n_jobs (fun t ->
        (* One scratch state per participating domain, created lazily on
           the domain's first claim.  The key is fresh per call, so
           states never leak between batches. *)
        let key = Domain.DLS.new_key init in
        map ?chunk t (fun x -> f (Domain.DLS.get key) x) arr)
