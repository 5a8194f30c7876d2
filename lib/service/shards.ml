(* N bounded queues + one shared wake signal.  The per-shard queues are
   plain {!Queue}s (their own locks bound the critical sections); the
   mutex/condvar here exist only so a dispatcher with nothing to pop —
   own shard and all victims empty — can sleep until any producer
   pushes anywhere.  The wake protocol is the usual one: producers
   signal under the mutex after a successful push, consumers re-check
   emptiness under the same mutex before waiting, so a push can never
   slip into the gap unseen. *)

type 'a t = {
  queues : 'a Queue.t array;
  m : Mutex.t;
  c : Condition.t;
  mutable closed : bool;
}

let create ~shards ~capacity =
  if shards < 1 || capacity < 1 then
    invalid_arg "Shards.create: shards and capacity must be >= 1";
  let per_shard = max 1 (capacity / shards) in
  {
    queues = Array.init shards (fun _ -> Queue.create ~capacity:per_shard);
    m = Mutex.create ();
    c = Condition.create ();
    closed = false;
  }

let shard_of_key t key = Hashtbl.hash key mod Array.length t.queues
let shard_length t i = Queue.length t.queues.(i)
let length t = Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.queues

let capacity t =
  Array.length t.queues * Queue.capacity t.queues.(0)

let try_push t ~key x =
  match Queue.try_push t.queues.(shard_of_key t key) x with
  | Queue.Enqueued ->
    Mutex.lock t.m;
    Condition.signal t.c;
    Mutex.unlock t.m;
    Queue.Enqueued
  | other -> other

let try_pop_from t i = Queue.try_pop t.queues.(i)

(* Own shard first; otherwise rob the longest backlog.  Victim lengths
   are sampled without locks — a stale choice only costs one failed
   try_pop and another sweep. *)
let try_claim t ~shard =
  match Queue.try_pop t.queues.(shard) with
  | Some x -> Some (x, shard)
  | None ->
    let n = Array.length t.queues in
    let best = ref (-1) and best_len = ref 0 in
    for k = 1 to n - 1 do
      let i = (shard + k) mod n in
      let len = Queue.length t.queues.(i) in
      if len > !best_len then begin
        best := i;
        best_len := len
      end
    done;
    if !best < 0 then None
    else
      match Queue.try_pop t.queues.(!best) with
      | Some x -> Some (x, !best)
      | None -> None (* victim emptied under us; caller re-sweeps *)

let rec pop t ~shard =
  match try_claim t ~shard with
  | Some r -> Some r
  | None ->
    Mutex.lock t.m;
    (* Re-check under the lock: a producer signals after pushing, also
       under the lock, so either the item is already visible here or
       the wait below will be woken. *)
    let quit = t.closed && length t = 0 in
    if (not quit) && length t = 0 then Condition.wait t.c t.m;
    Mutex.unlock t.m;
    if quit then None else pop t ~shard

let close t =
  Array.iter Queue.close t.queues;
  Mutex.lock t.m;
  t.closed <- true;
  Condition.broadcast t.c;
  Mutex.unlock t.m
