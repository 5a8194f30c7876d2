type 'a t = {
  m : Mutex.t;
  nonempty : Condition.t;
  items : 'a Stdlib.Queue.t;
  cap : int;
  mutable closed : bool;
}

type push_result = Enqueued | Overloaded | Closed

let create ~capacity =
  if capacity <= 0 then
    invalid_arg (Printf.sprintf "Service.Queue.create: capacity %d" capacity);
  {
    m = Mutex.create ();
    nonempty = Condition.create ();
    items = Stdlib.Queue.create ();
    cap = capacity;
    closed = false;
  }

let try_push t x =
  Mutex.lock t.m;
  let r =
    if t.closed then Closed
    else if Stdlib.Queue.length t.items >= t.cap then Overloaded
    else begin
      Stdlib.Queue.push x t.items;
      Condition.signal t.nonempty;
      Enqueued
    end
  in
  Mutex.unlock t.m;
  r

(* Emptiness is re-checked under the lock that [try_push] signals
   under, so a push can never slip in between the check and the wait
   unseen. *)
let pop t =
  Mutex.lock t.m;
  while Stdlib.Queue.is_empty t.items && not t.closed do
    Condition.wait t.nonempty t.m
  done;
  let r = Stdlib.Queue.take_opt t.items in
  Mutex.unlock t.m;
  r

let close t =
  Mutex.lock t.m;
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.m

let length t =
  Mutex.lock t.m;
  let n = Stdlib.Queue.length t.items in
  Mutex.unlock t.m;
  n

let capacity t = t.cap
