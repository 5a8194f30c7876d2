type 'a t = {
  m : Mutex.t;
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
      Enqueued
    end
  in
  Mutex.unlock t.m;
  r

let try_pop t =
  Mutex.lock t.m;
  let r = Stdlib.Queue.take_opt t.items in
  Mutex.unlock t.m;
  r

let close t =
  Mutex.lock t.m;
  t.closed <- true;
  Mutex.unlock t.m

let length t =
  Mutex.lock t.m;
  let n = Stdlib.Queue.length t.items in
  Mutex.unlock t.m;
  n

let capacity t = t.cap

