type phase = Send | Compute | Return
type direction = Op_send | Op_return
type protocol = Sends_first | Eager_returns

type ('c, 'a) op = { worker : int; direction : direction; release : 'c; data : 'a }
type ('c, 'a) step = { op : ('c, 'a) op; phase : phase; start : 'c; finish : 'c }

module type CLOCK = sig
  type t

  val max : t -> t -> t
  val compare : t -> t -> int
end

module Make (C : CLOCK) = struct
  let run ~start ~protocol ~finish ops =
    let n = List.fold_left (fun m op -> Int.max m (op.worker + 1)) 0 ops in
    let steps = ref [] in
    let record op phase start finish = steps := { op; phase; start; finish } :: !steps in
    let port = ref start in
    let idle = Array.make n start in
    (* per worker, the end of each received chunk's computation, in
       arrival order; [None] for a chunk that never completes *)
    let computed = Array.init n (fun _ -> Queue.create ()) in
    let send op =
      let i = op.worker in
      let s = C.max !port op.release in
      match finish op Send s with
      | None -> Queue.add None computed.(i)
      | Some sf ->
        record op Send s sf;
        port := sf;
        let cs = C.max sf idle.(i) in
        let cf = finish op Compute cs in
        Option.iter
          (fun cf ->
            record op Compute cs cf;
            idle.(i) <- cf)
          cf;
        Queue.add cf computed.(i)
    in
    let return op =
      match Queue.take_opt computed.(op.worker) with
      | None | Some None -> ()
      | Some (Some cf) -> (
        let s = C.max !port cf in
        match finish op Return s with
        | None -> ()
        | Some rf ->
          record op Return s rf;
          port := rf)
    in
    (* Returns run in port order, so a count of those done tells the
       main pass which ones [Eager_returns] already took. *)
    let returns = Array.of_list (List.filter (fun op -> op.direction = Op_return) ops) in
    let returned = ref 0 and seen = ref 0 in
    let next_return () =
      return returns.(!returned);
      incr returned
    in
    let rec take_ready_returns () =
      if !returned < Array.length returns then
        match Queue.peek_opt computed.(returns.(!returned).worker) with
        | Some (Some cf) when C.compare cf !port > 0 -> ()
        | Some _ ->
          next_return ();
          take_ready_returns ()
        | None -> ()
    in
    List.iter
      (fun op ->
        match op.direction with
        | Op_send ->
          if protocol = Eager_returns then take_ready_returns ();
          send op
        | Op_return ->
          if !seen = !returned then next_return ();
          incr seen)
      ops;
    List.rev !steps
end
