module Q = Numeric.Rational

type outcome = Certified of Simplex.Solver.solution | Rejected | Shape

(* The candidate basis read as a chain, in sigma1 positions.  [tight]
   rows have neither their idle variable nor their slack basic, so their
   deadline binds; every other row has exactly one of the twins basic.
   [binding] is the last enrolled worker when the one-port row binds:
   its own row is then the one that may leave a gap (Theorem 1). *)
type chain = {
  fifo : bool;
  one_port : bool;
  enrolled : bool array;
  tight : bool array;
  binding : int option;
}

exception Not_chain

let read_basis ~one_port ~fifo q basis =
  if Array.length basis <> (if one_port then q + 1 else q) then raise Not_chain;
  let enrolled = Array.make q false and free = Array.make q false in
  let port_slack = ref false in
  let mark a k =
    if a.(k) then raise Not_chain;
    a.(k) <- true
  in
  Array.iter
    (fun j ->
      if j < 0 then raise Not_chain
      else if j < q then mark enrolled j
      else if j < 2 * q then mark free (j - q)
      else if j < 3 * q then mark free (j - (2 * q))
      else if one_port && j = 3 * q && not !port_slack then port_slack := true
      else raise Not_chain)
    basis;
  let last = ref (-1) in
  Array.iteri (fun k e -> if e then last := k) enrolled;
  if !last < 0 then raise Not_chain;
  let binding = if one_port && not !port_slack then Some !last else None in
  let tight = Array.init q (fun k -> enrolled.(k) && binding <> Some k) in
  Array.iteri (fun k t -> if t = free.(k) then raise Not_chain) tight;
  { fifo; one_port; enrolled; tight; binding }

(* The arithmetic the recurrences need, once over floats (the screen)
   and once over exact rationals (the certificate).  [sign] serves the
   primal tests and carries the screen's margin.  [positive] serves the
   strict dual tests: the screen rules out only an exact [0.0] (the
   float image of an alternate optimum) or a clearly negative value, and
   leaves a dual too small for doubles to resolve to the exact test.
   [invertible] guards every division. *)
module type NUM = sig
  type t

  val zero : t
  val one : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val sign : t -> int
  val positive : t -> bool
  val invertible : t -> bool
end

module Float_num = struct
  type t = float

  let zero = 0.0
  let one = 1.0
  let add = ( +. )
  let sub = ( -. )
  let mul = ( *. )
  let div = ( /. )

  let margin = 1e-7
  let sign x = if x > margin then 1 else if x < -.margin then -1 else 0
  let positive x = x <> 0.0 && x > -.margin
  let invertible x = Float.abs x > 1e-12
end

module Exact_num = struct
  include Q

  let positive x = Q.sign x > 0
  let invertible x = not (Q.is_zero x)
end

exception Reject

module Chain (N : NUM) = struct
  (* the last sigma1 position, before the operators below shadow [-] *)
  let top a = Array.length a - 1

  let ( + ) = N.add
  let ( - ) = N.sub
  let ( * ) = N.mul

  let ( / ) a b = if N.invertible b then N.div a b else raise Reject

  (* Every deadline row at [alpha], by a prefix sum of [alpha c] in
     sigma1 order and a suffix sum of [alpha d] in sigma2 order (for
     LIFO that suffix is the sigma1 prefix). *)
  let rows ch ~c ~w ~d alpha =
    let out = Array.map (fun _ -> N.zero) alpha in
    let acc = ref N.zero in
    for k = 0 to top alpha do
      acc := !acc + (alpha.(k) * (if ch.fifo then c.(k) else c.(k) + d.(k)));
      out.(k) <- !acc + (alpha.(k) * w.(k))
    done;
    if ch.fifo then begin
      let acc = ref N.zero in
      for k = top alpha downto 0 do
        acc := !acc + (alpha.(k) * d.(k));
        out.(k) <- out.(k) + !acc
      done
    end;
    out

  (* Primal: subtracting consecutive tight rows k < k' leaves
     FIFO  alpha_k' (c_k' + w_k')       = alpha_k (w_k + d_k)
     LIFO  alpha_k' (c_k' + w_k' + d_k') = alpha_k w_k,
     so the tight workers' loads are one ratio chain [r], scaled by the
     first tight row — or, when the one-port row binds, by a 2x2 system
     with the one-port row in the last enrolled worker's load. *)
  let primal ch ~c ~w ~d =
    let q = Array.length c in
    let r = Array.make q N.zero in
    let first = ref (-1) and prev = ref (-1) in
    for k = 0 to top c do
      if ch.tight.(k) then begin
        (match !prev with
        | -1 ->
          first := k;
          r.(k) <- N.one
        | j ->
          r.(k) <-
            (if ch.fifo then r.(j) * (w.(j) + d.(j)) / (c.(k) + w.(k))
             else r.(j) * w.(j) / (c.(k) + w.(k) + d.(k))));
        prev := k
      end
    done;
    let alpha = Array.make q N.zero in
    (match (!first, ch.binding) with
    | -1, None -> raise Reject
    | -1, Some l -> alpha.(l) <- N.one / (c.(l) + d.(l))
    | k0, binding -> (
      (* the first tight row at [r]: nothing tight precedes it *)
      let r0 =
        if ch.fifo then begin
          let acc = ref (r.(k0) * (c.(k0) + w.(k0))) in
          Array.iteri (fun k t -> if t then acc := !acc + (r.(k) * d.(k))) ch.tight;
          !acc
        end
        else c.(k0) + w.(k0) + d.(k0)
      in
      match binding with
      | None ->
        let t = N.one / r0 in
        Array.iteri (fun k rk -> alpha.(k) <- t * rk) r
      | Some l ->
        let port = ref N.zero in
        Array.iteri
          (fun k t -> if t then port := !port + (r.(k) * (c.(k) + d.(k))))
          ch.tight;
        (* [a0l]: the last worker's coefficient in the first tight row *)
        let a0l = if ch.fifo then d.(l) else N.zero in
        let pl = c.(l) + d.(l) in
        let det = (r0 * pl) - (!port * a0l) in
        let t = (pl - a0l) / det in
        Array.iteri (fun k rk -> alpha.(k) <- t * rk) r;
        alpha.(l) <- (r0 - !port) / det));
    alpha

  (* Duals: [y_k = 0] off the tight rows, and the column of each
     enrolled [alpha_j] prices to exactly 1.  FIFO: with [Y = sum y] and
     the prefix [P_j = sum_{i<j} y_i], column j reads
     [c_j (Y - P_j) + d_j (P_j + y_j) + w_j y_j + (c_j + d_j) y_port],
     so each tight [y_j] is affine in [Y] (as is [y_port], pinned by the
     last worker's column), closed by [Y = sum y].  LIFO: column j reads
     [(c_j + d_j)(S_j + y_j + y_port) + w_j y_j] with the suffix
     [S_j = sum_{i>j} y_i]: back substitution. *)
  let duals ch ~c ~w ~d =
    let q = Array.length c in
    let y = Array.make q N.zero in
    if ch.fifo then begin
      let u, v =
        match ch.binding with
        | None -> (N.zero, N.zero)
        | Some l ->
          let pl = c.(l) + d.(l) in
          (N.one / pl, (N.zero - d.(l)) / pl)
      in
      let a = Array.make q N.zero and b = Array.make q N.zero in
      let p0 = ref N.zero and p1 = ref N.zero in
      for k = 0 to top c do
        if ch.tight.(k) then begin
          let den = w.(k) + d.(k) and cd = c.(k) + d.(k) and dc = d.(k) - c.(k) in
          a.(k) <- (N.one - (cd * u) - (dc * !p0)) / den;
          b.(k) <- (N.zero - c.(k) - (cd * v) - (dc * !p1)) / den;
          p0 := !p0 + a.(k);
          p1 := !p1 + b.(k)
        end
      done;
      let total = !p0 / (N.one - !p1) in
      Array.iteri (fun k t -> if t then y.(k) <- a.(k) + (b.(k) * total)) ch.tight;
      (y, u + (v * total))
    end
    else begin
      let port =
        match ch.binding with None -> N.zero | Some l -> N.one / (c.(l) + d.(l))
      in
      let s = ref N.zero in
      for k = top c downto 0 do
        if ch.tight.(k) then begin
          let cd = c.(k) + d.(k) in
          y.(k) <- (N.one - (cd * (!s + port))) / (cd + w.(k));
          s := !s + y.(k)
        end
      done;
      (y, port)
    end

  (* The acceptance test.  Primal: enrolled loads non-negative (a zero
     load is a degenerate vertex, still unique under the strict dual
     test), tight rows exactly 1,
     every other row and the one-port row at most 1.  Dual: [y > 0] on
     the tight rows and on a binding one-port row; enrolled columns
     price to exactly 1 and every other [alpha_j] strictly above it.
     Returns the loads and the row values, in sigma1 order. *)
  let run ch ~c ~w ~d =
    let alpha = primal ch ~c ~w ~d in
    Array.iteri (fun k e -> if e && N.sign alpha.(k) < 0 then raise Reject) ch.enrolled;
    let rows = rows ch ~c ~w ~d alpha in
    Array.iteri
      (fun k t ->
        let slack = N.one - rows.(k) in
        if (t && N.sign slack <> 0) || N.sign slack < 0 then raise Reject)
      ch.tight;
    if ch.one_port then begin
      let port = ref N.zero in
      Array.iteri (fun k a -> port := !port + (a * (c.(k) + d.(k)))) alpha;
      let slack = N.one - !port in
      if (ch.binding <> None && N.sign slack <> 0) || N.sign slack < 0 then
        raise Reject
    end;
    let y, y_port = duals ch ~c ~w ~d in
    Array.iteri (fun k t -> if t && not (N.positive y.(k)) then raise Reject) ch.tight;
    if ch.binding <> None && not (N.positive y_port) then raise Reject;
    (* column j's price, from the suffix of [y] in sigma1 order and (FIFO)
       its prefix *)
    let prefix = ref N.zero in
    let total = Array.fold_left ( + ) N.zero y in
    for j = 0 to top c do
      let suffix = total - !prefix in
      prefix := !prefix + y.(j);
      let price =
        if ch.fifo then
          (c.(j) * suffix) + (d.(j) * !prefix) + (w.(j) * y.(j))
          + ((c.(j) + d.(j)) * y_port)
        else ((c.(j) + d.(j)) * (suffix + y_port)) + (w.(j) * y.(j))
      in
      if ch.enrolled.(j) then (if N.sign (price - N.one) <> 0 then raise Reject)
      else if not (N.positive (price - N.one)) then raise Reject
    done;
    (alpha, rows)
end

module Float_chain = Chain (Float_num)
module Exact_chain = Chain (Exact_num)

(* Under LIFO the one-port row is implied by the last deadline row (the
   same sum plus that worker's compute time), so a basis that makes it
   bind is infeasible or degenerate; the chain reader treats both
   orders alike and lets the test decide. *)
let certify ~one_port (s : Scenario.t) ~basis =
  let q = Scenario.num_enrolled s in
  match
    if Scenario.is_fifo s then read_basis ~one_port ~fifo:true q basis
    else if Scenario.is_lifo s then read_basis ~one_port ~fifo:false q basis
    else raise Not_chain
  with
  | exception Not_chain -> Shape
  | ch -> (
    let wk k = Platform.get s.Scenario.platform s.Scenario.sigma1.(k) in
    let field f = Array.init q (fun k -> f (wk k)) in
    let c = field (fun x -> x.Platform.c)
    and w = field (fun x -> x.Platform.w)
    and d = field (fun x -> x.Platform.d) in
    let screen =
      let f = Array.map Q.to_float in
      match Float_chain.run ch ~c:(f c) ~w:(f w) ~d:(f d) with
      | _ -> true
      | exception Reject -> false
    in
    if not screen then Rejected
    else
      match Exact_chain.run ch ~c ~w ~d with
      | exception Reject -> Rejected
      | alpha, rows ->
        (* the point is the basis's vertex: a basic idle variable takes
           its row's gap, every other idle variable is zero *)
        let point = Array.make (2 * q) Q.zero in
        Array.blit alpha 0 point 0 q;
        Array.iter
          (fun j -> if j >= q && j < 2 * q then point.(j) <- Q.sub Q.one rows.(j - q))
          basis;
        Certified
          {
            Simplex.Solver.value = Q.sum_array alpha;
            point;
            pivots = 0;
            basis = Array.copy basis;
          })
