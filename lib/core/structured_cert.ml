module Q = Numeric.Rational
module I = Numeric.Integer

type outcome =
  | Certified of { solution : Simplex.Solver.solution; gaps : Q.t array }
  | Rejected
  | Shape

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

(* Under LIFO the one-port row is implied by the last deadline row (the
   same sum plus that worker's compute time), so a basis that makes it
   bind is infeasible or degenerate; the chain reader treats both
   orders alike and lets the test decide. *)
let read ~one_port (s : Scenario.t) ~basis =
  let q = Scenario.num_enrolled s in
  match
    if Scenario.is_fifo s then read_basis ~one_port ~fifo:true q basis
    else if Scenario.is_lifo s then read_basis ~one_port ~fifo:false q basis
    else raise Not_chain
  with
  | exception Not_chain -> None
  | ch -> Some ch

(* The arithmetic the recurrences need, once over floats (the screen)
   and once over integers (the certificate).  No division: every value
   is a numerator over a denominator the chain carries, and the tests
   read the sign of a ratio [n / d].  [sign] serves the primal tests and
   carries the screen's margin.  [positive] serves the strict dual
   tests: the screen rules out only an exact [0.0] (the float image of
   an alternate optimum) or a clearly negative value, and leaves a dual
   too small for doubles to resolve to the exact test.  [invertible]
   guards every factor the rational recurrences would divide by. *)
module type RING = sig
  type t

  val zero : t
  val one : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val sign : t -> t -> int
  val positive : t -> t -> bool
  val invertible : t -> bool
end

(* A ratio that overflows to [nan] fails no screen test: the exact test
   decides it. *)
module Float_ring = struct
  type t = float

  let zero = 0.0
  let one = 1.0
  let add = ( +. )
  let sub = ( -. )
  let mul = ( *. )

  let margin = 1e-7

  let sign n d =
    let x = n /. d in
    if x > margin then 1 else if x < -.margin then -1 else 0

  let positive n d =
    let x = n /. d in
    not (x = 0.0 || x <= -.margin)

  let invertible x = x <> 0.0
end

module Integer_ring = struct
  type t = I.t

  let zero = I.zero
  let one = I.one
  let add = I.add
  let sub = I.sub
  let mul = I.mul
  let sign n d = I.sign n * I.sign d
  let positive n d = sign n d > 0
  let invertible x = not (I.is_zero x)
end

exception Reject

(* The chain over one column scaling of the LP: worker [k]'s column is
   [o_k] in the objective and [c_k, w_k, d_k] in the rows (the float
   screen takes [o = 1]; the certificate scales each column to
   integers, which leaves the rows, the duals and every sign below as
   they are).  The loads [b] share one denominator [e], the duals [y]
   one denominator [g]. *)
module Chain (R : RING) = struct
  (* the last sigma1 position, before the operators below shadow [-] *)
  let top a = Array.length a - 1

  let ( + ) = R.add
  let ( - ) = R.sub
  let ( * ) = R.mul

  let nonzero x = if R.invertible x then x else raise Reject

  let tight_positions ch =
    let ts = ref [] in
    for k = top ch.tight downto 0 do
      if ch.tight.(k) then ts := k :: !ts
    done;
    Array.of_list !ts

  (* Every deadline row's numerator at [b], by a prefix sum of [b c] in
     sigma1 order and a suffix sum of [b d] in sigma2 order (for LIFO
     that suffix is the sigma1 prefix). *)
  let rows ch ~c ~w ~d b =
    let out = Array.map (fun _ -> R.zero) b in
    let acc = ref R.zero in
    for k = 0 to top b do
      acc := !acc + (b.(k) * (if ch.fifo then c.(k) else c.(k) + d.(k)));
      out.(k) <- !acc + (b.(k) * w.(k))
    done;
    if ch.fifo then begin
      let acc = ref R.zero in
      for k = top b downto 0 do
        acc := !acc + (b.(k) * d.(k));
        out.(k) <- out.(k) + !acc
      done
    end;
    out

  (* Primal: subtracting consecutive tight rows k < k' leaves
     FIFO  b_k' (c_k' + w_k')       = b_k (w_k + d_k)
     LIFO  b_k' (c_k' + w_k' + d_k') = b_k w_k,
     so the tight workers' loads are one ratio chain.  Over the product
     of every link's divisor, the numerator of tight worker [i] is the
     product of the links' multipliers before it and of their divisors
     after it.  The first tight row scales the chain — or, when the
     one-port row binds, a 2x2 system with the one-port row in the last
     enrolled worker's load — and gives the common denominator [e]. *)
  let primal ch ts ~c ~w ~d =
    let q = Array.length c and m = Array.length ts in
    let b = Array.make q R.zero in
    if m = 0 then begin
      match ch.binding with
      | None -> raise Reject
      | Some l ->
        b.(l) <- R.one;
        (b, nonzero (c.(l) + d.(l)))
    end
    else begin
      let pre = ref R.one in
      Array.iter
        (fun k ->
          b.(k) <- !pre;
          pre := !pre * (if ch.fifo then w.(k) + d.(k) else w.(k)))
        ts;
      let suf = ref R.one in
      for i = top ts downto 0 do
        let k = ts.(i) in
        b.(k) <- b.(k) * !suf;
        if i > 0 then
          suf := !suf * nonzero (if ch.fifo then c.(k) + w.(k) else c.(k) + w.(k) + d.(k))
      done;
      (* the first tight row at [b]: nothing tight precedes it *)
      let k0 = ts.(0) in
      let r0 =
        if ch.fifo then
          Array.fold_left
            (fun acc k -> acc + (b.(k) * d.(k)))
            (b.(k0) * (c.(k0) + w.(k0)))
            ts
        else b.(k0) * (c.(k0) + w.(k0) + d.(k0))
      in
      match ch.binding with
      | None -> (b, nonzero r0)
      | Some l ->
        let port = Array.fold_left (fun acc k -> acc + (b.(k) * (c.(k) + d.(k)))) R.zero ts in
        (* [a0l]: the last worker's coefficient in the first tight row *)
        let a0l = if ch.fifo then d.(l) else R.zero in
        let pl = c.(l) + d.(l) in
        let det = nonzero ((r0 * pl) - (port * a0l)) in
        let t = pl - a0l in
        Array.iter (fun k -> b.(k) <- t * b.(k)) ts;
        b.(l) <- r0 - port;
        (b, det)
    end

  (* Duals: [y_k = 0] off the tight rows, and the column of each
     enrolled [b_j] prices to exactly [o_j].  FIFO: with [Y = sum y] and
     the prefix [P_j = sum_{i<j} y_i], column j reads
     [c_j (Y - P_j) + d_j (P_j + y_j) + w_j y_j + (c_j + d_j) y_port],
     so each tight [y_j] is affine in [Y] (as is [y_port], pinned by the
     last worker's column), closed by [Y = sum y].  Numerators: [u, v]
     of [y_port] over [d0]; [a_k, b_k] over [d0] times the divisors
     [w + d] up to [k], and the running sums [p0, p1] over all of those
     so far ([pi] is their product without [d0]); then every [y] over
     [g = delta (delta - p1)].  LIFO: column j reads
     [(c_j + d_j)(S_j + y_j + y_port) + w_j y_j] with the suffix
     [S_j = sum_{i>j} y_i]: back substitution, each step adding its
     divisor [c + d + w] to the running denominator. *)
  let duals ch ts ~o ~c ~w ~d =
    let q = Array.length c in
    let y = Array.make q R.zero in
    let d0, u, v =
      match ch.binding with
      | None -> (R.one, R.zero, R.zero)
      | Some l -> (nonzero (c.(l) + d.(l)), o.(l), R.zero - d.(l))
    in
    let delta = ref d0 and pi = ref R.one in
    if ch.fifo then begin
      let a = Array.make q R.zero and bs = Array.make q R.zero in
      let p0 = ref R.zero and p1 = ref R.zero in
      Array.iter
        (fun k ->
          let den = nonzero (w.(k) + d.(k)) and cd = c.(k) + d.(k) and dc = d.(k) - c.(k) in
          a.(k) <- (o.(k) * !delta) - (cd * u * !pi) - (dc * !p0);
          bs.(k) <- R.zero - (c.(k) * !delta) - (cd * v * !pi) - (dc * !p1);
          p0 := (!p0 * den) + a.(k);
          p1 := (!p1 * den) + bs.(k);
          delta := !delta * den;
          pi := !pi * den)
        ts;
      let z = nonzero (!delta - !p1) in
      (* [a_k, b_k] to the final denominator: the divisors after [k] *)
      let s = ref R.one in
      for i = top ts downto 0 do
        let k = ts.(i) in
        y.(k) <- !s * ((a.(k) * z) + (bs.(k) * !p0));
        s := !s * (w.(k) + d.(k))
      done;
      (y, !pi * ((u * z) + (v * !p0)), !delta * z)
    end
    else begin
      let sum = ref R.zero in
      for i = top ts downto 0 do
        let k = ts.(i) in
        let cd = c.(k) + d.(k) in
        let den = nonzero (cd + w.(k)) in
        y.(k) <- (o.(k) * !delta) - (cd * (!sum + (u * !pi)));
        sum := (!sum * den) + y.(k);
        delta := !delta * den;
        pi := !pi * den
      done;
      (* each [y_k] to the final denominator: the divisors below [k] *)
      let s = ref R.one in
      Array.iter
        (fun k ->
          y.(k) <- y.(k) * !s;
          s := !s * (c.(k) + d.(k) + w.(k)))
        ts;
      (y, u * !pi, !delta)
    end

  (* The acceptance test.  Primal: enrolled loads non-negative (a zero
     load is a degenerate vertex, still unique under the strict dual
     test), tight rows exactly 1, every other row and the one-port row
     at most 1.  Dual: [y > 0] on the tight rows and on a binding
     one-port row; enrolled columns price to exactly [o_j] and every
     other column strictly above it.  Each test reads a quantity of the
     unscaled LP — the load [o b / e], a row, a dual, the reduced cost
     [(price - o g) / (o g)] — so a column scaling never moves the
     screen's margins.  Returns the load numerators, their denominator
     and the row numerators, in sigma1 order. *)
  let run ch ~o ~c ~w ~d =
    let ts = tight_positions ch in
    let b, e = primal ch ts ~c ~w ~d in
    Array.iteri (fun k en -> if en && R.sign (o.(k) * b.(k)) e < 0 then raise Reject) ch.enrolled;
    let rows = rows ch ~c ~w ~d b in
    Array.iteri
      (fun k t ->
        let slack = R.sign (e - rows.(k)) e in
        if (t && slack <> 0) || slack < 0 then raise Reject)
      ch.tight;
    if ch.one_port then begin
      let port = ref R.zero in
      Array.iteri (fun k x -> port := !port + (x * (c.(k) + d.(k)))) b;
      let slack = R.sign (e - !port) e in
      if (ch.binding <> None && slack <> 0) || slack < 0 then raise Reject
    end;
    let y, y_port, g = duals ch ts ~o ~c ~w ~d in
    Array.iter (fun k -> if not (R.positive y.(k) g) then raise Reject) ts;
    if ch.binding <> None && not (R.positive y_port g) then raise Reject;
    (* column j's price, from the suffix of [y] in sigma1 order and (FIFO)
       its prefix *)
    let prefix = ref R.zero in
    let total = Array.fold_left ( + ) R.zero y in
    for j = 0 to top c do
      let suffix = total - !prefix in
      prefix := !prefix + y.(j);
      let price =
        if ch.fifo then
          (c.(j) * suffix) + (d.(j) * !prefix) + (w.(j) * y.(j))
          + ((c.(j) + d.(j)) * y_port)
        else ((c.(j) + d.(j)) * (suffix + y_port)) + (w.(j) * y.(j))
      in
      let og = o.(j) * g in
      let reduced = price - og in
      if ch.enrolled.(j) then (if R.sign reduced og <> 0 then raise Reject)
      else if not (R.positive reduced og) then raise Reject
    done;
    (b, e, rows)
end

module Float_chain = Chain (Float_ring)
module Integer_chain = Chain (Integer_ring)

let workers (s : Scenario.t) =
  Array.init (Scenario.num_enrolled s) (fun k ->
      Platform.get s.Scenario.platform s.Scenario.sigma1.(k))

(* The chain's products have degree up to about twice the chain's
   length, so on long chains doubles leave their range.  Every column
   is scaled by one power of two [2^k] that centres the binary exponents
   of [c, w, d] on zero: the scaling is exact, every value the chain
   computes is the unscaled one times a power of two, and the tests
   read unscaled quantities, so the verdicts are those of [k = 0]
   wherever [k = 0] stays in range. *)
let screen ch s =
  let ws = workers s in
  let field f = Array.map (fun x -> Q.to_float (f x)) ws in
  let c = field (fun x -> x.Platform.c)
  and w = field (fun x -> x.Platform.w)
  and d = field (fun x -> x.Platform.d) in
  let sum = ref 0 and count = ref 0 in
  List.iter
    (Array.iter (fun x ->
         if x <> 0.0 then begin
           sum := !sum + int_of_float (Float.log2 (Float.abs x));
           incr count
         end))
    [ c; w; d ];
  let k = - !sum / max 1 !count in
  List.iter (Array.map_inplace (fun x -> Float.ldexp x k)) [ c; w; d ];
  match Float_chain.run ch ~o:(Array.make (Array.length ws) (Float.ldexp 1.0 k)) ~c ~w ~d with
  | _ -> true
  | exception Reject -> false

(* Each worker's [(1, c, w, d)] over its common denominator [o] (the
   lcm of the denominators of [c, w, d]) is an integer column.  The one
   division is here, where the answer is packaged:
   [alpha_k = o_k b_k / e] and the gap [1 - row_k = (e - row_k) / e]. *)
let exact ch s ~basis =
  let cols =
    Array.map
      (fun x -> fst (Q.common_denominator [| Q.one; x.Platform.c; x.Platform.w; x.Platform.d |]))
      (workers s)
  in
  let col i = Array.map (fun v -> v.(i)) cols in
  let o = col 0 in
  match Integer_chain.run ch ~o ~c:(col 1) ~w:(col 2) ~d:(col 3) with
  | exception Reject -> Rejected
  | b, e, rows ->
    let q = Array.length b in
    let loads = Array.map2 I.mul o b in
    let gaps = Array.map (fun r -> Q.make (I.sub e r) e) rows in
    (* the point is the basis's vertex: a basic idle variable takes
       its row's gap, every other idle variable is zero *)
    let point = Array.make (2 * q) Q.zero in
    Array.iteri (fun k x -> point.(k) <- Q.make x e) loads;
    Array.iter (fun j -> if j >= q && j < 2 * q then point.(j) <- gaps.(j - q)) basis;
    Certified
      {
        solution =
          {
            Simplex.Solver.value = Q.make (Array.fold_left I.add I.zero loads) e;
            point;
            pivots = 0;
            basis = Array.copy basis;
          };
        gaps;
      }

let certify ~one_port s ~basis =
  match read ~one_port s ~basis with
  | None -> Shape
  | Some ch -> if screen ch s then exact ch s ~basis else Rejected
