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

exception Other_shape

let read_basis ~one_port ~fifo q basis =
  if Array.length basis <> (if one_port then q + 1 else q) then raise Other_shape;
  let enrolled = Array.make q false and free = Array.make q false in
  let port_slack = ref false in
  let mark a k =
    if a.(k) then raise Other_shape;
    a.(k) <- true
  in
  Array.iter
    (fun j ->
      if j < 0 then raise Other_shape
      else if j < q then mark enrolled j
      else if j < 2 * q then mark free (j - q)
      else if j < 3 * q then mark free (j - (2 * q))
      else if one_port && j = 3 * q && not !port_slack then port_slack := true
      else raise Other_shape)
    basis;
  let last = ref (-1) in
  Array.iteri (fun k e -> if e then last := k) enrolled;
  if !last < 0 then raise Other_shape;
  let binding = if one_port && not !port_slack then Some !last else None in
  let tight = Array.init q (fun k -> enrolled.(k) && binding <> Some k) in
  Array.iteri (fun k t -> if t = free.(k) then raise Other_shape) tight;
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
    else raise Other_shape
  with
  | exception Other_shape -> None
  | ch -> Some ch

(* The arithmetic the recurrences need, once over floats (the screen)
   and once over integers (the certificate).  No division: every value
   is a numerator over a denominator the chain carries, and the tests
   read the sign of a ratio [n / d].  [sign] serves the primal tests and
   carries the screen's margin.  [negative] serves the dual tests
   ([y >= 0], reduced costs [<= 0]): the screen rules out only a clearly
   negative value, and leaves a dual too small for doubles to resolve,
   zero included, to the exact test.  [invertible] guards every factor
   the rational recurrences would divide by. *)
module type RING = sig
  type t

  val zero : t
  val one : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val sign : t -> t -> int
  val negative : t -> t -> bool
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

  let negative n d = n /. d <= -.margin

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
  let negative n d = sign n d < 0
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

  (* The primal half of the test: enrolled loads non-negative (a zero
     load is a degenerate vertex), tight rows exactly 1, every other row
     and the one-port row at most 1.  Returns the load numerators, their
     denominator and the row numerators, in sigma1 order. *)
  let vertex ch ts ~o ~c ~w ~d =
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
    (b, e, rows)

  (* Each [alpha_j] column's price [y . A_j] over the duals' denominator,
     from the suffix of [y] in sigma1 order and (FIFO) its prefix. *)
  let prices ch ~c ~w ~d y y_port =
    let prefix = ref R.zero in
    let total = Array.fold_left ( + ) R.zero y in
    Array.mapi
      (fun j yj ->
        let suffix = total - !prefix in
        prefix := !prefix + yj;
        if ch.fifo then
          (c.(j) * suffix) + (d.(j) * !prefix) + (w.(j) * yj) + ((c.(j) + d.(j)) * y_port)
        else ((c.(j) + d.(j)) * (suffix + y_port)) + (w.(j) * yj))
      y

  (* The acceptance test: [vertex], then the dual half.  [y >= 0] on the
     tight rows and on a binding one-port row; enrolled columns price to
     exactly [o_j] and every other column at least to it.  Each test
     reads a quantity of the unscaled LP — the load [o b / e], a row, a
     dual, the reduced cost [(price - o g) / (o g)] — so a column
     scaling never moves the screen's margins.  Returns [vertex]'s
     values, then the duals [y], [y_port] over [g] and the reduced-cost
     numerators [price - o g], in sigma1 order. *)
  let run ch ~o ~c ~w ~d =
    let ts = tight_positions ch in
    let b, e, rows = vertex ch ts ~o ~c ~w ~d in
    let y, y_port, g = duals ch ts ~o ~c ~w ~d in
    Array.iter (fun k -> if R.negative y.(k) g then raise Reject) ts;
    if ch.binding <> None && R.negative y_port g then raise Reject;
    let reduced = Array.mapi (fun j price -> price - (o.(j) * g)) (prices ch ~c ~w ~d y y_port) in
    Array.iteri
      (fun j r ->
        let og = o.(j) * g in
        if ch.enrolled.(j) then (if R.sign r og <> 0 then raise Reject)
        else if R.negative r og then raise Reject)
      reduced;
    (b, e, rows, y, y_port, g, reduced)

  (* The duals [y], [y_port] over [g] of the objective [o] on the
     chain's basis, and each [alpha_j] column's price over [g]. *)
  let objective ch ~o ~c ~w ~d =
    let y, y_port, g = duals ch (tight_positions ch) ~o ~c ~w ~d in
    (y, y_port, g, prices ch ~c ~w ~d y y_port)
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
let float_columns s =
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
  (Array.make (Array.length ws) (Float.ldexp 1.0 k), c, w, d)

let screen ch s =
  let o, c, w, d = float_columns s in
  match Float_chain.run ch ~o ~c ~w ~d with _ -> true | exception Reject -> false

(* Each worker's [(1, c, w, d)] over its common denominator [o] (the
   lcm of the denominators of [c, w, d]) is an integer column. *)
let integer_columns s =
  let cols =
    Array.map
      (fun x -> fst (Q.common_denominator [| Q.one; x.Platform.c; x.Platform.w; x.Platform.d |]))
      (workers s)
  in
  let col i = Array.map (fun v -> v.(i)) cols in
  (col 0, col 1, col 2, col 3)

(* The one division is here, where an answer is packaged:
   [alpha_k = o_k b_k / e] and the gap [1 - row_k = (e - row_k) / e].
   A basic idle variable of [basis] takes its row's gap, every other
   idle variable is zero: on the chain's own basis, its vertex. *)
let package ~basis o b e rows =
  let q = Array.length b in
  let loads = Array.map2 I.mul o b in
  let gaps = Array.map (fun r -> Q.make (I.sub e r) e) rows in
  let point = Array.make (2 * q) Q.zero in
  Array.iteri (fun k x -> point.(k) <- Q.make x e) loads;
  Array.iter (fun j -> if j >= q && j < 2 * q then point.(j) <- gaps.(j - q)) basis;
  ( {
      Simplex.Solver.value = Q.make (Array.fold_left I.add I.zero loads) e;
      point;
      pivots = 0;
      basis = Array.copy basis;
    },
    gaps )

(* The exact test, unscreened: [run] proves the basis optimal, and it
   is the unique optimum when no dual of a binding row and no reduced
   cost off the enrolled loads is zero. *)
let exact ch s ~basis =
  let o, c, w, d = integer_columns s in
  match Integer_chain.run ch ~o ~c ~w ~d with
  | exception Reject -> Rejected
  | b, e, rows, y, y_port, _, reduced ->
    let nonzero x = not (I.is_zero x) in
    if
      (ch.binding = None || nonzero y_port)
      && Array.for_all2 (fun t yk -> (not t) || nonzero yk) ch.tight y
      && Array.for_all2 (fun en r -> en || nonzero r) ch.enrolled reduced
    then
      let solution, gaps = package ~basis o b e rows in
      Certified { solution; gaps }
    else Rejected

let certify ~one_port s ~basis =
  match read ~one_port s ~basis with
  | None -> Shape
  | Some ch -> if screen ch s then exact ch s ~basis else Rejected

(* ------------------------------------------------------------------ *)
(* The normal form of an optimal face                                  *)

(* FIFO under one-port with one return ratio [z]: when the one-port row
   binds at every optimum, every optimum sends [C = sum c alpha =
   1/(1+z)] and returns [D = sum d alpha = z/(1+z)], and row [k] reads
   [D + sum_{j<k} (c_j - d_j) alpha_j + (c_k + w_k) alpha_k], a function
   of the loads up to [k].  So, in sigma1 order, a worker's load is at
   most [(1 - D - L) / (c + w)] (its row) and at most [(C - S) / c] (the
   port's rest), with [L] and [S] the prefix sums of [(c - d) alpha] and
   [c alpha].  From worker [first] on, the float walk takes the row's
   bound while the port's is larger and returns the first worker [m]
   where it is not: the closing worker of a normal form's chain. *)
let closing_worker (c, w, d) ~first =
  let z = d.(0) /. c.(0) in
  let rest = 1.0 /. (1.0 +. z) and returns = z /. (1.0 +. z) in
  let rec walk k l sent =
    if k >= Array.length c then None
    else
      let row = (1.0 -. returns -. l) /. (c.(k) +. w.(k)) and port = (rest -. sent) /. c.(k) in
      if port <= row then Some k
      else walk (k + 1) (l +. ((c.(k) -. d.(k)) *. row)) (sent +. (c.(k) *. row))
  in
  walk first 0.0 0.0

let one_ratio ws =
  let x0 = ws.(0) in
  Array.for_all
    (fun (x : Platform.worker) ->
      Q.equal (Q.mul x.Platform.d x0.Platform.c) (Q.mul x0.Platform.d x.Platform.c))
    ws

(* The chain's own basis: the enrolled loads, and the slack of every row
   that does not bind (and of the one-port row, unless it binds). *)
let chain_basis ch =
  let q = Array.length ch.enrolled in
  let loads = List.filter (fun k -> ch.enrolled.(k)) (List.init q Fun.id) in
  let slacks = List.filter (fun k -> not ch.tight.(k)) (List.init q Fun.id) in
  Array.of_list
    (loads
    @ List.map (fun k -> (2 * q) + k) slacks
    @ if ch.one_port && ch.binding = None then [ 3 * q ] else [])

(* A candidate chain of the normal form, with what makes its vertex the
   lexicographic maximum once the chain passes the non-strict test (an
   optimal basis, so the vertex is an optimum):
   - every position in [skipped] prices strictly above its objective,
     so its load is zero at every optimum;
   - [Row_bounds]: every load sits at a bound that holds on every
     optimum with the same earlier loads (the one-port dual must be
     positive under FIFO, see [closing_worker]);
   - [Unique_max a]: the vertex is the only optimum with the largest
     load at position [a].  On this basis every column that keeps the
     optimum when it enters (a zero reduced cost off the twins) must
     lower load [a] — a positive price for the objective [alpha_a]
     alone — so for a small [eps] the vertex is the only maximum of
     [sum alpha + eps alpha_a]. *)
type proof = Row_bounds | Unique_max of int

type candidate = { chain : chain; skipped : int list; proof : proof }

let passes (type t) (module R : RING with type t = t) ~run ~objective (o : t array) cand =
  let ch = cand.chain in
  match run ch with
  | exception Reject -> None
  | b, e, rows, y, y_port, g, reduced ->
    let priced k = R.sign reduced.(k) (R.mul o.(k) g) > 0 in
    let proved =
      match cand.proof with
      | Row_bounds -> (not ch.fifo) || R.sign y_port g > 0
      | Unique_max a ->
        let o' = Array.mapi (fun k x -> if k = a then x else R.zero) o in
        let y', y_port', g', prices' = objective ch o' in
        let lowers sign_primary sign_a = sign_primary > 0 || sign_a > 0 in
        (ch.binding = None || lowers (R.sign y_port g) (R.sign y_port' g'))
        && Array.for_all Fun.id
             (Array.mapi
                (fun k t ->
                  ((not t) || lowers (R.sign y.(k) g) (R.sign y'.(k) g'))
                  && (ch.enrolled.(k)
                     || lowers (R.sign reduced.(k) (R.mul o.(k) g)) (R.sign prices'.(k) g')))
                ch.tight)
    in
    if proved && List.for_all priced cand.skipped then Some (b, e, rows) else None

(* The first candidate that passes, screened by the float run; the
   integer columns are built for the first candidate the screen lets
   through. *)
let first_proved (fo, fc, fw, fd) integers candidates =
  let prove cand =
    match
      passes (module Float_ring)
        ~run:(fun ch -> Float_chain.run ch ~o:fo ~c:fc ~w:fw ~d:fd)
        ~objective:(fun ch o -> Float_chain.objective ch ~o ~c:fc ~w:fw ~d:fd)
        fo cand
    with
    | None -> None
    | Some _ ->
      let io, ic, iw, id = Lazy.force integers in
      Option.map
        (fun found -> (cand.chain, found))
        (passes (module Integer_ring)
           ~run:(fun ch -> Integer_chain.run ch ~o:io ~c:ic ~w:iw ~d:id)
           ~objective:(fun ch o -> Integer_chain.objective ch ~o ~c:ic ~w:iw ~d:id)
           io cand)
  in
  Seq.find_map prove candidates

(* FIFO chains loaded from the front: for each first worker [first],
   workers [first .. m - 1] to their deadlines and [m] closing; a near
   tie of the two bounds can put the float walk one worker off. *)
let fifo_candidates ~one_port (_, c, w, d) =
  let q = Array.length c in
  Seq.concat_map
    (fun first ->
      match closing_worker (c, w, d) ~first with
      | None -> Seq.empty
      | Some m ->
        Seq.filter_map
          (fun m ->
            if m < first || m >= q then None
            else
              Some
                {
                  chain =
                    {
                      fifo = true;
                      one_port;
                      enrolled = Array.init q (fun k -> k >= first && k <= m);
                      tight = Array.init q (fun k -> k >= first && k < m);
                      binding = Some m;
                    };
                  skipped = List.init first Fun.id;
                  proof = Row_bounds;
                })
          (List.to_seq [ m; m + 1; m - 1 ]))
    (Seq.init q Fun.id)

(* The same chains loaded from the back, in mirrored positions (see
   [normal_form]): the mirrored walk loads the last workers to their
   deadlines and closes the one-port row at [m]; the closing load goes
   to [m] or to an earlier worker with the same [c] (and [d]), the
   workers between idle.  [same_cost k l] compares mirrored positions. *)
let mirrored_candidates ~one_port ~same_cost (_, c, w, d) =
  let q = Array.length c in
  match closing_worker (c, w, d) ~first:0 with
  | None -> Seq.empty
  | Some m ->
    Seq.concat_map
      (fun m ->
        if m < 0 || m >= q then Seq.empty
        else
          Seq.filter_map
            (fun l ->
              if l = m || (l > m && same_cost l m) then
                Some
                  {
                    chain =
                      {
                        fifo = true;
                        one_port;
                        enrolled = Array.init q (fun k -> k < m || k = l);
                        tight = Array.init q (fun k -> k < m);
                        binding = Some l;
                      };
                    skipped = List.init (q - 1 - l) (fun i -> l + 1 + i);
                    proof = Unique_max l;
                  }
              else None)
            (Seq.init (q - m) (fun i -> q - 1 - i)))
      (List.to_seq [ m; m + 1; m - 1 ])

let reverse a =
  let n = Array.length a in
  Array.init n (fun i -> a.(n - 1 - i))

let normal_form ~one_port s =
  let ws = workers s in
  let q = Array.length ws in
  let floats = float_columns s in
  let integers = lazy (integer_columns s) in
  (* a proved chain's answer, back in sigma1 positions *)
  let answer ~mirrored (ch, (b, e, rows)) =
    let back a = if mirrored then reverse a else a in
    let position k = if mirrored then q - 1 - k else k in
    let basis =
      Array.map (fun j -> if j < 3 * q then (j / q * q) + position (j mod q) else j) (chain_basis ch)
    in
    let o, _, _, _ = Lazy.force integers in
    package ~basis o (back b) e (back rows)
  in
  if Scenario.is_lifo s then
    let all = Array.make q true in
    Option.map (answer ~mirrored:false)
      (first_proved floats integers
         (Seq.return
            {
              chain = { fifo = false; one_port; enrolled = all; tight = all; binding = None };
              skipped = [];
              proof = Row_bounds;
            }))
  else if Scenario.is_fifo s && one_port && one_ratio ws then
    match first_proved floats integers (fifo_candidates ~one_port floats) with
    | Some found -> Some (answer ~mirrored:false found)
    | None when Q.is_zero ws.(0).Platform.d -> None
    | None ->
      (* Theorem 1's mirror: reversing sigma1 and swapping [c] and [d]
         gives the same LP, row for row *)
      let mirror (o, c, w, d) = (reverse o, reverse d, reverse w, reverse c) in
      let same_cost k l = Q.equal ws.(q - 1 - k).Platform.c ws.(q - 1 - l).Platform.c in
      let floats = mirror floats in
      Option.map (answer ~mirrored:true)
        (first_proved floats (lazy (mirror (Lazy.force integers)))
           (mirrored_candidates ~one_port ~same_cost floats))
  else None
