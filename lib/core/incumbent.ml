module Q = Numeric.Rational

type 'p entry = { pos : 'p; sol : Lp_model.solved }
type 'p t = { before : 'p -> 'p -> bool; best : 'p entry option Atomic.t }

let create ~before = { before; best = Atomic.make None }
let solved t = Option.map (fun e -> e.sol) (Atomic.get t.best)

let rec offer t pos (sol : Lp_model.solved) =
  let cur = Atomic.get t.best in
  let better =
    match cur with
    | None -> true
    | Some e ->
      let c = Q.compare sol.Lp_model.rho e.sol.Lp_model.rho in
      c > 0 || (c = 0 && t.before pos e.pos)
  in
  if better && not (Atomic.compare_and_set t.best cur (Some { pos; sol })) then
    offer t pos sol

let prunes t bound ~from =
  match Atomic.get t.best with
  | None -> false
  | Some e ->
    let c = Q.compare bound e.sol.Lp_model.rho in
    c < 0 || (c = 0 && t.before e.pos from)
