module Q = Numeric.Rational

let order platform =
  let ascending =
    Platform.sorted_indices_by platform (fun wk -> wk.Platform.c)
  in
  match Platform.z_ratio platform with
  | Some z when Q.compare z Q.one > 0 ->
    let n = Array.length ascending in
    Array.init n (fun i -> ascending.(n - 1 - i))
  | Some _ | None -> ascending

let solve_order ?model platform ord =
  Solve.solve_exn ~mode:`Exact ?model (Scenario.fifo_exn platform ord)

let optimal ?model platform = solve_order ?model platform (order platform)

type mirrored = { solved : Lp_model.solved; schedule : Schedule.t }

let optimal_via_mirror platform =
  let p = Platform.size platform in
  let exception Zero_d of string in
  match
    Platform.make_exn
      (List.init p (fun i ->
           let wk = Platform.get platform i in
           if Q.is_zero wk.Platform.d then
             raise (Zero_d wk.Platform.name);
           Platform.worker ~name:wk.Platform.name ~c:wk.Platform.d
             ~w:wk.Platform.w ~d:wk.Platform.c ()))
  with
  | exception Zero_d name ->
    Errors.invalid "Fifo.optimal_via_mirror: worker %s has d = 0" name
  | swapped ->
    let solved = optimal swapped in
    let schedule = Schedule.mirror (Schedule.of_solved solved) in
    Ok { solved; schedule }

let optimal_via_mirror_exn platform = Errors.get_exn (optimal_via_mirror platform)
