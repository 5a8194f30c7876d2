type mode = Lp_model.mode

let solve ?(mode = `Fast) ?model ?warm ?max_float_pivots scenario =
  Lp_model.run mode ?model ?warm ?max_float_pivots scenario

let solve_exn ?mode ?model ?warm ?max_float_pivots scenario =
  Errors.get_exn (solve ?mode ?model ?warm ?max_float_pivots scenario)
