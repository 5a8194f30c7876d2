type params = {
  comm_jitter : float;
  comp_jitter : float;
  comm_overhead : float;
  comp_overhead : float;
  cache_pressure : float;
}

let default_params =
  {
    comm_jitter = 0.03;
    comp_jitter = 0.05;
    comm_overhead = 0.06;
    comp_overhead = 0.04;
    cache_pressure = 0.25;
  }

let none =
  {
    comm_jitter = 0.0;
    comp_jitter = 0.0;
    comm_overhead = 0.0;
    comp_overhead = 0.0;
    cache_pressure = 0.0;
  }

let make ?(params = default_params) rng ~n =
  let cache = 1.0 +. (params.cache_pressure *. (float_of_int n /. 200.0)) in
  {
    Sim.Star.comm =
      (fun ~worker:_ nominal ->
        nominal
        *. (1.0 +. params.comm_overhead)
        *. Numeric.Prng.lognormal rng ~sigma:params.comm_jitter);
    comp =
      (fun ~worker:_ nominal ->
        nominal *. (1.0 +. params.comp_overhead) *. cache
        *. Numeric.Prng.lognormal rng ~sigma:params.comp_jitter);
  }
