type scenario = Homogeneous | Hom_comm_het_comp | Heterogeneous
type factors = { comm : int array; comp : int array }

let scenario_name = function
  | Homogeneous -> "homogeneous"
  | Hom_comm_het_comp -> "hom-comm/het-comp"
  | Heterogeneous -> "heterogeneous"

let draw rng = Numeric.Prng.int_range rng ~lo:1 ~hi:10

let factors rng scenario ~workers =
  if workers <= 0 then invalid_arg "Gen.factors: need at least one worker";
  match scenario with
  | Homogeneous ->
    let comm = draw rng and comp = draw rng in
    { comm = Array.make workers comm; comp = Array.make workers comp }
  | Hom_comm_het_comp ->
    let comm = draw rng in
    { comm = Array.make workers comm; comp = Array.init workers (fun _ -> draw rng) }
  | Heterogeneous ->
    {
      comm = Array.init workers (fun _ -> draw rng);
      comp = Array.init workers (fun _ -> draw rng);
    }

let scale ?(comm_times = 1) ?(comp_times = 1) f =
  if comm_times <= 0 || comp_times <= 0 then
    invalid_arg "Gen.scale: factors must be positive";
  {
    comm = Array.map (fun x -> x * comm_times) f.comm;
    comp = Array.map (fun x -> x * comp_times) f.comp;
  }

let platform machine ~n f = Workload.platform machine ~n ~comm:f.comm ~comp:f.comp
