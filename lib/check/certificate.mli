(** Independent LP-certificate checking of solved scenarios.

    {!Dls.Solve.solve} already certifies its output against the LP it
    built ({!Simplex.Certify}) — but that check shares the constraint
    {e construction} with the solver, so a bug in the LP builder passes
    through it undetected.  This module re-substitutes a solution into
    the paper's LP (2) directly from the scenario description, with its
    own independent code path: positions are read straight off [sigma1]
    and [sigma2], coefficients straight off the platform.

    Checked, for a {!Dls.Lp_model.solved} value:

    - [alpha_i >= 0] and [x_i >= 0] for every enrolled worker, and
      [alpha_i = 0], [x_i = 0] for every worker outside the scenario;
    - [rho = sum alpha_i];
    - every deadline row of LP (2):
      [sum_(sigma1(j) <= sigma1(i)) alpha_j c_j + alpha_i w_i + x_i
       + sum_(sigma2(j) >= sigma2(i)) alpha_j d_j <= 1];
    - the one-port row (when the model is [One_port]):
      [sum alpha_i (c_i + d_i) <= 1]. *)

module Q = Numeric.Rational

(** [check sol] re-derives the LP (2) constraints and evaluates them at
    [sol]; [Error messages] lists every violated row. *)
val check : Dls.Lp_model.solved -> (unit, string list) result

(** [holds sol] is [check sol = Ok ()]. *)
val holds : Dls.Lp_model.solved -> bool
