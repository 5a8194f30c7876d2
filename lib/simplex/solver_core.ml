module Make (F : Field.S) = struct
  type solution = {
    value : F.t;
    point : F.t array;
    pivots : int;
    basis : int array;
  }

  type outcome = Optimal of solution | Unbounded | Infeasible | Stalled

  exception Pivot_cap

  (* Dense tableau over F: one row per constraint and the objective row,
     each [total + 1] wide, the right-hand side last. *)
  type tableau = {
    rows : F.t array array;
    obj : F.t array;
    basis : int array;
    allowed : bool array;
    total : int;
    max_pivots : int;
    mutable pivots : int;
  }

  let pivot t ~row ~col =
    if t.pivots >= t.max_pivots then raise Pivot_cap;
    let m = Array.length t.rows in
    let width = t.total + 1 in
    let pr = t.rows.(row) in
    let inv_p = F.inv pr.(col) in
    for j = 0 to width - 1 do
      pr.(j) <- F.mul pr.(j) inv_p
    done;
    let eliminate target =
      let f = target.(col) in
      if F.sign f <> 0 then
        for j = 0 to width - 1 do
          target.(j) <- F.sub target.(j) (F.mul f pr.(j))
        done
    in
    for i = 0 to m - 1 do
      if i <> row then eliminate t.rows.(i)
    done;
    eliminate t.obj;
    t.basis.(row) <- col;
    t.pivots <- t.pivots + 1

  let rec optimize t =
    let m = Array.length t.rows in
    let entering = ref (-1) in
    (try
       for j = 0 to t.total - 1 do
         if t.allowed.(j) && F.sign t.obj.(j) > 0 then begin
           entering := j;
           raise Exit
         end
       done
     with Exit -> ());
    if !entering < 0 then `Optimal
    else begin
      let col = !entering in
      let best_row = ref (-1) in
      let best_ratio = ref F.zero in
      for i = 0 to m - 1 do
        let a = t.rows.(i).(col) in
        if F.sign a > 0 then begin
          let ratio = F.div t.rows.(i).(t.total) a in
          let better =
            !best_row < 0
            || F.compare ratio !best_ratio < 0
            || (F.compare ratio !best_ratio = 0 && t.basis.(i) < t.basis.(!best_row))
          in
          if better then begin
            best_row := i;
            best_ratio := ratio
          end
        end
      done;
      if !best_row < 0 then `Unbounded
      else begin
        pivot t ~row:!best_row ~col;
        optimize t
      end
    end

  let install_objective t c =
    Array.blit c 0 t.obj 0 (t.total + 1);
    Array.iteri
      (fun i bv ->
        let f = t.obj.(bv) in
        if F.sign f <> 0 then begin
          let row = t.rows.(i) in
          for j = 0 to t.total do
            t.obj.(j) <- F.sub t.obj.(j) (F.mul f row.(j))
          done
        end)
      t.basis

  let solve ?(max_pivots = 100_000) (p : Problem.t) =
    (* Standard form: a slack per inequality, an artificial per [>=] or
       [=] row, the artificials basic where there is no slack. *)
    let n = Problem.num_vars p in
    let m = Problem.num_constraints p in
    let oriented = Array.map Problem.orient p.Problem.constraints in
    let n_slack =
      Array.fold_left
        (fun acc c ->
          match c.Problem.relation with Problem.Eq -> acc | _ -> acc + 1)
        0 oriented
    in
    let n_art =
      Array.fold_left
        (fun acc c ->
          match c.Problem.relation with Problem.Le -> acc | _ -> acc + 1)
        0 oriented
    in
    let total = n + n_slack + n_art in
    let rows = Array.init m (fun _ -> Array.make (total + 1) F.zero) in
    let basis = Array.make m (-1) in
    let next_slack = ref n in
    let next_art = ref (n + n_slack) in
    Array.iteri
      (fun i c ->
        Array.iteri (fun j q -> rows.(i).(j) <- F.of_rational q) c.Problem.coeffs;
        rows.(i).(total) <- F.of_rational c.Problem.rhs;
        (match c.Problem.relation with
        | Problem.Le ->
          rows.(i).(!next_slack) <- F.one;
          basis.(i) <- !next_slack;
          incr next_slack
        | Problem.Ge ->
          rows.(i).(!next_slack) <- F.minus_one;
          incr next_slack;
          rows.(i).(!next_art) <- F.one;
          basis.(i) <- !next_art;
          incr next_art
        | Problem.Eq ->
          rows.(i).(!next_art) <- F.one;
          basis.(i) <- !next_art;
          incr next_art))
      oriented;
    let t =
      {
        rows;
        obj = Array.make (total + 1) F.zero;
        basis;
        allowed = Array.make total true;
        total;
        max_pivots;
        pivots = 0;
      }
    in
    let maximize_sign =
      match p.Problem.direction with
      | Problem.Maximize -> F.one
      | Problem.Minimize -> F.minus_one
    in
    let phase2 () =
      let c = Array.make (total + 1) F.zero in
      Array.iteri
        (fun j v -> c.(j) <- F.mul maximize_sign (F.of_rational v))
        p.Problem.objective;
      install_objective t c;
      match optimize t with
      | `Unbounded -> Unbounded
      | `Optimal ->
        let point = Array.make n F.zero in
        Array.iteri
          (fun i bv -> if bv < n then point.(bv) <- t.rows.(i).(total))
          t.basis;
        let value = F.mul maximize_sign (F.neg t.obj.(total)) in
        Optimal { value; point; pivots = t.pivots; basis = Array.copy t.basis }
    in
    try
      if n_art = 0 then phase2 ()
      else begin
        let c1 = Array.make (total + 1) F.zero in
        for j = n + n_slack to total - 1 do
          c1.(j) <- F.minus_one
        done;
        install_objective t c1;
        (match optimize t with
        | `Unbounded -> assert false
        | `Optimal -> ());
        if F.sign (F.neg t.obj.(total)) < 0 then Infeasible
        else begin
          Array.iteri
            (fun i bv ->
              if bv >= n + n_slack then begin
                let col = ref (-1) in
                (try
                   for j = 0 to n + n_slack - 1 do
                     if F.sign t.rows.(i).(j) <> 0 then begin
                       col := j;
                       raise Exit
                     end
                   done
                 with Exit -> ());
                if !col >= 0 then pivot t ~row:i ~col:!col
              end)
            t.basis;
          for j = n + n_slack to total - 1 do
            t.allowed.(j) <- false
          done;
          phase2 ()
        end
      end
    with Pivot_cap -> Stalled
end
