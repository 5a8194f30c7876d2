(* The optimal LIFO sending order is non-decreasing [c] for EVERY
   uniform return ratio, unlike FIFO: mirroring a LIFO schedule
   (time flip, [c <-> d]) maps [sigma1 = reverse sigma2] back to the
   same [sigma1], so the [z > 1] mirror argument does not reverse the
   order.  (Flipping it, as {!Fifo.order} must, is a strict loss —
   caught by the differential fuzzer in [Check.Fuzz].) *)
let order platform =
  Platform.sorted_indices_by platform (fun wk -> wk.Platform.c)

let solve_order ?model platform ord =
  Solve.solve_exn ~mode:`Exact ?model (Scenario.lifo_exn platform ord)

let optimal ?model platform = solve_order ?model platform (order platform)
