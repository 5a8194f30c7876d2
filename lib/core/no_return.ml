module Q = Numeric.Rational
open Q.Infix

let optimal_order p = Platform.sorted_indices_by p (fun wk -> wk.Platform.c)

let loads p ~order =
  let n = Platform.size p in
  if Array.length order <> n then
    invalid_arg "No_return.loads: order must list every worker";
  let alpha = Array.make n Q.zero in
  let previous = ref None in
  Array.iter
    (fun i ->
      let wk = Platform.get p i in
      let a =
        match !previous with
        | None -> Q.inv (wk.Platform.c +/ wk.Platform.w)
        | Some (prev_alpha, prev_w) ->
          prev_alpha */ prev_w // (wk.Platform.c +/ wk.Platform.w)
      in
      alpha.(i) <- a;
      previous := Some (a, wk.Platform.w))
    order;
  alpha

let throughput p = Q.sum_array (loads p ~order:(optimal_order p))

let strip_returns p =
  Platform.make_exn
    (List.init (Platform.size p) (fun i ->
         let wk = Platform.get p i in
         Platform.worker ~name:wk.Platform.name ~c:wk.Platform.c ~w:wk.Platform.w
           ~d:Q.zero ()))
