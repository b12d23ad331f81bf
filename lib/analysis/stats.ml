let check_nonempty name a =
  if Array.length a = 0 then invalid_arg (name ^ ": empty array")

let mean a =
  check_nonempty "Stats.mean" a;
  Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let variance a =
  check_nonempty "Stats.variance" a;
  let m = mean a in
  let sum = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. a in
  sum /. float_of_int (Array.length a)

let stddev a = sqrt (variance a)

(* [pearson_by n x y] is [pearson] of the series [x 0 .. x (n-1)] and
   [y 0 .. y (n-1)], with the same operations in the same order (the
   means are [mean]'s left folds). *)
let pearson_by n x y =
  if n <= 0 then invalid_arg "Stats.pearson: length mismatch or empty";
  let mean_of f =
    let s = ref 0. in
    for i = 0 to n - 1 do
      s := !s +. f i
    done;
    !s /. float_of_int n
  in
  let mx = mean_of x and my = mean_of y in
  let sxy = ref 0. and sxx = ref 0. and syy = ref 0. in
  for i = 0 to n - 1 do
    let dx = x i -. mx and dy = y i -. my in
    sxy := !sxy +. (dx *. dy);
    sxx := !sxx +. (dx *. dx);
    syy := !syy +. (dy *. dy)
  done;
  if !sxx <= 1e-12 || !syy <= 1e-12 then 0.
  else !sxy /. sqrt (!sxx *. !syy)

let pearson xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then
    invalid_arg "Stats.pearson: length mismatch or empty";
  pearson_by n (Array.get xs) (Array.get ys)

let sorted_copy a =
  let b = Array.copy a in
  Array.sort compare b;
  b

let median a =
  check_nonempty "Stats.median" a;
  let b = sorted_copy a in
  let n = Array.length b in
  if n mod 2 = 1 then b.(n / 2) else (b.((n / 2) - 1) +. b.(n / 2)) /. 2.

let percentile a ~p =
  check_nonempty "Stats.percentile" a;
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let b = sorted_copy a in
  let n = Array.length b in
  let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
  b.(max 0 (min (n - 1) (rank - 1)))

let minimum a =
  check_nonempty "Stats.minimum" a;
  Array.fold_left Float.min a.(0) a

let maximum a =
  check_nonempty "Stats.maximum" a;
  Array.fold_left Float.max a.(0) a

let histogram a ~bins ~lo ~hi =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  if hi <= lo then invalid_arg "Stats.histogram: empty range";
  let counts = Array.make bins 0 in
  let width = (hi -. lo) /. float_of_int bins in
  Array.iter
    (fun x ->
      let bin = int_of_float ((x -. lo) /. width) in
      let bin = max 0 (min (bins - 1) bin) in
      counts.(bin) <- counts.(bin) + 1)
    a;
  counts
