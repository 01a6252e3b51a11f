type t = {
  rounded : Lat_matrix.t;
  levels : float array;
}

let copy lat = Lat_matrix.init (Lat_matrix.dim lat) (fun j j' -> Lat_matrix.unsafe_get lat j j')

(* The rank table sorts NaN lowest, then -inf, and +inf highest, so the
   finite values are the ranks [lo, hi]. Non-finite cells (NaN marks an
   unsampled pair) stay out of k-means, whose guard raises, and out of
   the levels. *)
let finite_ranks values =
  let lo = ref 0 and hi = ref (Array.length values - 1) in
  while !lo <= !hi && not (Float.is_finite values.(!lo)) do incr lo done;
  while !hi >= !lo && not (Float.is_finite values.(!hi)) do decr hi done;
  (!lo, !hi)

(* Each rank's level is computed once, from the rank's value: the cells
   of a class are compare-equal, and ±0 (the one class whose cells differ
   in bits) are equally far from every center. *)
let cluster ?ranks ~k lat =
  if k <= 0 then invalid_arg "Clustering.cluster: k must be positive";
  let r = Lat_matrix.Ranks.reuse ranks lat in
  let values = Lat_matrix.Ranks.values r and table = Lat_matrix.Ranks.table r in
  let lo, hi = finite_ranks values in
  if lo > hi then { rounded = copy lat; levels = [||] }
  else begin
    let m = Lat_matrix.dim lat in
    let counts = Array.make (hi - lo + 1) 0 in
    for j = 0 to m - 1 do
      for j' = 0 to m - 1 do
        let q = table.((j * m) + j') in
        if j <> j' && lo <= q && q <= hi then counts.(q - lo) <- counts.(q - lo) + 1
      done
    done;
    let result = Stats.Kmeans1d.cluster ~k (Array.sub values lo (hi - lo + 1)) counts in
    let level = Array.init (hi - lo + 1) (fun q -> Stats.Kmeans1d.assign result values.(lo + q)) in
    let rounded =
      Lat_matrix.init m (fun j j' ->
          let q = table.((j * m) + j') in
          if j = j' then 0.0
          else if lo <= q && q <= hi then level.(q - lo)
          else Lat_matrix.unsafe_get lat j j')
    in
    { rounded; levels = result.Stats.Kmeans1d.centers }
  end

let none ?ranks lat =
  let values = Lat_matrix.Ranks.values (Lat_matrix.Ranks.reuse ranks lat) in
  let lo, hi = finite_ranks values in
  { rounded = copy lat; levels = Array.sub values lo (hi - lo + 1) }
