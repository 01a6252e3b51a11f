type t = {
  rounded : Lat_matrix.t;
  levels : float array;
}

let copy lat = Lat_matrix.init (Lat_matrix.dim lat) (fun j j' -> Lat_matrix.unsafe_get lat j j')

(* Non-finite off-diagonals are legal (NaN marks unsampled pairs): they
   must neither reach Kmeans1d (whose guard raises) nor the level set
   (where NaN defeats dedup and poisons thresholds_below). *)
let finite_off_diagonal lat =
  let values = Lat_matrix.off_diagonal lat in
  let n = ref 0 in
  Array.iter (fun v -> if Float.is_finite v then incr n) values;
  if !n = Array.length values then values
  else begin
    let out = Array.make !n 0.0 in
    let k = ref 0 in
    Array.iter
      (fun v ->
        if Float.is_finite v then begin
          out.(!k) <- v;
          incr k
        end)
      values;
    out
  end

let cluster ~k lat =
  if k <= 0 then invalid_arg "Clustering.cluster: k must be positive";
  let values = finite_off_diagonal lat in
  if Array.length values = 0 then { rounded = copy lat; levels = [||] }
  else begin
    let result = Stats.Kmeans1d.cluster ~k values in
    let rounded =
      Lat_matrix.init (Lat_matrix.dim lat) (fun j j' ->
          if j = j' then 0.0
          else
            let v = Lat_matrix.unsafe_get lat j j' in
            if Float.is_finite v then Stats.Kmeans1d.assign result v else v)
    in
    { rounded; levels = Array.copy result.Stats.Kmeans1d.centers }
  end

let none lat =
  let values = finite_off_diagonal lat in
  let distinct =
    let sorted = Array.copy values in
    Array.sort Float.compare sorted;
    let out = ref [] in
    Array.iter
      (fun v -> match !out with x :: _ when Float.equal x v -> () | _ -> out := v :: !out)
      sorted;
    Array.of_list (List.rev !out)
  in
  { rounded = copy lat; levels = distinct }

let thresholds_below t cost =
  Array.fold_left (fun acc level -> if level < cost then level :: acc else acc) [] t.levels
