type t = { rounded : Lat_matrix.t; levels : float array }

let copy lat = Lat_matrix.init (Lat_matrix.dim lat) (fun j j' -> Lat_matrix.unsafe_get lat j j')

let finite_off_diagonal lat =
  Lat_matrix.off_diagonal lat |> Array.to_list |> List.filter Float.is_finite |> Array.of_list

(* Nearest center by a linear scan; strict [<] keeps the first of two
   equally near centers. *)
let assign centers x =
  let best = ref 0 and bestd = ref infinity in
  Array.iteri
    (fun i c ->
      let d = Float.abs (x -. c) in
      if d < !bestd then begin
        bestd := d;
        best := i
      end)
    centers;
  centers.(!best)

let cluster ~k lat =
  if k <= 0 then invalid_arg "Cp_reference.Clustering.cluster: k must be positive";
  let values = finite_off_diagonal lat in
  if Array.length values = 0 then { rounded = copy lat; levels = [||] }
  else begin
    let centers = (Kmeans1d.cluster ~k values).Stats.Kmeans1d.centers in
    let rounded =
      Lat_matrix.init (Lat_matrix.dim lat) (fun j j' ->
          if j = j' then 0.0
          else
            let v = Lat_matrix.unsafe_get lat j j' in
            if Float.is_finite v then assign centers v else v)
    in
    { rounded; levels = Array.copy centers }
  end

let none lat =
  let sorted = finite_off_diagonal lat in
  Array.sort Float.compare sorted;
  let out = ref [] in
  Array.iter
    (fun v -> match !out with x :: _ when Float.equal x v -> () | _ -> out := v :: !out)
    sorted;
  { rounded = copy lat; levels = Array.of_list (List.rev !out) }
