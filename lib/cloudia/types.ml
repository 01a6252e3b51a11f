type problem = {
  graph : Graphs.Digraph.t;
  lat : Lat_matrix.t;
}

let validate_matrix lat =
  let m = Lat_matrix.dim lat in
  for j = 0 to m - 1 do
    for j' = 0 to m - 1 do
      let c = Lat_matrix.unsafe_get lat j j' in
      if j = j' then begin
        if c <> 0.0 then invalid_arg "Types.problem: nonzero diagonal"
      end
      (* nan off-diagonal means "unsampled" (partial measurement) and
         is representable so lint can gate it; infinities and negative
         costs remain malformed. The [c <> c] test is nan. *)
      else if (not (Float.is_finite c)) && not (c <> c) then
        invalid_arg "Types.problem: costs must not be infinite"
      else if c < 0.0 then invalid_arg "Types.problem: costs must be non-negative"
    done
  done

let of_matrix ~graph lat =
  validate_matrix lat;
  if Graphs.Digraph.n graph > Lat_matrix.dim lat then
    invalid_arg "Types.problem: more application nodes than instances";
  { graph; lat }

let problem ~graph ~costs =
  let m = Array.length costs in
  Array.iter
    (fun row ->
      if Array.length row <> m then invalid_arg "Types.problem: cost matrix not square")
    costs;
  of_matrix ~graph (Lat_matrix.of_arrays costs)

let node_count t = Graphs.Digraph.n t.graph
let instance_count t = Lat_matrix.dim t.lat

let[@inline] cost t j j' = Lat_matrix.get t.lat j j'
let[@inline] unsafe_cost t j j' = Lat_matrix.unsafe_get t.lat j j'

type plan = int array

let is_valid t plan =
  Array.length plan = node_count t
  && Array.for_all (fun s -> s >= 0 && s < instance_count t) plan
  &&
  let seen = Hashtbl.create (Array.length plan) in
  Array.for_all
    (fun s ->
      if Hashtbl.mem seen s then false
      else begin
        Hashtbl.add seen s ();
        true
      end)
    plan

let validate t plan =
  if Array.length plan <> node_count t then
    invalid_arg "Types.validate: plan length differs from node count";
  Array.iter
    (fun s ->
      if s < 0 || s >= instance_count t then
        invalid_arg "Types.validate: plan maps a node outside the instance set")
    plan;
  if not (is_valid t plan) then invalid_arg "Types.validate: plan is not injective"

let identity_plan t = Array.init (node_count t) (fun i -> i)

let random_plan rng t =
  let perm = Prng.permutation rng (instance_count t) in
  Array.sub perm 0 (node_count t)

let unused_instances t plan =
  let used = Array.make (instance_count t) false in
  Array.iter (fun s -> used.(s) <- true) plan;
  let out = ref [] in
  for s = instance_count t - 1 downto 0 do
    if not used.(s) then out := s :: !out
  done;
  !out

let pp_plan fmt plan =
  Format.fprintf fmt "[";
  Array.iteri (fun i s -> Format.fprintf fmt "%s%d->%d" (if i > 0 then "; " else "") i s) plan;
  Format.fprintf fmt "]"
