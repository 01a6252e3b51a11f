(* Incremental objective evaluation for local-search moves. See the .mli
   for the contract; the representation notes live here.

   Longest link keeps, per edge, only the rank of its cost among the
   distinct values of the cost matrix, plus a count of edges per rank.
   Equal ranks mean compare-equal costs, so ranks alone decide whether a
   move changed an edge, and an edge reached twice in one swap (the edge
   between the two moved nodes) is a no-op the second time. The maximum
   is answered by a top-rank pointer that only needs to move down past
   empty ranks (lazily), because every update that could raise the
   maximum bumps the pointer up eagerly. Ranks are precomputed per
   ordered instance pair, and the undo log is a preallocated array, so a
   proposal allocates nothing on this path.

   Longest path keeps the DAG relaxation array dist.(v) = best path cost
   ending at v. A move can only change dist at topological positions >=
   the earliest moved node, so proposals re-relax that suffix into a
   scratch buffer and commit copies it back. Reads during the suffix pass
   pick scratch or dist by position, so nothing is copied on abort. Sync
   runs the same relaxation from position 0 into dist. It keeps each
   node's running maximum in its output cell, so it allocates nothing,
   and it keeps Cost.eval's operands (start at 0.0, c > acc), so costs
   stay bit-identical. *)

let c_proposals = Obs.Counter.make "delta.proposals"
let c_fallbacks = Obs.Counter.make "delta.fallback_evals"

type link_state = {
  edge_src : int array;
  edge_dst : int array;
  incident : int array array; (* node -> edge indices (in + out) *)
  values : float array; (* rank -> distinct cost value, ascending *)
  m : int; (* instance count: the row stride of [rank_mat] *)
  rank_mat : int array; (* flat [j * m + j'] -> rank of that pair's cost *)
  count : int array; (* rank -> edges currently at this cost *)
  mutable max_rank : int; (* >= highest non-empty rank; exact after queries *)
  edge_rank : int array;
  (* Undo log of the pending proposal, valid on [0, u_len). *)
  u_edge : int array;
  u_rank : int array;
  mutable u_len : int;
}

type path_state = {
  lat : Lat_matrix.buffer; (* hoisted flat cost buffer: direct loads *)
  order : int array; (* topological order of the communication DAG *)
  pos : int array; (* node -> its position in [order] *)
  dist : float array; (* committed relaxation *)
  scratch : float array; (* proposal relaxation, valid from the prefix on *)
}

type repr =
  | Link of link_state
  | Path of path_state
  | Opaque of (Types.plan -> float)

type t = {
  problem : Types.problem;
  repr : repr;
  plan : int array;
  node_of : int array; (* instance -> node, or -1 when free *)
  cost : float array; (* singleton: committed cost, stored unboxed *)
  (* Pending proposal; meaningful only while [p_active]. *)
  mutable p_active : bool;
  mutable p_node : int;
  mutable p_other : int; (* the swapped node, or -1 when the target was free *)
  mutable p_source : int;
  mutable p_target : int;
  mutable p_prefix : int; (* Path only: first re-relaxed topological position *)
  p_cost : float array; (* singleton: proposed cost, stored unboxed *)
  mutable proposals : int;
  mutable fallbacks : int;
}

(* ---------- construction and (re)synchronization ---------- *)

(* The plan-independent half of a longest-link kernel: distinct
   off-diagonal matrix values and the flat pair -> rank table. O(m²) to
   build, immutable afterwards, so a serving cache can compute it once
   per matrix fingerprint and share it across every job and kernel that
   sees the same matrix. *)
type ranks = {
  r_values : float array; (* rank -> distinct cost value, ascending *)
  r_m : int; (* instance count the table was built for *)
  r_rank_mat : int array; (* flat [j * m + j'] -> rank of that pair's cost *)
}

(* Distinct off-diagonal matrix values: every edge cost under every
   injective plan is one of them, so rank lookup never misses. One
   stable sort of the off-diagonal cell indices by [Float.compare] puts
   each class of compare-equal cells (±0 together, every NaN payload
   together) in one run, in row-major order, so the run's first cell is
   the class's value: the first one met in a row-major scan. *)
let ranks_of_matrix lat =
  let m = Lat_matrix.dim lat and data = Lat_matrix.data lat in
  let cells = Array.make (m * m) 0.0 in
  let off = Array.make (max 0 (m * (m - 1))) 0 in
  let k = ref 0 in
  for j = 0 to m - 1 do
    for j' = 0 to m - 1 do
      let c = (j * m) + j' in
      cells.(c) <- Bigarray.Array2.unsafe_get data j j';
      if j <> j' then begin
        off.(!k) <- c;
        incr k
      end
    done
  done;
  Array.stable_sort (fun a b -> Float.compare cells.(a) cells.(b)) off;
  let rank_mat = Array.make (m * m) 0 in
  let top = ref (-1) in
  for q = 0 to Array.length off - 1 do
    if q = 0 || Float.compare cells.(off.(q - 1)) cells.(off.(q)) <> 0 then incr top;
    rank_mat.(off.(q)) <- !top
  done;
  let values = Array.make (!top + 1) 0.0 in
  for q = Array.length off - 1 downto 0 do
    values.(rank_mat.(off.(q))) <- cells.(off.(q))
  done;
  { r_values = values; r_m = m; r_rank_mat = rank_mat }

let rank_values r = Array.copy r.r_values
let rank_table r = Array.copy r.r_rank_mat

let make_link ?ranks (problem : Types.problem) =
  let graph = problem.Types.graph in
  let n = Graphs.Digraph.n graph in
  let edges = Graphs.Digraph.edges graph in
  let incident_lists = Array.make n [] in
  Array.iteri
    (fun e (i, i') ->
      incident_lists.(i) <- e :: incident_lists.(i);
      incident_lists.(i') <- e :: incident_lists.(i'))
    edges;
  let lat = problem.Types.lat in
  let m = Lat_matrix.dim lat in
  let r =
    match ranks with
    | Some r ->
        if r.r_m <> m then
          invalid_arg
            (Printf.sprintf "Delta_cost.create: ranks built for %d instances, matrix has %d"
               r.r_m m);
        r
    | None -> ranks_of_matrix lat
  in
  let ne = Array.length edges in
  {
    edge_src = Array.map fst edges;
    edge_dst = Array.map snd edges;
    incident = Array.map (fun l -> Array.of_list l) incident_lists;
    values = r.r_values;
    m;
    rank_mat = r.r_rank_mat;
    count = Array.make (max 1 (Array.length r.r_values)) 0;
    max_rank = -1;
    edge_rank = Array.make ne 0;
    u_edge = Array.make ne 0;
    u_rank = Array.make ne 0;
    u_len = 0;
  }

let sync_link (t : t) ls =
  Array.fill ls.count 0 (Array.length ls.count) 0;
  ls.max_rank <- -1;
  ls.u_len <- 0;
  for e = 0 to Array.length ls.edge_src - 1 do
    let r = ls.rank_mat.((t.plan.(ls.edge_src.(e)) * ls.m) + t.plan.(ls.edge_dst.(e))) in
    ls.edge_rank.(e) <- r;
    ls.count.(r) <- ls.count.(r) + 1;
    if r > ls.max_rank then ls.max_rank <- r
  done

let[@inline] link_top ls =
  if Array.length ls.edge_src = 0 then 0.0
  else begin
    while ls.max_rank > 0 && ls.count.(ls.max_rank) = 0 do
      ls.max_rank <- ls.max_rank - 1
    done;
    ls.values.(ls.max_rank)
  end

(* Relax topological positions [from..] into [into]. A predecessor at a
   position >= [from] was relaxed into [into] by this pass; one before
   [from] is read from the committed [ps.dist]. *)
let[@cloudia.hot] relax_suffix (t : t) ps ~into ~from =
  let graph = t.problem.Types.graph in
  for k = from to Array.length ps.order - 1 do
    let v = ps.order.(k) in
    let preds = Graphs.Digraph.in_neighbors graph v in
    let jv = t.plan.(v) in
    into.(v) <- 0.0;
    for q = 0 to Array.length preds - 1 do
      let u = preds.(q) in
      let du = if ps.pos.(u) >= from then into.(u) else ps.dist.(u) in
      let c = du +. Bigarray.Array2.unsafe_get ps.lat t.plan.(u) jv in
      if c > into.(v) then into.(v) <- c
    done
  done

let sync_path (t : t) ps =
  relax_suffix t ps ~into:ps.dist ~from:0;
  Array.fold_left Float.max 0.0 ps.dist

let sync t =
  match t.repr with
  | Link ls ->
      sync_link t ls;
      t.cost.(0) <- link_top ls
  | Path ps -> t.cost.(0) <- sync_path t ps
  | Opaque eval -> t.cost.(0) <- eval t.plan

let of_repr problem repr plan0 =
  Types.validate problem plan0;
  let plan = Array.copy plan0 in
  let node_of = Array.make (Types.instance_count problem) (-1) in
  Array.iteri (fun node inst -> node_of.(inst) <- node) plan;
  let t =
    {
      problem;
      repr;
      plan;
      node_of;
      cost = [| 0.0 |];
      p_active = false;
      p_node = -1;
      p_other = -1;
      p_source = -1;
      p_target = -1;
      p_prefix = 0;
      p_cost = [| 0.0 |];
      proposals = 0;
      fallbacks = 0;
    }
  in
  sync t;
  t

let create ?ranks objective problem plan0 =
  let repr =
    match objective with
    | Cost.Longest_link -> Link (make_link ?ranks problem)
    | Cost.Longest_path -> (
        match Graphs.Digraph.topological_order problem.Types.graph with
        | None ->
            invalid_arg
              "Delta_cost.create: the longest-path objective needs an acyclic graph"
        | Some order ->
            let n = Array.length order in
            let pos = Array.make n 0 in
            Array.iteri (fun k v -> pos.(v) <- k) order;
            Path
              {
                lat = Lat_matrix.data problem.Types.lat;
                order;
                pos;
                dist = Array.make n 0.0;
                scratch = Array.make n 0.0;
              })
  in
  of_repr problem repr plan0

let create_eval ~eval problem plan0 = of_repr problem (Opaque eval) plan0

let reset t plan0 =
  if t.p_active then invalid_arg "Delta_cost.reset: a proposal is pending";
  Types.validate t.problem plan0;
  Array.blit plan0 0 t.plan 0 (Array.length t.plan);
  Array.fill t.node_of 0 (Array.length t.node_of) (-1);
  Array.iteri (fun node inst -> t.node_of.(inst) <- node) t.plan;
  sync t

(* ---------- accessors ---------- *)

let cost t = t.cost.(0)
let current t = t.plan
let plan t = Array.copy t.plan
let instance_of t node = t.plan.(node)
let occupant t inst = match t.node_of.(inst) with -1 -> None | node -> Some node
let proposals t = t.proposals
let fallback_evals t = t.fallbacks

let full_cost t =
  if t.p_active then invalid_arg "Delta_cost.full_cost: a proposal is pending";
  match t.repr with
  | Link _ -> Cost.longest_link t.problem t.plan
  | Path _ -> Cost.longest_path t.problem t.plan
  | Opaque eval -> eval t.plan

let flush_counters t =
  Obs.Counter.add c_proposals t.proposals;
  Obs.Counter.add c_fallbacks t.fallbacks;
  t.proposals <- 0;
  t.fallbacks <- 0

(* ---------- the propose / commit / abort protocol ---------- *)

(* [@cloudia.hot]: pass A003 proves the incident-edge sweep stays
   allocation-free — the anneal moves/sec gate (bench fig-delta) decays
   the moment this loop allocates. *)
let[@cloudia.hot] touch_incident t ls moved =
  let inc = ls.incident.(moved) in
  for k = 0 to Array.length inc - 1 do
    let e = inc.(k) in
    let r_old = ls.edge_rank.(e) in
    let r_new = ls.rank_mat.((t.plan.(ls.edge_src.(e)) * ls.m) + t.plan.(ls.edge_dst.(e))) in
    if r_new <> r_old then begin
      let u = ls.u_len in
      ls.u_edge.(u) <- e;
      ls.u_rank.(u) <- r_old;
      ls.u_len <- u + 1;
      ls.count.(r_old) <- ls.count.(r_old) - 1;
      ls.count.(r_new) <- ls.count.(r_new) + 1;
      if r_new > ls.max_rank then ls.max_rank <- r_new;
      ls.edge_rank.(e) <- r_new
    end
  done

(* The proposal's cost goes to [t.p_cost.(0)], not to a result: a float
   returned from a call that is not inlined is boxed. *)
let[@cloudia.hot] propose t ~node ~target =
  if t.p_active then invalid_arg "Delta_cost.propose: a proposal is pending";
  let n = Array.length t.plan and m = Array.length t.node_of in
  if node < 0 || node >= n then invalid_arg "Delta_cost.propose: node out of range";
  if target < 0 || target >= m then invalid_arg "Delta_cost.propose: target out of range";
  let source = t.plan.(node) in
  if target = source then invalid_arg "Delta_cost.propose: node already occupies target";
  let other = t.node_of.(target) in
  (* Apply tentatively; [abort] reverts, [commit] keeps. *)
  t.plan.(node) <- target;
  t.node_of.(target) <- node;
  t.node_of.(source) <- other;
  if other <> -1 then t.plan.(other) <- source;
  t.proposals <- t.proposals + 1;
  t.p_prefix <- 0;
  (match t.repr with
  | Opaque eval ->
      t.fallbacks <- t.fallbacks + 1;
      t.p_cost.(0) <- eval t.plan
  | Link ls ->
      ls.u_len <- 0;
      touch_incident t ls node;
      if other <> -1 then touch_incident t ls other;
      t.p_cost.(0) <- link_top ls
  | Path ps ->
      let prefix =
        if other = -1 then ps.pos.(node) else min ps.pos.(node) ps.pos.(other)
      in
      if prefix = 0 then t.fallbacks <- t.fallbacks + 1;
      relax_suffix t ps ~into:ps.scratch ~from:prefix;
      let best = ref 0.0 in
      for v = 0 to Array.length ps.order - 1 do
        let d = if ps.pos.(v) >= prefix then ps.scratch.(v) else ps.dist.(v) in
        if d > !best then best := d
      done;
      t.p_prefix <- prefix;
      t.p_cost.(0) <- !best);
  t.p_active <- true;
  t.p_node <- node;
  t.p_other <- other;
  t.p_source <- source;
  t.p_target <- target

let[@inline] propose_move t ~node ~target =
  propose t ~node ~target;
  t.p_cost.(0)

let proposed t = t.p_cost

let propose_swap t a b =
  if a = b then invalid_arg "Delta_cost.propose_swap: the two nodes must differ";
  let n = Array.length t.plan in
  if b < 0 || b >= n then invalid_arg "Delta_cost.propose_swap: node out of range";
  propose_move t ~node:a ~target:t.plan.(b)

let propose_relocate t ~node ~target =
  let m = Array.length t.node_of in
  if target < 0 || target >= m then
    invalid_arg "Delta_cost.propose_relocate: target out of range";
  if t.node_of.(target) <> -1 then
    invalid_arg "Delta_cost.propose_relocate: target instance is occupied";
  propose_move t ~node ~target

let commit t =
  if not t.p_active then invalid_arg "Delta_cost.commit: no pending proposal";
  (match t.repr with
  | Path ps ->
      for k = t.p_prefix to Array.length ps.order - 1 do
        let v = ps.order.(k) in
        ps.dist.(v) <- ps.scratch.(v)
      done
  | Link ls -> ls.u_len <- 0
  | Opaque _ -> ());
  t.cost.(0) <- t.p_cost.(0);
  t.p_active <- false

let abort t =
  if not t.p_active then invalid_arg "Delta_cost.abort: no pending proposal";
  t.plan.(t.p_node) <- t.p_source;
  t.node_of.(t.p_source) <- t.p_node;
  t.node_of.(t.p_target) <- t.p_other;
  if t.p_other <> -1 then t.plan.(t.p_other) <- t.p_target;
  (match t.repr with
  | Link ls ->
      for k = ls.u_len - 1 downto 0 do
        let e = ls.u_edge.(k) in
        let r_new = ls.edge_rank.(e) in
        ls.count.(r_new) <- ls.count.(r_new) - 1;
        ls.count.(ls.u_rank.(k)) <- ls.count.(ls.u_rank.(k)) + 1;
        (* The lazy top pointer may have slid past a rank this undo
           repopulates; restore the upper-bound invariant. *)
        if ls.u_rank.(k) > ls.max_rank then ls.max_rank <- ls.u_rank.(k);
        ls.edge_rank.(e) <- ls.u_rank.(k)
      done;
      ls.u_len <- 0
  | Path _ | Opaque _ -> ());
  t.p_active <- false
