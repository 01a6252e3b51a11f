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
   ending at v. A move changes the costs of the edges at the moved nodes,
   so a proposal marks those nodes and their successors dirty, then walks
   topological positions from the earliest moved node, relaxing only
   dirty nodes into a scratch buffer. A node whose new value differs from
   its committed one is recorded as changed and dirties its successors; a
   node whose value is unchanged stops the propagation there. Reads pick
   scratch for changed nodes and dist for the rest, so abort copies
   nothing and commit copies the changed nodes only. A per-node stamp
   (epoch: dirty, epoch + 1: changed) needs no clearing between
   proposals. Sync runs the same relaxation body over every position into
   dist. It keeps each node's running maximum in its output cell, so it
   allocates nothing, and it keeps Cost.eval's operands (start at 0.0,
   c > acc), so costs stay bit-identical. dist is never NaN or -0.0, so
   float equality is bit equality and the cutoff is exact. *)

let c_proposals = Obs.Counter.make "delta.proposals"
let c_fallbacks = Obs.Counter.make "delta.fallback_evals"
let c_relaxations = Obs.Counter.make "delta.path_relaxations"

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
  scratch : float array; (* proposal relaxation, valid where [stamp] = epoch + 1 *)
  stamp : int array; (* node -> [epoch]: dirty; [epoch + 1]: changed; else clean *)
  mutable epoch : int; (* even; advanced by 2 per pass *)
  mutable hi : int; (* highest dirty position of the pending pass *)
  changed : int array; (* nodes the pending proposal changed, on [0, n_changed) *)
  mutable n_changed : int;
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
  p_cost : float array; (* singleton: proposed cost, stored unboxed *)
  mutable proposals : int;
  mutable fallbacks : int;
  mutable relaxations : int; (* Path only: nodes re-relaxed by proposals *)
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
   injective plan is one of them, so rank lookup never misses. The
   off-diagonal cell indices are sorted by an order-preserving 64-bit key
   (every NaN is 0, ±0 share +0's key, other values flip the sign bit if
   positive and every bit if negative), so unsigned key order is
   [Float.compare]'s order and equal keys are compare-equal cells. The
   sort is a stable LSD radix sort over the key's 8 bytes, the key held
   as two 32-bit halves in [keys.(2c)] (low) and [keys.(2c + 1)] (high);
   a byte every key shares skips its pass. Stability keeps each class's
   cells in row-major order, so the first cell of a run is the class's
   value: the first one met in a row-major scan. *)
let[@cloudia.hot] ranks_of_matrix lat =
  let m = Lat_matrix.dim lat and data = Lat_matrix.data lat in
  let len = max 0 (m * (m - 1)) in
  let keys = Array.make (2 * m * m) 0 in
  let off = Array.make len 0 and tmp = Array.make len 0 in
  let hist = Array.make (8 * 256) 0 in
  let k = ref 0 in
  for j = 0 to m - 1 do
    for j' = 0 to m - 1 do
      if j <> j' then begin
        let c = (j * m) + j' in
        let x = Bigarray.Array2.unsafe_get data j j' in
        let bits = Int64.bits_of_float x in
        let key =
          if x <> x then 0L
          else if x = 0.0 then Int64.min_int
          else if bits >= 0L then Int64.logxor bits Int64.min_int
          else Int64.lognot bits
        in
        let lo = Int64.to_int key land 0xffff_ffff in
        let hi = Int64.to_int (Int64.shift_right_logical key 32) in
        keys.(2 * c) <- lo;
        keys.((2 * c) + 1) <- hi;
        for p = 0 to 3 do
          let d = (p * 256) + ((lo lsr (8 * p)) land 0xff) in
          hist.(d) <- hist.(d) + 1;
          let d = ((p + 4) * 256) + ((hi lsr (8 * p)) land 0xff) in
          hist.(d) <- hist.(d) + 1
        done;
        off.(!k) <- c;
        incr k
      end
    done
  done;
  let src = ref off and dst = ref tmp and sum = ref 0 in
  for p = 0 to 7 do
    let half = p lsr 2 and shift = 8 * (p land 3) and base = p * 256 in
    if len > 0 && hist.(base + ((keys.((2 * off.(0)) + half) lsr shift) land 0xff)) < len
    then begin
      sum := 0;
      for d = base to base + 255 do
        let c = hist.(d) in
        hist.(d) <- !sum;
        sum := !sum + c
      done;
      let s = !src and t = !dst in
      for q = 0 to len - 1 do
        let c = s.(q) in
        let d = base + ((keys.((2 * c) + half) lsr shift) land 0xff) in
        t.(hist.(d)) <- c;
        hist.(d) <- hist.(d) + 1
      done;
      src := t;
      dst := s
    end
  done;
  let sorted = !src in
  let rank_mat = Array.make (m * m) 0 in
  let top = ref (-1) in
  for q = 0 to len - 1 do
    let c = sorted.(q) and b = sorted.(max 0 (q - 1)) in
    if q = 0 || keys.(2 * b) <> keys.(2 * c) || keys.((2 * b) + 1) <> keys.((2 * c) + 1)
    then incr top;
    rank_mat.(c) <- !top
  done;
  let values = Array.make (!top + 1) 0.0 in
  for q = len - 1 downto 0 do
    let c = sorted.(q) in
    values.(rank_mat.(c)) <- Bigarray.Array2.unsafe_get data (c / m) (c mod m)
  done;
  { r_values = values; r_m = m; r_rank_mat = rank_mat }

let rank_values r = Array.copy r.r_values
let rank_table r = Array.copy r.r_rank_mat

(* Edges are numbered in out-row order, the order of [Digraph.edges];
   [incident.(v)] lists [v]'s out- and in-edges as the numbering meets
   them. *)
let make_link ?ranks (problem : Types.problem) =
  let graph = problem.Types.graph in
  let n = Graphs.Digraph.n graph and ne = Graphs.Digraph.edge_count graph in
  let edge_src = Array.make ne 0 and edge_dst = Array.make ne 0 in
  let incident =
    Array.init n (fun v ->
        Array.make (Graphs.Digraph.out_degree graph v + Graphs.Digraph.in_degree graph v) 0)
  in
  let fill = Array.make n 0 in
  let e = ref 0 in
  for u = 0 to n - 1 do
    let out = Graphs.Digraph.out_neighbors graph u in
    for q = 0 to Array.length out - 1 do
      let v = out.(q) in
      edge_src.(!e) <- u;
      edge_dst.(!e) <- v;
      incident.(u).(fill.(u)) <- !e;
      fill.(u) <- fill.(u) + 1;
      incident.(v).(fill.(v)) <- !e;
      fill.(v) <- fill.(v) + 1;
      incr e
    done
  done;
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
  {
    edge_src;
    edge_dst;
    incident;
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

(* Relax node [v] into [into.(v)]. A predecessor the pending pass changed
   is read from [ps.scratch], any other from the committed [ps.dist]. *)
let[@cloudia.hot] [@inline] relax (t : t) ps ~into v =
  let preds = Graphs.Digraph.in_neighbors t.problem.Types.graph v in
  let jv = t.plan.(v) and changed = ps.epoch + 1 in
  into.(v) <- 0.0;
  for q = 0 to Array.length preds - 1 do
    let u = preds.(q) in
    let du = if ps.stamp.(u) = changed then ps.scratch.(u) else ps.dist.(u) in
    let c = du +. Bigarray.Array2.unsafe_get ps.lat t.plan.(u) jv in
    if c > into.(v) then into.(v) <- c
  done

let[@cloudia.hot] [@inline] dirty_successors (t : t) ps v =
  let succ = Graphs.Digraph.out_neighbors t.problem.Types.graph v in
  for q = 0 to Array.length succ - 1 do
    let w = succ.(q) in
    ps.stamp.(w) <- ps.epoch;
    if ps.pos.(w) > ps.hi then ps.hi <- ps.pos.(w)
  done

(* A new epoch leaves every stamp stale: nothing dirty, nothing changed. *)
let sync_path (t : t) ps =
  ps.epoch <- ps.epoch + 2;
  for k = 0 to Array.length ps.order - 1 do
    relax t ps ~into:ps.dist ps.order.(k)
  done;
  Array.fold_left Float.max 0.0 ps.dist

(* The pending proposal moved [node] and, unless it is -1, [other]. Their
   incoming and outgoing edge costs changed, so they and their successors
   start dirty. The walk relaxes dirty nodes in topological order; [hi]
   grows as changed nodes dirty their successors, and a node that keeps
   its committed value dirties nothing. *)
let[@cloudia.hot] propose_path (t : t) ps ~node ~other =
  let dirty = ps.epoch + 2 in
  ps.epoch <- dirty;
  ps.n_changed <- 0;
  ps.stamp.(node) <- dirty;
  ps.hi <- ps.pos.(node);
  dirty_successors t ps node;
  let from =
    if other = -1 then ps.pos.(node)
    else begin
      ps.stamp.(other) <- dirty;
      if ps.pos.(other) > ps.hi then ps.hi <- ps.pos.(other);
      dirty_successors t ps other;
      min ps.pos.(node) ps.pos.(other)
    end
  in
  let k = ref from in
  while !k <= ps.hi do
    let v = ps.order.(!k) in
    if ps.stamp.(v) = dirty then begin
      relax t ps ~into:ps.scratch v;
      t.relaxations <- t.relaxations + 1;
      if ps.scratch.(v) <> ps.dist.(v) then begin
        ps.stamp.(v) <- dirty + 1;
        ps.changed.(ps.n_changed) <- v;
        ps.n_changed <- ps.n_changed + 1;
        dirty_successors t ps v
      end
    end;
    incr k
  done;
  (* Unless a node that held the committed maximum fell, the maximum is
     the committed one or a changed node's new value. *)
  let top = t.cost.(0) in
  let fell = ref false in
  t.p_cost.(0) <- top;
  for i = 0 to ps.n_changed - 1 do
    let v = ps.changed.(i) in
    if ps.scratch.(v) > t.p_cost.(0) then t.p_cost.(0) <- ps.scratch.(v)
    else if ps.dist.(v) = top && ps.scratch.(v) < top then fell := true
  done;
  if !fell then begin
    t.p_cost.(0) <- 0.0;
    for v = 0 to Array.length ps.dist - 1 do
      let d = if ps.stamp.(v) = dirty + 1 then ps.scratch.(v) else ps.dist.(v) in
      if d > t.p_cost.(0) then t.p_cost.(0) <- d
    done
  end

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
      p_cost = [| 0.0 |];
      proposals = 0;
      fallbacks = 0;
      relaxations = 0;
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
                stamp = Array.make n (-1);
                epoch = 0;
                hi = 0;
                changed = Array.make n 0;
                n_changed = 0;
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
let path_relaxations t = t.relaxations

let full_cost t =
  if t.p_active then invalid_arg "Delta_cost.full_cost: a proposal is pending";
  match t.repr with
  | Link _ -> Cost.longest_link t.problem t.plan
  | Path _ -> Cost.longest_path t.problem t.plan
  | Opaque eval -> eval t.plan

let flush_counters t =
  Obs.Counter.add c_proposals t.proposals;
  Obs.Counter.add c_fallbacks t.fallbacks;
  Obs.Counter.add c_relaxations t.relaxations;
  t.proposals <- 0;
  t.fallbacks <- 0;
  t.relaxations <- 0

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
  (match t.repr with
  | Opaque eval ->
      t.fallbacks <- t.fallbacks + 1;
      t.p_cost.(0) <- eval t.plan
  | Link ls ->
      ls.u_len <- 0;
      touch_incident t ls node;
      if other <> -1 then touch_incident t ls other;
      t.p_cost.(0) <- link_top ls
  | Path ps -> propose_path t ps ~node ~other);
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
      for i = 0 to ps.n_changed - 1 do
        let v = ps.changed.(i) in
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
