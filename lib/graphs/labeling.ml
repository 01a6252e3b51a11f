type label = {
  in_deg : int;
  out_deg : int;
  (* Sorted descending degrees of undirected neighbors: a target dominates a
     pattern if, position by position, each target neighbor degree is at
     least the corresponding pattern neighbor degree (after truncating the
     target list to the pattern's length — the target may have extra
     neighbors). *)
  neighbor_degrees : int array;
}

let compute g =
  let n = Digraph.n g in
  let degree = Array.init n (Digraph.undirected_degree g) in
  Array.init n (fun v ->
      let degs = Array.map (fun w -> degree.(w)) (Digraph.undirected_neighbors g v) in
      Array.sort (fun a b -> Int.compare b a) degs;
      { in_deg = Digraph.in_degree g v; out_deg = Digraph.out_degree g v; neighbor_degrees = degs })

let compatible ~pattern ~target =
  pattern.in_deg <= target.in_deg
  && pattern.out_deg <= target.out_deg
  && Array.length pattern.neighbor_degrees <= Array.length target.neighbor_degrees
  &&
  (* Greedy domination check on sorted-descending lists: the i-th largest
     target neighbor degree must cover the i-th largest pattern one. *)
  let ok = ref true in
  Array.iteri
    (fun i d -> if target.neighbor_degrees.(i) < d then ok := false)
    pattern.neighbor_degrees;
  !ok

let compatibility_matrix ~pattern ~target =
  let pl = compute pattern and tl = compute target in
  Array.map (fun p -> Array.map (fun t -> compatible ~pattern:p ~target:t) tl) pl
