let neighbors g v =
  Array.of_list
    (List.sort_uniq Int.compare
       (Array.to_list (Graphs.Digraph.out_neighbors g v)
       @ Array.to_list (Graphs.Digraph.in_neighbors g v)))

let compute g =
  Array.init (Graphs.Digraph.n g) (fun v ->
      let degs = Array.map (fun w -> Array.length (neighbors g w)) (neighbors g v) in
      Array.sort (fun a b -> Int.compare b a) degs;
      (Graphs.Digraph.in_degree g v, Graphs.Digraph.out_degree g v, degs))
