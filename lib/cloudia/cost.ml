type objective = Longest_link | Longest_path

let objective_to_string = function
  | Longest_link -> "longest-link"
  | Longest_path -> "longest-path"

let objective_of_string = function
  | "ll" | "longest-link" -> Some Longest_link
  | "lp" | "longest-path" -> Some Longest_path
  | _ -> None

let longest_link_witness (t : Types.problem) plan =
  (* Initialize below any real edge cost: with [0.0] and strict [>], an
     all-zero (or, defensively, negative) cost matrix reported no witness
     and cost 0.0 even when edges exist. *)
  let lat = Lat_matrix.data t.Types.lat in
  let best = ref neg_infinity and witness = ref None in
  let poisoned = ref None in
  Array.iter
    (fun (i, i') ->
      let c = Bigarray.Array2.unsafe_get lat plan.(i) plan.(i') in
      (* An unsampled link under the plan poisons the whole evaluation:
         [c > !best] is false for nan, so without this the edge would be
         silently skipped and a partial matrix would look cheap. *)
      if Float.is_nan c then begin
        if !poisoned = None then poisoned := Some (i, i')
      end
      else if c > !best then begin
        best := c;
        witness := Some (i, i')
      end)
    (Graphs.Digraph.edges t.Types.graph);
  match !poisoned with
  | Some _ -> (nan, !poisoned)
  | None -> (
      match !witness with None -> (0.0, None) | Some _ -> (!best, !witness))

let longest_link t plan = fst (longest_link_witness t plan)

let longest_path (t : Types.problem) plan =
  (* Same poisoning rule: any nan edge used by the plan makes the cost
     nan, rather than vanishing inside max-comparisons. *)
  let lat = Lat_matrix.data t.Types.lat in
  let edges = Graphs.Digraph.edges t.Types.graph in
  if
    Array.exists
      (fun (i, i') -> Float.is_nan (Bigarray.Array2.unsafe_get lat plan.(i) plan.(i')))
      edges
  then nan
  else
    Graphs.Digraph.longest_path t.Types.graph ~weight:(fun i i' ->
        Bigarray.Array2.unsafe_get lat plan.(i) plan.(i'))

let eval = function
  | Longest_link -> longest_link
  | Longest_path -> longest_path

let improvement ~default ~optimized =
  (* A non-positive baseline makes the ratio meaningless (and a negative
     one would flip its sign): report "no improvement" instead. *)
  if default <= 0.0 then 0.0 else (default -. optimized) /. default *. 100.0
