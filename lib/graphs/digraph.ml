type t = {
  n : int;
  out : int array array;
  inn : int array array;
}

let sort_dedup lst =
  let a = Array.of_list lst in
  Array.sort Int.compare a;
  let out = ref [] in
  Array.iter
    (fun x -> match !out with y :: _ when y = x -> () | _ -> out := x :: !out)
    a;
  Array.of_list (List.rev !out)

let create ~n edges =
  if n < 0 then invalid_arg "Digraph.create: negative node count";
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Digraph.create: edge endpoint out of range";
      if u = v then invalid_arg "Digraph.create: self-loop")
    edges;
  let out_lists = Array.make n [] in
  let in_lists = Array.make n [] in
  List.iter
    (fun (u, v) ->
      out_lists.(u) <- v :: out_lists.(u);
      in_lists.(v) <- u :: in_lists.(v))
    edges;
  { n; out = Array.map sort_dedup out_lists; inn = Array.map sort_dedup in_lists }

let of_predicate ~n edge =
  if n < 0 then invalid_arg "Digraph.of_predicate: negative node count";
  let row = Array.make n 0 in
  let out =
    Array.init n (fun u ->
        let k = ref 0 in
        for v = 0 to n - 1 do
          if u <> v && edge u v then begin
            row.(!k) <- v;
            incr k
          end
        done;
        Array.sub row 0 !k)
  in
  let in_deg = Array.make n 0 in
  Array.iter (Array.iter (fun v -> in_deg.(v) <- in_deg.(v) + 1)) out;
  let inn = Array.map (fun d -> Array.make d 0) in_deg in
  Array.fill in_deg 0 n 0;
  Array.iteri
    (fun u succ ->
      Array.iter
        (fun v ->
          inn.(v).(in_deg.(v)) <- u;
          in_deg.(v) <- in_deg.(v) + 1)
        succ)
    out;
  { n; out; inn }

let n t = t.n

let edge_count t = Array.fold_left (fun acc a -> acc + Array.length a) 0 t.out

let edges t =
  let out = Array.make (edge_count t) (0, 0) in
  let k = ref 0 in
  for u = 0 to t.n - 1 do
    Array.iter
      (fun v ->
        out.(!k) <- (u, v);
        incr k)
      t.out.(u)
  done;
  out

let mem_edge t u v =
  if u < 0 || u >= t.n then false
  else begin
    let a = t.out.(u) in
    let lo = ref 0 and hi = ref (Array.length a - 1) in
    let found = ref false in
    while (not !found) && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if a.(mid) = v then found := true
      else if a.(mid) < v then lo := mid + 1
      else hi := mid - 1
    done;
    !found
  end

let out_neighbors t u = t.out.(u)
let in_neighbors t u = t.inn.(u)
let out_degree t u = Array.length t.out.(u)
let in_degree t u = Array.length t.inn.(u)

(* [out] and [inn] rows are sorted and duplicate-free, so the undirected
   neighbourhood is their merge. [emit] sees each neighbour once, in
   ascending order; the return value is the count. *)
let merge_neighbors t u emit =
  let a = t.out.(u) and b = t.inn.(u) in
  let la = Array.length a and lb = Array.length b in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < la || !j < lb do
    let take_a = !j >= lb || (!i < la && a.(!i) <= b.(!j)) in
    let v = if take_a then a.(!i) else b.(!j) in
    if take_a then incr i;
    if !j < lb && b.(!j) = v then incr j;
    emit !k v;
    incr k
  done;
  !k

let undirected_degree t u = merge_neighbors t u (fun _ _ -> ())

let undirected_neighbors t u =
  let out = Array.make (undirected_degree t u) 0 in
  ignore (merge_neighbors t u (fun k v -> out.(k) <- v) : int);
  out

let topological_order t =
  let indeg = Array.init t.n (fun v -> in_degree t v) in
  let queue = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v queue) indeg;
  let order = Array.make t.n 0 in
  let k = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order.(!k) <- v;
    incr k;
    Array.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w queue)
      t.out.(v)
  done;
  if !k = t.n then Some order else None

let is_dag t = topological_order t <> None

let longest_path_witness t ~weight =
  match topological_order t with
  | None -> invalid_arg "Digraph.longest_path: graph has a cycle"
  | Some order ->
      (* dist.(v) = best path cost ending at v; the empty path is allowed. *)
      let dist = Array.make t.n 0.0 in
      let pred = Array.make t.n (-1) in
      Array.iter
        (fun u ->
          Array.iter
            (fun v ->
              let cand = dist.(u) +. weight u v in
              if cand > dist.(v) then begin
                dist.(v) <- cand;
                pred.(v) <- u
              end)
            t.out.(u))
        order;
      let best = ref 0 and bestv = ref 0.0 in
      for v = 0 to t.n - 1 do
        if dist.(v) > !bestv then begin
          bestv := dist.(v);
          best := v
        end
      done;
      if t.n = 0 then (0.0, [])
      else begin
        let rec walk v acc = if v = -1 then acc else walk pred.(v) (v :: acc) in
        (!bestv, walk !best [])
      end

let longest_path t ~weight = fst (longest_path_witness t ~weight)

let map_nodes t f ~n:m =
  let remapped =
    Array.to_list (edges t) |> List.map (fun (u, v) -> (f u, f v))
  in
  create ~n:m remapped

let transpose t =
  create ~n:t.n (Array.to_list (edges t) |> List.map (fun (u, v) -> (v, u)))

let is_connected_undirected t =
  if t.n <= 1 then true
  else begin
    let seen = Array.make t.n false in
    let stack = ref [ 0 ] in
    seen.(0) <- true;
    let count = ref 1 in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | v :: rest ->
          stack := rest;
          Array.iter
            (fun w ->
              if not seen.(w) then begin
                seen.(w) <- true;
                incr count;
                stack := w :: !stack
              end)
            (undirected_neighbors t v)
    done;
    !count = t.n
  end

let pp fmt t =
  Format.fprintf fmt "digraph(n=%d, edges=[" t.n;
  Array.iter (fun (u, v) -> Format.fprintf fmt "%d->%d;" u v) (edges t);
  Format.fprintf fmt "])"
