type result = Stats.Kmeans1d.result = {
  centers : float array;
  boundaries : float array;
  cost : float;
}

let distinct_sorted xs =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let out = ref [] and count = ref [] in
  Array.iter
    (fun x ->
      match !out with
      | y :: _ when y = x ->
          (match !count with c :: rest -> count := (c + 1) :: rest | [] -> assert false)
      | _ ->
          out := x :: !out;
          count := 1 :: !count)
    sorted;
  (Array.of_list (List.rev !out), Array.of_list (List.rev !count))

let cluster ~k xs =
  if k <= 0 then invalid_arg "Cp_reference.Kmeans1d.cluster: k must be positive";
  if Array.length xs = 0 then invalid_arg "Cp_reference.Kmeans1d.cluster: empty input";
  (* NaN breaks the sort order and ±inf poisons the prefix sums; either
     would silently corrupt the DP tables, so reject up front. *)
  Array.iteri
    (fun i x ->
      if not (Float.is_finite x) then
        invalid_arg
          (Printf.sprintf "Cp_reference.Kmeans1d.cluster: input %d is %s; values must be finite" i
             (if Float.is_nan x then "NaN" else "infinite")))
    xs;
  let values, weights = distinct_sorted xs in
  let n = Array.length values in
  let k = min k n in
  (* Weighted prefix sums for O(1) interval SSE queries. *)
  let pw = Array.make (n + 1) 0.0 in
  let ps = Array.make (n + 1) 0.0 in
  let pss = Array.make (n + 1) 0.0 in
  for i = 0 to n - 1 do
    let w = float_of_int weights.(i) in
    pw.(i + 1) <- pw.(i) +. w;
    ps.(i + 1) <- ps.(i) +. (w *. values.(i));
    pss.(i + 1) <- pss.(i) +. (w *. values.(i) *. values.(i))
  done;
  (* SSE of the weighted interval [i, j] (inclusive, 0-based). *)
  let sse i j =
    let w = pw.(j + 1) -. pw.(i) in
    let s = ps.(j + 1) -. ps.(i) in
    let ss = pss.(j + 1) -. pss.(i) in
    let e = ss -. (s *. s /. w) in
    if e < 0.0 then 0.0 else e
  in
  (* dp.(c).(j) = min SSE of clustering values[0..j] into c+1 clusters. *)
  let dp = Array.make_matrix k n infinity in
  let back = Array.make_matrix k n 0 in
  for j = 0 to n - 1 do
    dp.(0).(j) <- sse 0 j
  done;
  for c = 1 to k - 1 do
    for j = c to n - 1 do
      for i = c to j do
        let cand = dp.(c - 1).(i - 1) +. sse i j in
        if cand < dp.(c).(j) then begin
          dp.(c).(j) <- cand;
          back.(c).(j) <- i
        end
      done
    done
  done;
  (* Reconstruct boundaries. *)
  let starts = Array.make k 0 in
  let j = ref (n - 1) in
  for c = k - 1 downto 1 do
    let i = back.(c).(!j) in
    starts.(c) <- i;
    j := i - 1
  done;
  starts.(0) <- 0;
  let centers =
    Array.init k (fun c ->
        let lo = starts.(c) in
        let hi = if c = k - 1 then n - 1 else starts.(c + 1) - 1 in
        (ps.(hi + 1) -. ps.(lo)) /. (pw.(hi + 1) -. pw.(lo)))
  in
  let boundaries = Array.map (fun i -> values.(i)) starts in
  { centers; boundaries; cost = dp.(k - 1).(n - 1) }
