type result = {
  centers : float array;
  boundaries : float array;
  cost : float;
}

(* A sorted copy of [xs] and its number of distinct values. *)
let sorted_copy xs =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let distinct = ref 0 in
  Array.iteri (fun i x -> if i = 0 || x <> sorted.(i - 1) then incr distinct) sorted;
  (sorted, !distinct)

let distinct_count xs = snd (sorted_copy xs)

(* SSE of the weighted interval [i, j] (inclusive, 0-based) of distinct
   values. [pre] interleaves the prefix sums: pre.(3i), pre.(3i+1) and
   pre.(3i+2) are the weight, sum and sum of squares of values [0, i). *)
let[@inline] sse pre i j =
  let w = pre.(3 * (j + 1)) -. pre.(3 * i) in
  let s = pre.((3 * (j + 1)) + 1) -. pre.((3 * i) + 1) in
  let ss = pre.((3 * (j + 1)) + 2) -. pre.((3 * i) + 2) in
  let e = ss -. (s *. s /. w) in
  if e < 0.0 then 0.0 else e

(* [@cloudia.hot]: the DP's inner loop. The smallest start [i] in
   [lo, hi] minimising prev.(i-1) + sse(i, j); strict [<] keeps the first
   of equal candidates, as the full O(n) scan does. *)
let[@cloudia.hot] best_start pre prev ~j ~lo ~hi =
  let best = ref infinity and arg = ref lo in
  for i = lo to hi do
    let cand = prev.(i - 1) +. sse pre i j in
    if cand < !best then begin
      best := cand;
      arg := i
    end
  done;
  !arg

let cluster ~k xs =
  if k <= 0 then invalid_arg "Kmeans1d.cluster: k must be positive";
  if Array.length xs = 0 then invalid_arg "Kmeans1d.cluster: empty input";
  (* NaN breaks the sort order and ±inf poisons the prefix sums; either
     would silently corrupt the DP tables, so reject up front. *)
  Array.iteri
    (fun i x ->
      if not (Float.is_finite x) then
        invalid_arg
          (Printf.sprintf "Kmeans1d.cluster: input %d is %s; values must be finite" i
             (if Float.is_nan x then "NaN" else "infinite")))
    xs;
  let sorted, n = sorted_copy xs in
  let k = min k n in
  (* One pass over the sorted runs: each distinct value (the first of its
     run) and the prefix sums weighted by its multiplicity. *)
  let values = Array.make n 0.0 and pre = Array.make (3 * (n + 1)) 0.0 in
  let d = ref 0 and start = ref 0 in
  let len = Array.length sorted in
  for i = 0 to len - 1 do
    if i = len - 1 || sorted.(i + 1) <> sorted.(i) then begin
      let v = sorted.(!start) and w = float_of_int (i + 1 - !start) in
      let p = 3 * !d in
      values.(!d) <- v;
      pre.(p + 3) <- pre.(p) +. w;
      pre.(p + 4) <- pre.(p + 1) +. (w *. v);
      pre.(p + 5) <- pre.(p + 2) +. (w *. v *. v);
      incr d;
      start := i + 1
    end
  done;
  (* Row c of the DP: cost.(j) = min SSE of values[0..j] in c+1 clusters.
     Only rows c-1 ([prev]) and c ([cur]) are live; back.(c*n + j) is the
     start of the last cluster. *)
  let prev = Array.init n (fun j -> sse pre 0 j) in
  let cur = Array.make n infinity in
  let back = Array.make (k * n) 0 in
  (* The SSE cost is Monge, so the (smallest) optimal start of row c is
     non-decreasing in j: solve the middle column by a scan, then each
     half within the bound it implies. O(n log n) per row. *)
  let rec fill c ~jlo ~jhi ~ilo ~ihi =
    if jlo <= jhi then begin
      let j = (jlo + jhi) / 2 in
      let i = best_start pre prev ~j ~lo:(max c ilo) ~hi:(min j ihi) in
      cur.(j) <- prev.(i - 1) +. sse pre i j;
      back.((c * n) + j) <- i;
      fill c ~jlo ~jhi:(j - 1) ~ilo ~ihi:i;
      fill c ~jlo:(j + 1) ~jhi ~ilo:i ~ihi
    end
  in
  for c = 1 to k - 1 do
    fill c ~jlo:c ~jhi:(n - 1) ~ilo:c ~ihi:(n - 1);
    Array.blit cur 0 prev 0 n
  done;
  (* Reconstruct boundaries. *)
  let starts = Array.make k 0 in
  let j = ref (n - 1) in
  for c = k - 1 downto 1 do
    let i = back.((c * n) + !j) in
    starts.(c) <- i;
    j := i - 1
  done;
  starts.(0) <- 0;
  let centers =
    Array.init k (fun c ->
        let lo = starts.(c) in
        let hi = if c = k - 1 then n - 1 else starts.(c + 1) - 1 in
        (pre.((3 * (hi + 1)) + 1) -. pre.((3 * lo) + 1)) /. (pre.(3 * (hi + 1)) -. pre.(3 * lo)))
  in
  let boundaries = Array.map (fun i -> values.(i)) starts in
  { centers; boundaries; cost = prev.(n - 1) }

let assign_index r x =
  (* Nearest center; centers are ascending so a linear scan is fine. *)
  let best = ref 0 and bestd = ref infinity in
  Array.iteri
    (fun i c ->
      let d = Float.abs (x -. c) in
      if d < !bestd then begin
        bestd := d;
        best := i
      end)
    r.centers;
  !best

let assign r x = r.centers.(assign_index r x)
