(* DDSketch-style log-bucketed histogram (see histogram.mli for the
   contract). Bucket i covers (gamma^(i-1), gamma^i]; with
   gamma = (1+alpha)/(1-alpha) the midpoint-in-log-space representative
   2*gamma^i/(gamma+1) is within alpha of every value in the bucket. *)

let default_alpha = 0.01
let min_trackable = 1e-9
let max_trackable = 1e15

type t = {
  name : string;
  alpha : float;
  log_gamma : float;
  lo : int; (* absolute index of the lowest tracked bucket *)
  width : int; (* number of tracked buckets *)
  buckets : int Atomic.t array Atomic.t;
      (* absolute index i lives at buckets.(i - lo); empty until the first
         record, so a registered histogram nothing records into costs a
         few words instead of ~2.8k atomics *)
  zero : int Atomic.t; (* values <= 0 *)
  count : int Atomic.t;
  sum : float Atomic.t;
  minv : float Atomic.t;
  maxv : float Atomic.t;
}

let log_gamma_of alpha = Float.log ((1.0 +. alpha) /. (1.0 -. alpha))

let bucket_of_value ~alpha v =
  int_of_float (Float.ceil (Float.log v /. log_gamma_of alpha))

let value_of_bucket ~alpha i =
  let gamma = (1.0 +. alpha) /. (1.0 -. alpha) in
  2.0 *. (gamma ** float_of_int i) /. (gamma +. 1.0)

let create ?(alpha = default_alpha) name =
  if not (alpha > 0.0005 && alpha < 0.5) then
    invalid_arg "Obs.Histogram: alpha must be in (0.0005, 0.5)";
  let log_gamma = log_gamma_of alpha in
  let lo = int_of_float (Float.floor (Float.log min_trackable /. log_gamma)) in
  let hi = int_of_float (Float.ceil (Float.log max_trackable /. log_gamma)) + 1 in
  {
    name;
    alpha;
    log_gamma;
    lo;
    width = hi - lo + 1;
    buckets = Atomic.make [||];
    zero = Atomic.make 0;
    count = Atomic.make 0;
    sum = Atomic.make 0.0;
    minv = Atomic.make infinity;
    maxv = Atomic.make neg_infinity;
  }

let registry : (string, t) Hashtbl.t = Hashtbl.create 16
let registry_mu = Mutex.create ()

let make ?alpha name =
  Mutex.protect registry_mu (fun () ->
      match Hashtbl.find_opt registry name with
      | Some h -> h
      | None ->
          let h = create ?alpha name in
          Hashtbl.add registry name h;
          h)

let name h = h.name
let alpha h = h.alpha
let count h = Atomic.get h.count

(* CAS loops over boxed float atomics: compare_and_set is on the box, so
   read-modify-write retries until no concurrent writer interleaved. *)
let rec add_float cell x =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (old +. x)) then add_float cell x

let rec update_min cell x =
  let old = Atomic.get cell in
  if x < old && not (Atomic.compare_and_set cell old x) then update_min cell x

let rec update_max cell x =
  let old = Atomic.get cell in
  if x > old && not (Atomic.compare_and_set cell old x) then update_max cell x

(* The bucket array, allocated by the first caller; a racing second
   allocation loses the CAS and adopts the winner's. *)
let buckets h =
  let b = Atomic.get h.buckets in
  if Array.length b > 0 then b
  else begin
    ignore (Atomic.compare_and_set h.buckets b (Array.init h.width (fun _ -> Atomic.make 0)));
    Atomic.get h.buckets
  end

let record h v =
  if not (Float.is_nan v) then begin
    ignore (Atomic.fetch_and_add h.count 1);
    add_float h.sum v;
    update_min h.minv v;
    update_max h.maxv v;
    if v <= 0.0 then ignore (Atomic.fetch_and_add h.zero 1)
    else begin
      let slot =
        if v <= min_trackable then 0
        else if v >= max_trackable then h.width - 1
        else
          let i = int_of_float (Float.ceil (Float.log v /. h.log_gamma)) - h.lo in
          if i < 0 then 0 else if i >= h.width then h.width - 1 else i
      in
      ignore (Atomic.fetch_and_add (buckets h).(slot) 1)
    end
  end

let record_ns h ns = record h (Int64.to_float ns)

type snapshot = {
  hist_name : string;
  hist_alpha : float;
  hist_count : int;
  hist_sum : float;
  hist_min : float;
  hist_max : float;
  hist_zero : int;
  hist_buckets : (int * int) list;
}

let snapshot_of h =
  let cells = Atomic.get h.buckets in
  let buckets = ref [] in
  for i = Array.length cells - 1 downto 0 do
    let c = Atomic.get cells.(i) in
    if c > 0 then buckets := (h.lo + i, c) :: !buckets
  done;
  {
    hist_name = h.name;
    hist_alpha = h.alpha;
    hist_count = Atomic.get h.count;
    hist_sum = Atomic.get h.sum;
    hist_min = Atomic.get h.minv;
    hist_max = Atomic.get h.maxv;
    hist_zero = Atomic.get h.zero;
    hist_buckets = !buckets;
  }

let snapshot () =
  Mutex.protect registry_mu (fun () ->
      Hashtbl.fold (fun _ h acc -> snapshot_of h :: acc) registry [])
  |> List.sort (fun a b -> compare a.hist_name b.hist_name)

let merge a b =
  if a.hist_alpha <> b.hist_alpha then
    invalid_arg "Obs.Histogram.merge: alpha mismatch (buckets do not align)";
  let rec merge_buckets xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> rest
    | (i, ci) :: xt, (j, cj) :: yt ->
        if i < j then (i, ci) :: merge_buckets xt ys
        else if j < i then (j, cj) :: merge_buckets xs yt
        else (i, ci + cj) :: merge_buckets xt yt
  in
  {
    hist_name = a.hist_name;
    hist_alpha = a.hist_alpha;
    hist_count = a.hist_count + b.hist_count;
    hist_sum = a.hist_sum +. b.hist_sum;
    hist_min = Float.min a.hist_min b.hist_min;
    hist_max = Float.max a.hist_max b.hist_max;
    hist_zero = a.hist_zero + b.hist_zero;
    hist_buckets = merge_buckets a.hist_buckets b.hist_buckets;
  }

let quantile_of s q =
  (* Concurrent recording can leave hist_count ahead of the bucket total
     (count is bumped before the bucket); rank against what the buckets
     actually hold so the walk always terminates in a real bucket. *)
  let tallied =
    s.hist_zero + List.fold_left (fun acc (_, c) -> acc + c) 0 s.hist_buckets
  in
  if tallied <= 0 then nan
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int tallied)) in
      if r < 1 then 1 else if r > tallied then tallied else r
    in
    if rank <= s.hist_zero then
      (* Underflow bucket: all values <= 0; min is exact for the smallest. *)
      if s.hist_min < 0.0 then s.hist_min else 0.0
    else begin
      let rec walk cum = function
        | [] -> s.hist_max
        | (i, c) :: rest ->
            let cum = cum + c in
            if cum >= rank then value_of_bucket ~alpha:s.hist_alpha i else walk cum rest
      in
      let est = walk s.hist_zero s.hist_buckets in
      (* Clamping to the observed range can only move the estimate toward
         the true quantile, so the alpha bound survives. *)
      Float.max s.hist_min (Float.min s.hist_max est)
    end
  end

let quantile h q = quantile_of (snapshot_of h) q

let mean_of s =
  if s.hist_count = 0 then nan else s.hist_sum /. float_of_int s.hist_count

let reset_all () =
  Mutex.protect registry_mu (fun () ->
      Hashtbl.iter
        (fun _ h ->
          Array.iter (fun c -> Atomic.set c 0) (Atomic.get h.buckets);
          Atomic.set h.zero 0;
          Atomic.set h.count 0;
          Atomic.set h.sum 0.0;
          Atomic.set h.minv infinity;
          Atomic.set h.maxv neg_infinity)
        registry)
