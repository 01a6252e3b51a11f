type t = Mean | Mean_plus_sd | P99

let to_string = function
  | Mean -> "mean"
  | Mean_plus_sd -> "mean+sd"
  | P99 -> "p99"

let of_string = function
  | "mean" -> Some Mean
  | "mean+sd" -> Some Mean_plus_sd
  | "p99" -> Some P99
  | _ -> None

let of_samples metric samples =
  (* A single NaN sample would otherwise propagate through every reduction
     into the cost matrix and from there through the solvers' DP tables. *)
  Array.iteri
    (fun i s ->
      if not (Float.is_finite s) then
        invalid_arg
          (Printf.sprintf "Metrics.of_samples: sample %d is %s; RTT samples must be finite" i
             (if Float.is_nan s then "NaN" else "infinite")))
    samples;
  match metric with
  | Mean -> Stats.Summary.mean samples
  | Mean_plus_sd -> Stats.Summary.mean samples +. Stats.Summary.stddev samples
  | P99 -> Stats.Summary.percentile samples 99.0

let c_samples = Obs.Counter.make "metrics.rtt_samples"

(* The fault-free advise path samples the environment directly (no
   Netmeasure scheme in between), so it feeds its own always-on RTT
   histogram. *)
let h_rtt = Obs.Histogram.make "metrics.rtt_ms"

let sample_count env ~samples_per_pair =
  if samples_per_pair <= 0 then invalid_arg "Metrics: need a positive sample count";
  let n = Cloudsim.Env.count env in
  Obs.Counter.add c_samples (n * (n - 1) * samples_per_pair);
  n

let draw rng env i j =
  let rtt = Cloudsim.Env.sample_rtt rng env i j in
  Obs.Histogram.record h_rtt rtt;
  rtt

let draw_samples rng env ~samples_per_pair =
  let n = sample_count env ~samples_per_pair in
  Array.init n (fun i ->
      Array.init n (fun j ->
          if i = j then [||] else Array.init samples_per_pair (fun _ -> draw rng env i j)))

let reduce metric samples =
  let n = Array.length samples in
  Lat_matrix.init n (fun i j ->
      let s = samples.(i).(j) in
      if Array.length s = 0 then 0.0 else of_samples metric s)

(* One pair's samples at a time, drawn in the same order as
   [draw_samples], so the matrix is bit-identical to
   [reduce metric (draw_samples ...)] without n²·s samples alive at once.
   The flat matrix is built last, after the drawing's garbage: allocated
   first, it fragments the heap more (measured, peak RSS). *)
let estimate rng env metric ~samples_per_pair =
  let n = sample_count env ~samples_per_pair in
  let buf = Array.make samples_per_pair 0.0 in
  Lat_matrix.of_arrays
    (Array.init n (fun i ->
         Array.init n (fun j ->
             if i = j then 0.0
             else begin
               for s = 0 to samples_per_pair - 1 do
                 buf.(s) <- draw rng env i j
               done;
               of_samples metric buf
             end)))

let estimate_all rng env ~samples_per_pair =
  let samples = draw_samples rng env ~samples_per_pair in
  fun metric -> reduce metric samples
