(* Fault-injection pipeline tests: zero-fault bit-identity against pre-fault
   golden outputs, seeded determinism, retry/timeout accounting, matrix
   completion, NaN poisoning, and the advisor's --on-missing policies.

   The golden arrays below are the exact outputs (hex float literals, so
   bit-exact) of the measurement schemes BEFORE the fault/retry layer and
   the staged both-directions fix were introduced, for:

     env    = Env.allocate (Prng.create 5) ec2 ~count:6
     token  = token_passing (Prng.create 1) env ~samples_per_pair:2
     unc    = uncoordinated (Prng.create 4) env ~rounds:10
     staged = staged (Prng.create 6) env ~ks:3 ~stages:8

   They pin the compatibility contract: with no fault plan, token passing
   and uncoordinated are bit-identical to the old implementation, and
   staged keeps its matchings, forward samples and simulated clock —
   gaining only the derived reverse-direction samples, which ride the
   same packet exchanges (zero extra PRNG draws, zero extra sim time). *)

let ec2 = Cloudsim.Provider.get Cloudsim.Provider.Ec2

let golden_env () = Cloudsim.Env.allocate (Prng.create 5) ec2 ~count:6

let bits = Int64.bits_of_float

let check_bits what expected actual =
  Alcotest.(check int64) what (bits expected) (bits actual)

let token_means =
  [|
    [| 0x0p+0; 0x1.deb91aa3bdac6p-2; 0x1.6fbaba19a0286p-2; 0x1.a144270920a1p-1; 0x1.67128f8bd2786p-1; 0x1.7e1164cafa508p-1 |];
    [| 0x1.70439fd3196dap-2; 0x0p+0; 0x1.1bac20914b764p-1; 0x1.6703d7f211d49p-1; 0x1.3942e21393e9cp-1; 0x1.148eaa3b12047p+0 |];
    [| 0x1.a614de92a2a86p-1; 0x1.08736737b336bp+0; 0x0p+0; 0x1.6c76ae4dfa092p-2; 0x1.0089eea300e5ap-1; 0x1.989a21dc121a4p-2 |];
    [| 0x1.1e46df9c18d6p-1; 0x1.6e02dd6726505p-1; 0x1.13a2572cab276p-2; 0x0p+0; 0x1.56c43bfdb0dafp-2; 0x1.13c2652f6ed6dp-2 |];
    [| 0x1.43de2fbd6300ep-1; 0x1.5efc9de14c43cp-2; 0x1.325bf2cbe4adap-1; 0x1.886ee4dd15dd5p-2; 0x0p+0; 0x1.2fb1b7c7e021p-2 |];
    [| 0x1.7f570840d109bp-1; 0x1.6f3ca56ac63ddp-1; 0x1.f63ca55dbc8dcp-2; 0x1.0f954e205aaep-2; 0x1.9d5eef72396dp-3; 0x0p+0 |];
  |]

let token_sim_seconds = 0x1.3cc380267f646p-5

let unc_means =
  [|
    [| 0x0p+0; nan; 0x1.492d8e83ca516p-1; nan; 0x1.08b151ef7047ep+0; 0x1.bbfaf0cc8d658p-1 |];
    [| 0x1.5938cc7d28caep-1; 0x0p+0; 0x1.f20f13fdeca1p-1; 0x1.d4177a1e09e42p-1; nan; 0x1.7725b1696732ap+0 |];
    [| 0x1.601275f02e35dp+0; nan; 0x0p+0; 0x1.c3207897b047p-2; 0x1.3b0f81fe4bb0ep-1; 0x1.8dbf4fde0001p-1 |];
    [| 0x1.2631b78e52dbp+0; 0x1.d5113a43452f3p-1; 0x1.53e0814467806p-1; 0x0p+0; nan; 0x1.91f9671607e2bp-1 |];
    [| 0x1.970bccd99f878p+0; 0x1.c38ad78a92a1cp-1; 0x1.b008ee3d83698p-1; 0x1.3e83db664a449p-1; 0x0p+0; 0x1.655d4795c7668p-1 |];
    [| nan; 0x1.366d2c507586p+0; 0x1.2ef3c036a6bb3p-1; 0x1.2e15cb7154bc9p-1; 0x1.c01c8925e222ap-3; 0x0p+0 |];
  |]

let unc_samples =
  [|
    [| 0; 0; 2; 0; 3; 5 |];
    [| 2; 0; 4; 2; 0; 2 |];
    [| 2; 0; 0; 3; 4; 1 |];
    [| 2; 3; 2; 0; 0; 3 |];
    [| 3; 1; 1; 2; 0; 3 |];
    [| 0; 4; 3; 2; 1; 0 |];
  |]

let unc_sim_seconds = 0x1.da2012b0df26p-7

let staged_means =
  [|
    [| 0x0p+0; 0x1.5b948e90d1a74p-2; nan; 0x1.6d586cc6bd289p-1; 0x1.1ec427da6cc45p+0; nan |];
    [| 0x1.6ca166d4d275fp-1; 0x0p+0; 0x1.403b637ab6f2bp-1; 0x1.f742e1db0e9fdp-1; 0x1.bd80ec68bc847p-2; nan |];
    [| nan; nan; 0x0p+0; nan; 0x1.7e3c4a21619f9p-2; 0x1.bf5ecb973b477p-2 |];
    [| 0x1.bd997c27d1821p-1; nan; nan; 0x0p+0; nan; 0x1.63a502e20ab44p-2 |];
    [| 0x1.bebc91e2044e3p-1; nan; 0x1.0c8d25beca31ep-1; nan; 0x0p+0; 0x1.62aaf20ee5f27p-3 |];
    [| nan; nan; 0x1.88022ec73955bp-2; 0x1.72e8acdf57045p-2; nan; 0x0p+0 |];
  |]

let staged_samples =
  [|
    [| 0; 3; 0; 6; 3; 0 |];
    [| 3; 0; 6; 3; 9; 0 |];
    [| 0; 0; 0; 0; 3; 9 |];
    [| 6; 0; 0; 0; 0; 3 |];
    [| 3; 0; 3; 0; 0; 3 |];
    [| 0; 0; 3; 6; 0; 0 |];
  |]

let staged_sim_seconds = 0x1.54a5a993c67c6p-6

let test_golden_token_bit_identity () =
  let env = golden_env () in
  let m = Netmeasure.Schemes.token_passing (Prng.create 1) env ~samples_per_pair:2 in
  for i = 0 to 5 do
    for j = 0 to 5 do
      check_bits
        (Printf.sprintf "mean (%d,%d)" i j)
        token_means.(i).(j)
        m.Netmeasure.Schemes.means.(i).(j);
      Alcotest.(check int) "samples" (if i = j then 0 else 2) m.Netmeasure.Schemes.samples.(i).(j)
    done
  done;
  check_bits "sim_seconds" token_sim_seconds m.Netmeasure.Schemes.sim_seconds

let test_golden_uncoordinated_bit_identity () =
  let env = golden_env () in
  let m = Netmeasure.Schemes.uncoordinated (Prng.create 4) env ~rounds:10 in
  for i = 0 to 5 do
    for j = 0 to 5 do
      check_bits
        (Printf.sprintf "mean (%d,%d)" i j)
        unc_means.(i).(j)
        m.Netmeasure.Schemes.means.(i).(j);
      Alcotest.(check int) "samples" unc_samples.(i).(j) m.Netmeasure.Schemes.samples.(i).(j)
    done
  done;
  check_bits "sim_seconds" unc_sim_seconds m.Netmeasure.Schemes.sim_seconds

(* The staged exchange fix records both directions per exchange. The
   compatibility contract against the golden run: matchings and clock
   unchanged (bit-equal sim_seconds), sample counts are the golden count
   plus the golden count of the opposite direction, forward means of
   pairs never matched in the reverse order are bit-identical, and every
   mean satisfies the derived-reverse formula
     mean(i,j) = (sum_ij + sum_ji · m_ij / m_ji) / (n_ij + n_ji)
   where sums/counts are the golden (single-direction) ones and m is the
   ground truth used to scale the shared exchange. *)
let test_golden_staged_reconciled () =
  let env = golden_env () in
  let m = Netmeasure.Schemes.staged (Prng.create 6) env ~ks:3 ~stages:8 in
  check_bits "sim_seconds" staged_sim_seconds m.Netmeasure.Schemes.sim_seconds;
  for i = 0 to 5 do
    for j = 0 to 5 do
      if i <> j then begin
        Alcotest.(check int)
          (Printf.sprintf "samples (%d,%d) additive" i j)
          (staged_samples.(i).(j) + staged_samples.(j).(i))
          m.Netmeasure.Schemes.samples.(i).(j);
        let n_ij = staged_samples.(i).(j) and n_ji = staged_samples.(j).(i) in
        if n_ij > 0 && n_ji = 0 then
          (* Only matched as (i,j): the forward stream is untouched. *)
          check_bits
            (Printf.sprintf "one-way mean (%d,%d)" i j)
            staged_means.(i).(j)
            m.Netmeasure.Schemes.means.(i).(j);
        if n_ij + n_ji > 0 then begin
          let sum_ij = if n_ij = 0 then 0.0 else staged_means.(i).(j) *. float_of_int n_ij in
          let sum_ji = if n_ji = 0 then 0.0 else staged_means.(j).(i) *. float_of_int n_ji in
          let scale = Cloudsim.Env.mean_latency env i j /. Cloudsim.Env.mean_latency env j i in
          let expected = (sum_ij +. (sum_ji *. scale)) /. float_of_int (n_ij + n_ji) in
          let actual = m.Netmeasure.Schemes.means.(i).(j) in
          Alcotest.(check bool)
            (Printf.sprintf "derived mean (%d,%d)" i j)
            true
            (Float.abs (actual -. expected) <= 1e-9 *. Float.max 1.0 expected)
        end
      end
    done
  done;
  (* Coverage is now symmetric: an ordered pair counts when either
     direction of the exchange was matched in the golden run. *)
  let covered = ref 0 in
  for i = 0 to 5 do
    for j = 0 to 5 do
      if i <> j && staged_samples.(i).(j) + staged_samples.(j).(i) > 0 then incr covered
    done
  done;
  Alcotest.(check (float 1e-12)) "coverage"
    (float_of_int !covered /. 30.0)
    (Netmeasure.Schemes.coverage m)

let scheme_equal (a : Netmeasure.Schemes.t) (b : Netmeasure.Schemes.t) =
  a.Netmeasure.Schemes.samples = b.Netmeasure.Schemes.samples
  && bits a.Netmeasure.Schemes.sim_seconds = bits b.Netmeasure.Schemes.sim_seconds
  && Array.for_all2
       (fun ra rb -> Array.for_all2 (fun x y -> bits x = bits y) ra rb)
       a.Netmeasure.Schemes.means b.Netmeasure.Schemes.means

let test_faults_none_is_free () =
  let env = golden_env () in
  let fenv = Cloudsim.Env.with_faults env Cloudsim.Faults.none in
  let pairs =
    [
      (fun e -> Netmeasure.Schemes.token_passing (Prng.create 9) e ~samples_per_pair:2);
      (fun e -> Netmeasure.Schemes.uncoordinated (Prng.create 10) e ~rounds:8);
      (fun e -> Netmeasure.Schemes.staged (Prng.create 11) e ~ks:2 ~stages:6);
    ]
  in
  List.iter
    (fun run -> Alcotest.(check bool) "bit-identical" true (scheme_equal (run env) (run fenv)))
    pairs

let lossy_cfg =
  {
    Cloudsim.Faults.seed = 42;
    loss = 0.3;
    loss_sigma = 0.6;
    straggler_fraction = 0.3;
    straggler_factor = 50.0;
    straggler_period_ms = 5.0;
    straggler_duration_ms = 1.0;
    crash_fraction = 0.2;
    crash_after_ms = 40.0;
  }

let test_seeded_fault_determinism () =
  let env = golden_env () in
  let run () =
    let e = Cloudsim.Env.with_faults env lossy_cfg in
    Netmeasure.Schemes.staged (Prng.create 12) e ~ks:3 ~stages:20
  in
  Alcotest.(check bool) "identical across runs" true (scheme_equal (run ()) (run ()))

let test_total_loss_yields_no_samples () =
  (* Every probe lost, every retry exhausted: sample counts must stay 0
     and means nan — never a bogus value — while the clock still charges
     the timeouts and the counters record the losses. *)
  let env = golden_env () in
  let e =
    Cloudsim.Env.with_faults env
      { Cloudsim.Faults.none with Cloudsim.Faults.seed = 3; loss = 1.0 }
  in
  let before = Obs.Counter.snapshot () in
  let m = Netmeasure.Schemes.token_passing (Prng.create 13) e ~samples_per_pair:1 in
  let deltas = Obs.Counter.delta ~before ~after:(Obs.Counter.snapshot ()) in
  let get name = try List.assoc name deltas with Not_found -> 0 in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j s ->
          Alcotest.(check int) "no samples" 0 s;
          if i <> j then
            Alcotest.(check bool) "mean is nan" true
              (Float.is_nan m.Netmeasure.Schemes.means.(i).(j)))
        row)
    m.Netmeasure.Schemes.samples;
  Alcotest.(check (float 0.0)) "coverage zero" 0.0 (Netmeasure.Schemes.coverage m);
  (* 30 ordered pairs x (1 try + 3 retries) probes, all lost. *)
  Alcotest.(check int) "lost" 120 (get "netmeasure.probes_lost");
  Alcotest.(check int) "timeouts" 120 (get "netmeasure.timeouts");
  Alcotest.(check int) "retries" 90 (get "netmeasure.retries");
  Alcotest.(check int) "no recorded probes" 0 (get "netmeasure.probes");
  (* Each failed measurement waits 4 timeouts plus backoffs 0.5+1+2. *)
  Alcotest.(check bool) "clock charged" true (m.Netmeasure.Schemes.sim_seconds > 0.0)

let test_stragglers_time_out_not_lost () =
  (* Everyone straggles all the time (duration = 2 x period keeps every
     instant inside a spike window) with a factor far past the timeout:
     probes come back but too late. The accounting must classify them as
     timeouts, not losses. *)
  let env = golden_env () in
  let e =
    Cloudsim.Env.with_faults env
      {
        Cloudsim.Faults.none with
        Cloudsim.Faults.seed = 8;
        straggler_fraction = 1.0;
        straggler_factor = 1000.0;
        straggler_period_ms = 10.0;
        straggler_duration_ms = 20.0;
      }
  in
  let before = Obs.Counter.snapshot () in
  let m = Netmeasure.Schemes.staged (Prng.create 14) e ~ks:2 ~stages:4 in
  let deltas = Obs.Counter.delta ~before ~after:(Obs.Counter.snapshot ()) in
  let get name = try List.assoc name deltas with Not_found -> 0 in
  Alcotest.(check int) "nothing lost in flight" 0 (get "netmeasure.probes_lost");
  Alcotest.(check bool) "late replies timed out" true (get "netmeasure.timeouts" > 0);
  (* Probes before the first jittered window opens still get through
     (there is no slot -1 to spill from), so coverage is partial, not
     zero — the point is that everything late was a timeout, not a loss. *)
  Alcotest.(check bool) "coverage degraded" true (Netmeasure.Schemes.coverage m < 1.0)

let synthetic means samples =
  { Netmeasure.Schemes.means; samples; sim_seconds = 1.0 }

let test_completion_provenance_exact () =
  (* (0,1) missing with (1,0) measured -> Reflected; (0,2) and (2,0) both
     missing -> Row_col_max from the worst measured row/column entry. *)
  let means =
    [| [| 0.0; nan; nan |]; [| 2.0; 0.0; 3.0 |]; [| nan; 4.0; 0.0 |] |]
  in
  let samples = [| [| 0; 0; 0 |]; [| 1; 0; 1 |]; [| 0; 1; 0 |] |] in
  let c = Netmeasure.Completion.complete (synthetic means samples) in
  let open Netmeasure.Completion in
  Alcotest.(check int) "imputed" 3 c.imputed;
  Alcotest.(check int) "unresolved" 0 c.unresolved;
  let prov i j = c.provenance.(i).(j) in
  Alcotest.(check bool) "reflected (0,1)" true (prov 0 1 = Reflected);
  Alcotest.(check (float 1e-12)) "reflected value" 2.0 c.means.(0).(1);
  Alcotest.(check bool) "rowcol (0,2)" true (prov 0 2 = Row_col_max);
  (* Row 0 has no measured entry; column 2 has (1,2)=3.0. *)
  Alcotest.(check (float 1e-12)) "rowcol value (0,2)" 3.0 c.means.(0).(2);
  Alcotest.(check bool) "rowcol (2,0)" true (prov 2 0 = Row_col_max);
  (* Row 2 has (2,1)=4.0; column 0 has (1,0)=2.0; max is 4.0. *)
  Alcotest.(check (float 1e-12)) "rowcol value (2,0)" 4.0 c.means.(2).(0);
  Alcotest.(check bool) "measured kept" true (prov 1 0 = Measured && prov 1 2 = Measured);
  (* Exactly the imputed set is non-Measured. *)
  let non_measured = ref 0 in
  for i = 0 to 2 do
    for j = 0 to 2 do
      if i <> j && prov i j <> Measured then incr non_measured
    done
  done;
  Alcotest.(check int) "mask size" 3 !non_measured

let test_completion_unresolved_and_drop () =
  let means = [| [| 0.0; nan |]; [| nan; 0.0 |] |] in
  let samples = [| [| 0; 0 |]; [| 0; 0 |] |] in
  let m = synthetic means samples in
  let c = Netmeasure.Completion.complete m in
  Alcotest.(check int) "unresolved" 2 c.Netmeasure.Completion.unresolved;
  Alcotest.(check bool) "missing stays nan" true (Float.is_nan c.Netmeasure.Completion.means.(0).(1));
  Alcotest.(check (list int)) "unreachable" [ 0; 1 ] (Netmeasure.Completion.unreachable m);
  let kept, sub = Netmeasure.Completion.drop_uncovered m in
  Alcotest.(check int) "one instance survives" 1 (Array.length kept);
  Alcotest.(check int) "trivial submatrix" 1 (Array.length sub)

let test_crash_then_drop_restores_coverage () =
  let env = golden_env () in
  let e =
    Cloudsim.Env.with_faults env
      {
        Cloudsim.Faults.none with
        Cloudsim.Faults.seed = 5;
        crash_fraction = 0.3;
        crash_after_ms = 0.0;
      }
  in
  (* Seed 5 crashes instances 2 and 3 at t = 0 (pinned by the test
     below); their rows and columns collect nothing. *)
  let m = Netmeasure.Schemes.staged (Prng.create 15) e ~ks:3 ~stages:30 in
  Alcotest.(check bool) "partial" true (Netmeasure.Schemes.coverage m < 1.0);
  Alcotest.(check (list int)) "unreachable" [ 2; 3 ] (Netmeasure.Completion.unreachable m);
  (* Pairs between the two dead instances have empty rows AND columns. *)
  let c = Netmeasure.Completion.complete m in
  Alcotest.(check int) "dead-dead pairs unresolved" 2 c.Netmeasure.Completion.unresolved;
  let kept, sub = Netmeasure.Completion.drop_uncovered m in
  Alcotest.(check (list int)) "kept" [ 0; 1; 4; 5 ] (Array.to_list kept);
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          if i <> j then Alcotest.(check bool) "fully measured" true (Float.is_finite v))
        row)
    sub

let test_cost_nan_poisons_with_witness () =
  let graph = Graphs.Digraph.create ~n:2 [ (0, 1) ] in
  let costs = [| [| 0.0; nan |]; [| 0.7; 0.0 |] |] in
  let problem = Cloudia.Types.problem ~graph ~costs in
  let plan = [| 0; 1 |] in
  let cost, witness = Cloudia.Cost.longest_link_witness problem plan in
  Alcotest.(check bool) "nan cost" true (Float.is_nan cost);
  Alcotest.(check bool) "witness names the edge" true (witness = Some (0, 1));
  Alcotest.(check bool) "longest_link nan" true
    (Float.is_nan (Cloudia.Cost.longest_link problem plan));
  Alcotest.(check bool) "longest_path nan" true
    (Float.is_nan (Cloudia.Cost.longest_path problem plan));
  (* The reverse plan avoids the nan edge and must evaluate normally. *)
  let ok = Cloudia.Cost.longest_link problem [| 1; 0 |] in
  Alcotest.(check (float 1e-12)) "clean plan fine" 0.7 ok

let test_problem_accepts_nan_rejects_inf () =
  let graph = Graphs.Digraph.create ~n:2 [ (0, 1) ] in
  let accepts costs = ignore (Cloudia.Types.problem ~graph ~costs) in
  accepts [| [| 0.0; nan |]; [| 0.5; 0.0 |] |];
  Alcotest.check_raises "infinite rejected"
    (Invalid_argument "Types.problem: costs must not be infinite") (fun () ->
      accepts [| [| 0.0; infinity |]; [| 0.5; 0.0 |] |]);
  Alcotest.check_raises "nan diagonal rejected"
    (Invalid_argument "Types.problem: nonzero diagonal") (fun () ->
      accepts [| [| nan; 0.4 |]; [| 0.5; 0.0 |] |])

let test_matrix_io_nan_roundtrip () =
  let matrix = [| [| 0.0; nan |]; [| 1.5; 0.0 |] |] in
  let text = Cloudia.Matrix_io.print (Lat_matrix.of_arrays matrix) in
  Alcotest.(check bool) "prints literal nan" true
    (String.length text > 0
    &&
    match Cloudia.Matrix_io.parse_raw text with
    | Ok m -> Float.is_nan m.(0).(1) && m.(1).(0) = 1.5
    | Error _ -> false);
  Alcotest.(check (result reject (list string))) "the gate rejects nan" (Error [ "LAT007" ])
    (Result.map ignore (Test_failure.admit text));
  (* Case-insensitive on input; full matrices still round-trip strictly. *)
  (match Cloudia.Matrix_io.parse_raw "0, NaN\n1.25, 0" with
  | Ok m -> Alcotest.(check bool) "NaN accepted" true (Float.is_nan m.(0).(1))
  | Error e -> Alcotest.fail e);
  let clean = [| [| 0.0; 0.25 |]; [| 0.5; 0.0 |] |] in
  match Test_failure.admit (Cloudia.Matrix_io.print (Lat_matrix.of_arrays clean)) with
  | Ok m -> Alcotest.(check (float 1e-9)) "clean roundtrip" 0.25 (Lat_matrix.get m 0 1)
  | Error e -> Alcotest.fail (String.concat "; " e)

let code_of (d : Lint.Diagnostic.t) = d.Lint.Diagnostic.code

let test_check_partial_codes () =
  let codes ~imputed ~dropped =
    List.map code_of (Lint.Instance.check_partial ~total:30 ~imputed ~dropped ())
  in
  Alcotest.(check (list string)) "clean" [] (codes ~imputed:0 ~dropped:0);
  Alcotest.(check (list string)) "imputed warns" [ "LAT008" ] (codes ~imputed:4 ~dropped:0);
  Alcotest.(check (list string)) "dropped warns" [ "LAT009" ] (codes ~imputed:0 ~dropped:2);
  Alcotest.(check (list string)) "both" [ "LAT008"; "LAT009" ] (codes ~imputed:1 ~dropped:1);
  Alcotest.(check (list string)) "completion never errors" []
    (List.map code_of
       (Lint.Diagnostic.errors (Lint.Instance.check_partial ~total:30 ~imputed:1 ~dropped:1 ())));
  (* Unsampled pairs are the matrix's own finding: 3 NaN pairs of the 30
     in a 6×6 matrix give one LAT007 with the share and the policies. *)
  let unsampled = [ (0, 1); (2, 5); (4, 3) ] in
  let costs =
    Array.init 6 (fun i ->
        Array.init 6 (fun j ->
            if i = j then 0.0 else if List.mem (i, j) unsampled then Float.nan else 1.0))
  in
  match Lint.Instance.check_matrix costs with
  | [ d ] ->
      Alcotest.(check string) "missing errors" "LAT007" (code_of d);
      Alcotest.(check bool) "is an error" true (d.Lint.Diagnostic.severity = Lint.Diagnostic.Error);
      Alcotest.(check string) "first pair" "costs[0][1]" d.Lint.Diagnostic.context;
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("message names " ^ needle) true
            (Test_lint.contains ~needle d.Lint.Diagnostic.message))
        [ "3 of 30 ordered pairs (10.0%)"; "--on-missing impute"; "--on-missing drop" ]
  | ds -> Alcotest.failf "expected one LAT007, got %d diagnostics" (List.length ds)

(* Advisor end-to-end under a fault plan that kills instances 2 and 3 at
   t = 0 (fault seed 5, pinned above): Fail and Impute must refuse —
   dead-dead pairs are beyond even conservative imputation — while Drop
   terminates the dead instances and still produces a valid deployment. *)
let advisor_config =
  {
    Cloudia.Advisor.graph = Graphs.Templates.mesh2d ~rows:2 ~cols:2;
    objective = Cloudia.Cost.Longest_link;
    metric = Cloudia.Metrics.Mean;
    over_allocation = 0.5;
    samples_per_pair = 3;
    strategy = Cloudia.Solver.Greedy_g2;
  }

let crash_faults =
  {
    Cloudsim.Faults.none with
    Cloudsim.Faults.seed = 5;
    crash_fraction = 0.3;
    crash_after_ms = 0.0;
  }

let test_advisor_on_missing_fail_and_impute_raise () =
  let run on_missing =
    Cloudia.Advisor.run ~faults:crash_faults ~on_missing (Prng.create 21)
      (Cloudsim.Provider.get Cloudsim.Provider.Ec2)
      advisor_config
  in
  let expect_blocked name on_missing =
    match run on_missing with
    | exception Lint.Diagnostic.Failed ds ->
        Alcotest.(check bool)
          (name ^ " reports LAT007")
          true
          (List.exists (fun d -> code_of d = "LAT007") ds)
    | _ -> Alcotest.fail (name ^ " must be blocked by lint")
  in
  expect_blocked "fail" Cloudia.Advisor.Fail;
  expect_blocked "impute" Cloudia.Advisor.Impute

let test_advisor_on_missing_drop_completes () =
  let report =
    Cloudia.Advisor.run ~faults:crash_faults ~on_missing:Cloudia.Advisor.Drop_instance
      (Prng.create 21)
      (Cloudsim.Provider.get Cloudsim.Provider.Ec2)
      advisor_config
  in
  let open Cloudia.Advisor in
  Alcotest.(check (list int)) "dead instances dropped" [ 2; 3 ] report.dropped;
  Alcotest.(check (list int)) "kept" [ 0; 1; 4; 5 ] (Array.to_list report.kept);
  Alcotest.(check bool) "partial coverage recorded" true
    (report.measurement_coverage < 1.0);
  (* 6 allocated = 4 nodes deployed + 2 terminated (both dead here). *)
  Alcotest.(check int) "partition" (Cloudsim.Env.count report.env)
    (List.length report.terminated + Array.length report.plan);
  Alcotest.(check (list int)) "terminated are the dropped" [ 2; 3 ] report.terminated;
  Alcotest.(check bool) "finite cost" true (Float.is_finite report.cost);
  Alcotest.(check bool) "LAT009 in diagnostics" true
    (List.exists (fun d -> code_of d = "LAT009") report.diagnostics);
  Alcotest.(check bool) "honest measurement clock" true
    (report.measurement_minutes > 0.0)

let test_advisor_no_faults_unchanged () =
  (* The optional fault arguments must not perturb the existing pipeline:
     a run with the defaults is identical to one predating them. *)
  let provider = Cloudsim.Provider.get Cloudsim.Provider.Ec2 in
  let a = Cloudia.Advisor.run (Prng.create 30) provider advisor_config in
  let b =
    Cloudia.Advisor.run ~faults:Cloudsim.Faults.none ~on_missing:Cloudia.Advisor.Impute
      (Prng.create 30) provider advisor_config
  in
  Alcotest.(check bool) "same plan" true (a.Cloudia.Advisor.plan = b.Cloudia.Advisor.plan);
  check_bits "same cost" a.Cloudia.Advisor.cost b.Cloudia.Advisor.cost;
  Alcotest.(check (float 0.0)) "full coverage" 1.0 a.Cloudia.Advisor.measurement_coverage;
  Alcotest.(check (list int)) "nothing dropped" [] a.Cloudia.Advisor.dropped;
  Alcotest.(check bool) "kept is identity" true
    (a.Cloudia.Advisor.kept = Array.init (Cloudsim.Env.count a.Cloudia.Advisor.env) (fun i -> i))

let test_search_gate_blocks_partial_matrix () =
  let graph = Graphs.Digraph.create ~n:2 [ (0, 1) ] in
  let costs = Lat_matrix.of_arrays [| [| 0.0; nan |]; [| 0.7; 0.0 |] |] in
  (* The step [cloudia plan] runs on a loaded matrix. *)
  match
    Cloudia.Advisor.solve ~full:false (Prng.create 31) Cloudia.Solver.Greedy_g1
      Cloudia.Cost.Longest_link graph costs
  with
  | exception Lint.Diagnostic.Failed ds ->
      Alcotest.(check bool) "LAT007" true
        (List.exists (fun d -> code_of d = "LAT007") ds)
  | _ -> Alcotest.fail "partial matrix must not reach a solver"

let suite =
  [
    Alcotest.test_case "golden: token bit-identity" `Quick test_golden_token_bit_identity;
    Alcotest.test_case "golden: uncoordinated bit-identity" `Quick
      test_golden_uncoordinated_bit_identity;
    Alcotest.test_case "golden: staged exchange reconciled" `Quick
      test_golden_staged_reconciled;
    Alcotest.test_case "faults none is free" `Quick test_faults_none_is_free;
    Alcotest.test_case "seeded fault determinism" `Quick test_seeded_fault_determinism;
    Alcotest.test_case "total loss yields no samples" `Quick test_total_loss_yields_no_samples;
    Alcotest.test_case "stragglers time out, not lost" `Quick
      test_stragglers_time_out_not_lost;
    Alcotest.test_case "completion provenance exact" `Quick test_completion_provenance_exact;
    Alcotest.test_case "completion unresolved and drop" `Quick
      test_completion_unresolved_and_drop;
    Alcotest.test_case "crash then drop restores coverage" `Quick
      test_crash_then_drop_restores_coverage;
    Alcotest.test_case "cost nan poisons with witness" `Quick
      test_cost_nan_poisons_with_witness;
    Alcotest.test_case "problem accepts nan, rejects inf" `Quick
      test_problem_accepts_nan_rejects_inf;
    Alcotest.test_case "matrix io nan roundtrip" `Quick test_matrix_io_nan_roundtrip;
    Alcotest.test_case "check_partial codes" `Quick test_check_partial_codes;
    Alcotest.test_case "advisor fail/impute raise" `Quick
      test_advisor_on_missing_fail_and_impute_raise;
    Alcotest.test_case "advisor drop completes" `Quick test_advisor_on_missing_drop_completes;
    Alcotest.test_case "advisor unchanged without faults" `Quick
      test_advisor_no_faults_unchanged;
    Alcotest.test_case "search gate blocks partial matrix" `Quick
      test_search_gate_blocks_partial_matrix;
  ]
