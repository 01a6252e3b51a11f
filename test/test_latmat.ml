(* Tests for the flat Lat_matrix representation and its binary on-disk
   format: exact (bit-level) round trips including NaN and asymmetric
   entries, float32 quantization bounds, header/shape error reporting,
   mmap vs channel agreement, and golden values pinning Cost.eval against
   the pre-refactor boxed implementation. *)

let check_bits name expected actual =
  Alcotest.(check int64)
    name (Int64.bits_of_float expected) (Int64.bits_of_float actual)

let with_temp f =
  let path = Filename.temp_file "latmat" ".lat" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* A deterministic asymmetric matrix with a zero diagonal, optional NaN
   holes, and values exercising many mantissa bits. *)
let sample_matrix ?(nan_every = 0) seed n =
  let rng = Prng.create seed in
  Lat_matrix.init n (fun i j ->
      if i = j then 0.0
      else if nan_every > 0 && ((i * n) + j) mod nan_every = 0 then nan
      else 0.1 +. Prng.float rng 10.0)

(* ---------- binary round trips ---------- *)

let binary_roundtrip_exact =
  QCheck.Test.make ~name:"float64 binary round-trip is bit-exact (NaN, asymmetric)" ~count:60
    QCheck.(pair small_int (int_range 1 20))
    (fun (seed, n) ->
      let m = sample_matrix ~nan_every:7 seed n in
      with_temp (fun path ->
          Lat_matrix.write_binary path m;
          match Lat_matrix.read_binary path with
          | Error e -> QCheck.Test.fail_reportf "read_binary: %s" e
          | Ok m' -> Lat_matrix.equal m m' && Lat_matrix.storage m' = Lat_matrix.Float64))

let mmap_matches_channel =
  QCheck.Test.make ~name:"mmap read equals channel read" ~count:30
    QCheck.(pair small_int (int_range 1 16))
    (fun (seed, n) ->
      let m = sample_matrix ~nan_every:5 seed n in
      with_temp (fun path ->
          Lat_matrix.write_binary path m;
          match (Lat_matrix.read_binary path, Lat_matrix.read_binary ~mmap:true path) with
          | Ok a, Ok b -> Lat_matrix.equal a b
          | Error e, _ | _, Error e -> QCheck.Test.fail_reportf "read_binary: %s" e))

let test_mmap_is_copy_on_write () =
  let m = sample_matrix 5 6 in
  with_temp (fun path ->
      Lat_matrix.write_binary path m;
      (match Lat_matrix.read_binary ~mmap:true path with
      | Error e -> Alcotest.failf "mmap read: %s" e
      | Ok view -> Lat_matrix.set view 1 2 9999.0);
      (* MAP_PRIVATE: the write above must not reach the file. *)
      match Lat_matrix.read_binary path with
      | Error e -> Alcotest.failf "re-read: %s" e
      | Ok fresh ->
          Alcotest.(check bool) "file unchanged" true (Lat_matrix.equal m fresh))

let csv_to_binary_preserves_parse =
  (* The binary format must carry CSV-parsed float64s (NaN holes
     included) without moving a bit, even though CSV itself is text. *)
  QCheck.Test.make ~name:"CSV-parsed values survive the binary carrier bit-for-bit" ~count:40
    QCheck.(pair small_int (int_range 2 12))
    (fun (seed, n) ->
      let m = sample_matrix ~nan_every:6 seed n in
      let csv = Cloudia.Matrix_io.print m in
      match Cloudia.Matrix_io.parse_raw csv with
      | Error e -> QCheck.Test.fail_reportf "parse_raw: %s" e
      | Ok rows ->
          let parsed = Lat_matrix.of_arrays rows in
          with_temp (fun path ->
              Lat_matrix.write_binary path parsed;
              match Lat_matrix.read_binary path with
              | Error e -> QCheck.Test.fail_reportf "read_binary: %s" e
              | Ok m' -> Lat_matrix.equal parsed m'))

(* ---------- float32 storage ---------- *)

let float32_quantization_bound =
  QCheck.Test.make ~name:"float32 quantization error <= 2^-24 relative" ~count:500
    QCheck.(float_range 1e-6 1e6)
    (fun v ->
      let q = Lat_matrix.quantize Lat_matrix.Float32 v in
      Float.abs (q -. v) <= Float.abs v *. Float.ldexp 1.0 (-24))

let float32_roundtrip_exact =
  (* Quantization happens once at construction; after that the disk round
     trip is exact, and NaN holes stay NaN. *)
  QCheck.Test.make ~name:"float32 binary round-trip is exact after quantization" ~count:40
    QCheck.(pair small_int (int_range 1 14))
    (fun (seed, n) ->
      let m =
        Lat_matrix.with_storage Lat_matrix.Float32 (sample_matrix ~nan_every:8 seed n)
      in
      with_temp (fun path ->
          Lat_matrix.write_binary path m;
          match Lat_matrix.read_binary path with
          | Error e -> QCheck.Test.fail_reportf "read_binary: %s" e
          | Ok m' ->
              Lat_matrix.storage m' = Lat_matrix.Float32
              &&
              let ok = ref true in
              Lat_matrix.iter
                (fun i j v ->
                  let v' = Lat_matrix.get m' i j in
                  if Float.is_nan v then begin
                    if not (Float.is_nan v') then ok := false
                  end
                  else if v <> v' then ok := false)
                m;
              !ok))

(* ---------- malformed inputs ---------- *)

let write_file path bytes = Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc bytes)

let expect_error name result =
  match result with
  | Ok _ -> Alcotest.failf "%s: expected an error" name
  | Error msg ->
      Alcotest.(check bool) (name ^ ": non-empty message") true (String.length msg > 0)

let test_malformed_files () =
  let m = sample_matrix 9 4 in
  with_temp (fun path ->
      Lat_matrix.write_binary path m;
      let good = In_channel.with_open_bin path In_channel.input_all in
      let patched off b =
        let bytes = Bytes.of_string good in
        Bytes.set bytes off b;
        bytes
      in
      write_file path (Bytes.of_string "not a matrix at all");
      expect_error "bad magic" (Lat_matrix.read_binary path);
      Alcotest.(check bool) "looks_binary rejects garbage" false (Lat_matrix.looks_binary path);
      write_file path (patched 8 '\007');
      expect_error "unsupported version" (Lat_matrix.read_binary path);
      write_file path (patched 12 '\009');
      expect_error "unknown storage tag" (Lat_matrix.read_binary path);
      write_file path (patched 20 '\005');
      expect_error "non-square dims" (Lat_matrix.read_binary path);
      write_file path (Bytes.sub (Bytes.of_string good) 0 (String.length good - 3));
      expect_error "truncated payload" (Lat_matrix.read_binary path);
      write_file path (Bytes.sub (Bytes.of_string good) 0 10);
      expect_error "truncated header" (Lat_matrix.read_binary path));
  expect_error "missing file" (Lat_matrix.read_binary "/nonexistent/matrix.lat")

let test_shape_and_bounds_errors () =
  let m = sample_matrix 11 5 in
  let oob name f = Alcotest.check_raises name (Invalid_argument "") (fun () ->
      try f () with Invalid_argument _ -> raise (Invalid_argument ""))
  in
  oob "get row oob" (fun () -> ignore (Lat_matrix.get m 5 0));
  oob "get col oob" (fun () -> ignore (Lat_matrix.get m 0 (-1)));
  oob "set oob" (fun () -> Lat_matrix.set m 7 7 1.0);
  oob "negative create" (fun () -> ignore (Lat_matrix.create (-2)));
  oob "ragged rows" (fun () ->
      ignore (Lat_matrix.of_arrays [| [| 0.0; 1.0 |]; [| 1.0 |] |]))

(* ---------- golden Cost.eval values ---------- *)

(* A fixed 7-instance matrix written as hex floats (parsed exactly), the
   paper's two objectives evaluated on fixed plans. The expected bits
   were produced by the pre-refactor boxed float array array
   implementation; the flat representation must reproduce them exactly. *)
let golden_matrix =
  [|
    [| 0x0p+0; 0x1.11eb851eb851fp-1; 0x1.8a3d70a3d70a4p-1; 0x1.0147ae147ae14p+0; 0x1.3d70a3d70a3d7p+0; 0x1.9374bc6a7ef9ep-2; 0x1.420c49ba5e354p-1 |];
    [| 0x1.c395810624dd3p-2; 0x0p+0; 0x1.0147ae147ae14p+0; 0x1.4978d4fdf3b64p+0; 0x1.f3b645a1cac08p-2; 0x1.8a3d70a3d70a4p-1; 0x1.0d4fdf3b645a2p+0 |];
    [| 0x1.29fbe76c8b439p-1; 0x1.d26e978d4fdf4p-1; 0x0p+0; 0x1.f3b645a1cac08p-2; 0x1.a24dd2f1a9fbep-1; 0x1.25604189374bcp+0; 0x1.9374bc6a7ef9ep-2 |];
    [| 0x1.722d0e5604189p-1; 0x1.195810624dd2fp+0; 0x1.9374bc6a7ef9ep-2; 0x0p+0; 0x1.25604189374bcp+0; 0x1.c395810624dd3p-2; 0x1.a24dd2f1a9fbep-1 |];
    [| 0x1.ba5e353f7ced9p-1; 0x1.4978d4fdf3b64p+0; 0x1.420c49ba5e354p-1; 0x1.0d4fdf3b645a2p+0; 0x0p+0; 0x1.a24dd2f1a9fbep-1; 0x1.3d70a3d70a3d7p+0 |];
    [| 0x1.0147ae147ae14p+0; 0x1.9374bc6a7ef9ep-2; 0x1.ba5e353f7ced9p-1; 0x1.55810624dd2f2p+0; 0x1.722d0e5604189p-1; 0x0p+0; 0x1.29fbe76c8b439p-1 |];
    [| 0x1.25604189374bcp+0; 0x1.29fbe76c8b439p-1; 0x1.195810624dd2fp+0; 0x1.11eb851eb851fp-1; 0x1.0d4fdf3b645a2p+0; 0x1.f3b645a1cac08p-2; 0x0p+0 |];
  |]

let test_golden_cost_eval () =
  let costs = golden_matrix in
  let link_problem =
    Cloudia.Types.problem ~graph:(Graphs.Templates.mesh2d ~rows:2 ~cols:3) ~costs
  in
  let path_problem =
    Cloudia.Types.problem ~graph:(Graphs.Templates.aggregation_tree ~fanout:2 ~depth:2) ~costs
  in
  let plan_a = [| 2; 5; 0; 3; 6; 1 |] in
  let plan_b = [| 6; 4; 1; 0; 2; 3; 5 |] in
  check_bits "longest link, identity prefix" 0x1.4978d4fdf3b64p+0
    (Cloudia.Cost.eval Cloudia.Cost.Longest_link link_problem
       (Cloudia.Types.identity_plan link_problem));
  check_bits "longest link, permuted plan" 0x1.25604189374bcp+0
    (Cloudia.Cost.eval Cloudia.Cost.Longest_link link_problem plan_a);
  check_bits "longest path, identity" 0x1.ba5e353f7ced9p+0
    (Cloudia.Cost.eval Cloudia.Cost.Longest_path path_problem
       (Cloudia.Types.identity_plan path_problem));
  check_bits "longest path, permuted plan" 0x1.3d70a3d70a3d7p+1
    (Cloudia.Cost.eval Cloudia.Cost.Longest_path path_problem plan_b)

(* Fingerprints key the daemon's caches and travel in the wire's
   [fingerprint] field, so a rewrite of [Lat_matrix.fingerprint] must
   reproduce these constants bit for bit. They were computed by an
   independent FNV-1a-64 over the dimension and the cells' float64 bits,
   each as 8 little-endian bytes. *)
let test_fingerprint_constants () =
  let bits = Int64.float_of_bits in
  let check name expected m =
    Alcotest.(check string) name expected (Lat_matrix.fingerprint_hex m)
  in
  check "0x0" "a8c7f832281a39c5" (Lat_matrix.create 0);
  check "1x1 zero" "392209f14dea4c24" (Lat_matrix.create 1);
  check "2x2 zeros" "7e0eafa1d69b9187" (Lat_matrix.create 2);
  check "2x2 with -0.0" "126cb36b6a805807"
    (Lat_matrix.of_arrays [| [| 0.0; -0.0 |]; [| 0.0; 0.0 |] |]);
  (* Quiet NaN, -0.0, the smallest and largest subnormals, +inf and a
     NaN with a payload: every cell hashes by its exact bits. *)
  check "3x3 special cells" "dc7de073aa6cd736"
    (Lat_matrix.of_arrays
       [|
         [| 0.0; bits 0x7ff8000000000000L; -0.0 |];
         [| bits 0x1L; 0.0; bits 0x000fffffffffffffL |];
         [| Float.infinity; bits 0x7ff0000000000001L; 0.0 |];
       |]);
  let ramp = Lat_matrix.init 4 (fun i j -> float_of_int ((i * 4) + j) *. 0.25) in
  check "4x4 ramp" "0f1b100cdb1f5e34" ramp;
  check "4x4 ramp, float32 storage" "0f1b100cdb1f5e34"
    (Lat_matrix.with_storage Lat_matrix.Float32 ramp);
  check "7x7 golden matrix" "f9e5dbbb5d8fa148" (Lat_matrix.of_arrays golden_matrix);
  Alcotest.(check int64) "int64 form" 0xf9e5dbbb5d8fa148L
    (Lat_matrix.fingerprint (Lat_matrix.of_arrays golden_matrix))

let suite =
  [
    QCheck_alcotest.to_alcotest ~long:false binary_roundtrip_exact;
    QCheck_alcotest.to_alcotest ~long:false mmap_matches_channel;
    Alcotest.test_case "mmap is copy-on-write" `Quick test_mmap_is_copy_on_write;
    QCheck_alcotest.to_alcotest ~long:false csv_to_binary_preserves_parse;
    QCheck_alcotest.to_alcotest ~long:false float32_quantization_bound;
    QCheck_alcotest.to_alcotest ~long:false float32_roundtrip_exact;
    Alcotest.test_case "malformed binary files" `Quick test_malformed_files;
    Alcotest.test_case "shape and bounds errors" `Quick test_shape_and_bounds_errors;
    Alcotest.test_case "golden Cost.eval bits" `Quick test_golden_cost_eval;
    Alcotest.test_case "fingerprint constants" `Quick test_fingerprint_constants;
  ]
