(* Tests for the lint library: instance diagnostics over adversarial
   matrices / graphs / configs, and the source rules (analyzer passes
   A005-A007) exercised on in-memory fixture strings. *)

let has_code code ds = List.exists (fun d -> d.Lint.Diagnostic.code = code) ds

let count_code code ds =
  List.length (List.filter (fun d -> d.Lint.Diagnostic.code = code) ds)

let find_code code ds = List.find (fun d -> d.Lint.Diagnostic.code = code) ds

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- matrix diagnostics ---------------- *)

let test_matrix_clean () =
  let costs = [| [| 0.0; 1.0; 2.0 |]; [| 1.0; 0.0; 1.5 |]; [| 2.0; 1.5; 0.0 |] |] in
  check_int "no diagnostics" 0 (List.length (Lint.Instance.check_matrix costs))

let test_matrix_nan_aggregated () =
  (* A fully-NaN off-diagonal matrix is all unsampled pairs: one LAT007,
     not n². *)
  let n = 4 in
  let costs =
    Array.init n (fun i -> Array.init n (fun j -> if i = j then 0.0 else Float.nan))
  in
  let ds = Lint.Instance.check_matrix costs in
  check_int "one LAT007" 1 (count_code "LAT007" ds);
  check_int "no LAT002" 0 (count_code "LAT002" ds);
  let d = find_code "LAT007" ds in
  check_bool "is error" true (d.Lint.Diagnostic.severity = Lint.Diagnostic.Error);
  check_bool "counts every pair" true
    (contains ~needle:"12 of 12 ordered pairs (100.0%)" d.Lint.Diagnostic.message);
  (* Infinities, and NaN on the diagonal, are non-finite: LAT002. *)
  let inf = [| [| 0.0; infinity |]; [| Float.neg_infinity; Float.nan |] |] in
  let ds = Lint.Instance.check_matrix inf in
  check_int "one LAT002" 1 (count_code "LAT002" ds);
  check_bool "diagonal NaN is not a pair" false (has_code "LAT007" ds)

let test_matrix_negative_and_diag () =
  let costs = [| [| 0.0; -1.0 |]; [| 1.0; 3.0 |] |] in
  let ds = Lint.Instance.check_matrix costs in
  check_bool "LAT003 negative" true (has_code "LAT003" ds);
  check_bool "LAT004 non-zero diagonal" true (has_code "LAT004" ds)

let test_matrix_not_square () =
  let costs = [| [| 0.0; 1.0 |]; [| 1.0 |] |] in
  let ds = Lint.Instance.check_matrix costs in
  check_bool "LAT001" true (has_code "LAT001" ds)

let test_matrix_asymmetry_warns () =
  (* 1.0 vs 100.0 is gross asymmetry; measured-RTT jitter is not. *)
  let gross = [| [| 0.0; 1.0 |]; [| 100.0; 0.0 |] |] in
  let mild = [| [| 0.0; 1.0 |]; [| 1.2; 0.0 |] |] in
  check_bool "gross asymmetry warns" true
    (has_code "LAT005" (Lint.Instance.check_matrix gross));
  check_bool "mild asymmetry tolerated" false
    (has_code "LAT005" (Lint.Instance.check_matrix mild));
  check_bool "tolerance 0 flags mild too" true
    (has_code "LAT005" (Lint.Instance.check_matrix ~asymmetry_tolerance:0.0 mild))

let test_matrix_triangle_info () =
  (* c(0,2) = 10 > c(0,1) + c(1,2) = 2: a triangle violation, info only. *)
  let costs =
    [| [| 0.0; 1.0; 10.0 |]; [| 1.0; 0.0; 1.0 |]; [| 10.0; 1.0; 0.0 |] |]
  in
  let ds = Lint.Instance.check_matrix costs in
  check_bool "LAT006 reported" true (has_code "LAT006" ds);
  check_bool "only info severity" true
    (List.for_all
       (fun d -> d.Lint.Diagnostic.severity = Lint.Diagnostic.Info)
       ds);
  (* Above the size cap the O(n³) scan is skipped. *)
  check_bool "scan skipped above cap" false
    (has_code "LAT006" (Lint.Instance.check_matrix ~max_triangle_n:2 costs))

(* ---------------- graph diagnostics ---------------- *)

let test_edges_adversarial () =
  let ds = Lint.Instance.check_edges ~n:3 [ (0, 0); (0, 7); (1, 2); (1, 2) ] in
  check_bool "GRF001 self-loop" true (has_code "GRF001" ds);
  check_bool "GRF002 out of range" true (has_code "GRF002" ds);
  check_bool "GRF003 duplicate" true (has_code "GRF003" ds)

let test_graph_cyclic_lpndp () =
  (* A 2x3 mesh is cyclic: fine for longest-link, fatal for longest-path. *)
  let g = Graphs.Templates.mesh2d ~rows:2 ~cols:3 in
  check_bool "GRF005 under LPNDP" true
    (has_code "GRF005" (Lint.Instance.check_graph ~requires_dag:true g));
  check_bool "no GRF005 under LLNDP" false
    (has_code "GRF005" (Lint.Instance.check_graph g));
  let dag = Graphs.Templates.aggregation_tree ~fanout:2 ~depth:2 in
  check_bool "DAG passes LPNDP" false
    (has_code "GRF005" (Lint.Instance.check_graph ~requires_dag:true dag))

let test_graph_oversized_template () =
  (* More application nodes than pool instances: no injection exists. *)
  let g = Graphs.Templates.mesh2d ~rows:4 ~cols:4 in
  let ds = Lint.Instance.check_graph ~pool:8 g in
  check_bool "GRF006" true (has_code "GRF006" ds);
  check_bool "pool = |V| fine" false
    (has_code "GRF006" (Lint.Instance.check_graph ~pool:16 g))

let test_graph_disconnected_and_isolated () =
  let g = Graphs.Digraph.create ~n:4 [ (0, 1) ] in
  let ds = Lint.Instance.check_graph g in
  check_bool "GRF004 disconnected" true (has_code "GRF004" ds);
  check_bool "GRF007 isolated" true (has_code "GRF007" ds)

let test_graph_empty () =
  let g = Graphs.Digraph.create ~n:3 [] in
  check_bool "GRF008" true (has_code "GRF008" (Lint.Instance.check_graph g))

(* ---------------- config diagnostics ---------------- *)

let test_config_checks () =
  let ds =
    Lint.Instance.check_config ~time_limit:(-1.0) ~domains:0 ~over_allocation:(-0.5)
      ~samples_per_pair:0 ()
  in
  check_bool "CFG001" true (has_code "CFG001" ds);
  check_bool "CFG002" true (has_code "CFG002" ds);
  check_bool "CFG004" true (has_code "CFG004" ds);
  check_bool "CFG005" true (has_code "CFG005" ds);
  let ds = Lint.Instance.check_config ~domains:9 ~pool:4 () in
  check_bool "CFG003 domains > pool" true (has_code "CFG003" ds);
  check_int "clean config" 0
    (List.length
       (Lint.Instance.check_config ~time_limit:1.0 ~domains:2 ~pool:4
          ~over_allocation:0.5 ~samples_per_pair:10 ()))

let test_config_time_limit_finite () =
  (* [nan <= 0.0] is false: a NaN or infinite budget must still be
     refused, as the daemon refuses such a [budget]. *)
  List.iter
    (fun t ->
      check_bool (Printf.sprintf "CFG001 for %g" t) true
        (has_code "CFG001" (Lint.Instance.check_config ~time_limit:t ())))
    [ Float.nan; infinity; Float.neg_infinity; 0.0; -1.0 ];
  check_bool "a finite positive budget passes" false
    (has_code "CFG001" (Lint.Instance.check_config ~time_limit:0.5 ()))

(* ---------------- diagnostic plumbing ---------------- *)

let test_check_raises_and_strict () =
  let info = Lint.Diagnostic.make Lint.Diagnostic.Info ~code:"X1" ~context:"t" "i" in
  let warn = Lint.Diagnostic.make Lint.Diagnostic.Warning ~code:"X2" ~context:"t" "w" in
  let err = Lint.Diagnostic.make Lint.Diagnostic.Error ~code:"X3" ~context:"t" "e" in
  Lint.Diagnostic.check [ info; warn ];
  check_bool "error raises" true
    (match Lint.Diagnostic.check [ info; err ] with
    | exception Lint.Diagnostic.Failed _ -> true
    | () -> false);
  check_bool "strict promotes warnings" true
    (match Lint.Diagnostic.check ~strict:true [ warn ] with
    | exception Lint.Diagnostic.Failed _ -> true
    | () -> false);
  Lint.Diagnostic.check ~strict:true [ info ]

let test_sort_and_json () =
  let info = Lint.Diagnostic.make Lint.Diagnostic.Info ~code:"B1" ~context:"t" "i" in
  let err = Lint.Diagnostic.make Lint.Diagnostic.Error ~code:"A1" ~context:"t" "e" in
  (match Lint.Diagnostic.sort [ info; err ] with
  | first :: _ -> check_bool "errors sort first" true (first == err)
  | [] -> Alcotest.fail "sort dropped diagnostics");
  let json = Lint.Diagnostic.to_json [ err; info ] in
  check_bool "json has code" true
    (contains ~needle:{|"code": "A1"|} json || contains ~needle:{|"code":"A1"|} json);
  check_bool "json escapes quotes" true
    (contains ~needle:{|\"|}
       (Lint.Diagnostic.to_json
          [ Lint.Diagnostic.make Lint.Diagnostic.Info ~code:"Q" ~context:"c" {|say "hi"|} ]))

let test_json_bytes () =
  let d =
    Lint.Diagnostic.make Lint.Diagnostic.Warning ~code:"LAT004" ~context:"costs[1][2]"
      "say \"hi\"\tthen leave"
  in
  Alcotest.(check string) "exact bytes"
    {|[{"severity":"warning","code":"LAT004","context":"costs[1][2]","message":"say \"hi\"\tthen leave"}]|}
    (Lint.Diagnostic.to_json [ d ]);
  Alcotest.(check string) "empty list" "[]" (Lint.Diagnostic.to_json [])

(* ---------------- source rules (analyzer passes A005-A007) ---------------- *)

let scan path text = Analysis.Analyzer.check_source ~path text

let count_pass pass fs = List.length (List.filter (fun (f : Analysis.Finding.t) -> f.pass = pass) fs)

let test_rules_are_analyzer_passes () =
  (* Every source rule is an AST pass; the former token rules R001-R006
     live on as A002 and A004-A007. *)
  Alcotest.(check (list string))
    "pass ids"
    [ "A001"; "A002"; "A003"; "A004"; "A005"; "A006"; "A007" ]
    (List.map (fun (p : Analysis.Registry.pass) -> p.id) (Analysis.Analyzer.builtin_passes ()));
  let bad =
    "let t0 = Unix.gettimeofday ()\n" ^ "let () = Random.self_init ()\n"
    ^ "let v = problem.costs.(0).(1)\n"
  in
  Alcotest.(check (list string))
    "wall clock, Random and boxed costs" [ "A002"; "A002"; "A004" ]
    (List.map (fun (f : Analysis.Finding.t) -> f.pass) (scan "lib/cp/search.ml" bad))

let test_a005_obj_magic () =
  let bad = "let cast (x : int) : string = Obj.magic x" in
  check_int "flagged in bin" 1 (count_pass "A005" (scan "bin/cloudia_cli.ml" bad));
  check_int "flagged in lib" 1 (count_pass "A005" (scan "lib/cp/search.ml" bad));
  check_int "Stdlib spelling" 1
    (count_pass "A005" (scan "lib/cp/search.ml" "let cast x = Stdlib.Obj.magic x"))

let test_a005_module_alias () =
  (* No "Obj.magic" token appears; the alias resolves to it. *)
  let aliased = "module O = Obj\nlet cast x = O.magic x\n" in
  (match List.filter (fun (f : Analysis.Finding.t) -> f.pass = "A005") (scan "lib/cp/search.ml" aliased) with
  | [ f ] -> check_int "at the use" 2 f.line
  | fs -> Alcotest.failf "expected one A005, got %d" (List.length fs));
  check_int "open Obj" 1
    (count_pass "A005" (scan "lib/cp/search.ml" "open Obj\nlet cast x = magic x\n"));
  check_int "local module alias" 1
    (count_pass "A005" (scan "lib/cp/search.ml" "let cast x = let module O = Obj in O.magic x\n"))

let test_a006_library_printing () =
  let in_lib src = count_pass "A006" (scan "lib/cloudia/advisor.ml" src) in
  let bad =
    "let () = print_string \"a\"; print_endline \"b\"; print_newline ();\n"
    ^ "  Printf.printf \"c\"; Format.printf \"d\"\n"
  in
  check_int "all five names" 5 (in_lib bad);
  check_int "open Printf, bare printf" 1 (in_lib "open Printf\nlet () = printf \"hi\"\n");
  check_int "module P = Printf" 1 (in_lib "module P = Printf\nlet () = P.printf \"hi\"\n");
  check_int "Stdlib.print_endline" 1 (in_lib "let () = Stdlib.print_endline \"hi\"\n");
  check_int "binaries may print" 0 (count_pass "A006" (scan "bin/cloudia_cli.ml" bad));
  check_int "file-local print_endline" 0
    (in_lib "let print_endline s = ignore s\nlet () = print_endline \"quiet\"\n");
  check_int "sprintf and fprintf are fine" 0
    (in_lib "let s = Printf.sprintf \"%d\" 1\nlet () = Printf.fprintf stderr \"%s\" s\n")

let test_a007_missing_mli () =
  let r =
    Analysis.Analyzer.run
      [
        ("lib/cp/search.ml", "let x = 1\n");
        ("lib/cp/search.mli", "val x : int\n");
        ("lib/cp/orphan.ml", "let y = 2\n");
        ("bin/cloudia_cli.ml", "let () = ()\n") (* binaries are exempt *);
      ]
  in
  match r.Analysis.Analyzer.kept with
  | [ f ] ->
      Alcotest.(check string) "pass" "A007" f.pass;
      Alcotest.(check string) "which file" "lib/cp/orphan.ml" f.path
  | fs -> Alcotest.failf "expected exactly one A007 finding, got %d" (List.length fs)

let test_a005_skips_comments_and_strings () =
  let text =
    "(* Obj.magic is banned everywhere *)\n" ^ "let doc = \"call Obj.magic never\"\n"
    ^ "let raw = {|Obj.magic in a quoted block|}\n" ^ "let tick = 'x'\n"
  in
  check_int "nothing flagged" 0 (List.length (scan "lib/cp/search.ml" text));
  let nested = "(* outer (* Obj.magic *) still comment *) let x = 1" in
  check_int "nested comment" 0 (List.length (scan "lib/cp/search.ml" nested));
  let mixed = "(* fine *) let cast x = Obj.magic x" in
  check_int "code after comment flagged" 1 (count_pass "A005" (scan "lib/cp/search.ml" mixed))

let test_a005_skips_quoted_strings () =
  let text = "let payload = {json|{\"x\": [1]} Obj.magic |} still |json}\n" in
  check_int "delimited string" 0 (List.length (scan "lib/cp/search.ml" text));
  let after = "let p = {q|Obj.magic|q}\nlet cast x = Obj.magic x\n" in
  (match scan "lib/cp/search.ml" after with
  | [ f ] -> check_int "line after the string" 2 f.line
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs));
  check_int "record braces are code" 1
    (count_pass "A005" (scan "lib/cp/search.ml" "let r = { x = Obj.magic 1 }"))

let test_token_boundaries () =
  let similar = "let x = My_Obj.magic_backup ()\nlet y = Obj.magic_number\n" in
  check_int "no false positive" 0 (List.length (scan "lib/cp/search.ml" similar))

let test_allowlist_suppression () =
  let files =
    [ ("lib/cp/search.ml", "let () = Printf.printf \"hi\"\n"); ("lib/cp/search.mli", "") ]
  in
  let run allow = Analysis.Analyzer.run ~allow:(Analysis.Analyzer.parse_allowlist allow) files in
  let r = run "# debug CLI surface, tracked in ROADMAP\nA006 lib/cp/\n" in
  check_int "suppressed" 1 (List.length r.Analysis.Analyzer.suppressed);
  check_int "kept" 0 (List.length r.Analysis.Analyzer.kept);
  (* Another pass or another prefix keeps the finding. *)
  let r = run "A005 lib/cp/\nA006 lib/lp/\n" in
  check_int "not suppressed" 0 (List.length r.Analysis.Analyzer.suppressed);
  check_int "kept unmatched" 1 (List.length r.Analysis.Analyzer.kept)

let test_violation_to_diagnostic () =
  match scan "lib/cp/search.ml" "let cast x = Obj.magic x" with
  | [ f ] ->
      let d = Analysis.Finding.to_diagnostic f in
      check_bool "error severity" true (d.Lint.Diagnostic.severity = Lint.Diagnostic.Error);
      Alcotest.(check string) "code" "A005" d.Lint.Diagnostic.code;
      Alcotest.(check string) "context" "lib/cp/search.ml:1" d.Lint.Diagnostic.context
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

(* ---------------- hardened numeric entry points ---------------- *)

let test_kmeans_rejects_nan () =
  check_bool "kmeans rejects NaN" true
    (match Stats.Kmeans1d.cluster ~k:2 [| 1.0; Float.nan; 3.0 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_metrics_rejects_inf () =
  check_bool "metrics reject inf" true
    (match Cloudia.Metrics.of_samples Cloudia.Metrics.Mean [| 1.0; Float.infinity |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The daemon's reader gates every request, memo hits included, so the
   matrix check must not allocate per entry. On a clean 77x77 matrix with
   an 8x8 mesh the whole gate measures about 1.3 k minor words, nearly all
   of it the graph and config checks; the flat matrix check adds about
   20. The ceiling is 2 k, a 50 % margin. A boxed copy of the matrix
   alone is about 6 k words, and the boxed check
   ([Lint.Instance.check_matrix] on [Lat_matrix.to_arrays]) takes the
   gate to 32 k. *)
let test_gate_allocation () =
  let costs =
    Lat_matrix.init 77 (fun i j ->
        if i = j then 0.0 else 1.0 +. (float_of_int (((i * j) + i + j) mod 9) /. 10.0))
  in
  let mesh = Graphs.Templates.mesh2d ~rows:8 ~cols:8 in
  let gate () =
    Cloudia.Advisor.gate ~full:false (Some mesh) (Some costs) Cloudia.Cost.Longest_link
      (Some Cloudia.Solver.Greedy_g2)
  in
  check_int "clean" 0 (List.length (gate ()));
  let before = Gc.minor_words () in
  ignore (gate () : Lint.Diagnostic.t list);
  let words = Gc.minor_words () -. before in
  if words > 2_000.0 then
    Alcotest.failf "gate on a 77x77 matrix: %.0f minor words, over the 2000 ceiling" words

let suite =
  [
    Alcotest.test_case "matrix clean" `Quick test_matrix_clean;
    Alcotest.test_case "matrix nan aggregated" `Quick test_matrix_nan_aggregated;
    Alcotest.test_case "matrix negative + diag" `Quick test_matrix_negative_and_diag;
    Alcotest.test_case "matrix not square" `Quick test_matrix_not_square;
    Alcotest.test_case "matrix asymmetry" `Quick test_matrix_asymmetry_warns;
    Alcotest.test_case "matrix triangle info" `Quick test_matrix_triangle_info;
    Alcotest.test_case "edges adversarial" `Quick test_edges_adversarial;
    Alcotest.test_case "graph cyclic lpndp" `Quick test_graph_cyclic_lpndp;
    Alcotest.test_case "graph oversized template" `Quick test_graph_oversized_template;
    Alcotest.test_case "graph disconnected" `Quick test_graph_disconnected_and_isolated;
    Alcotest.test_case "graph empty" `Quick test_graph_empty;
    Alcotest.test_case "config checks" `Quick test_config_checks;
    Alcotest.test_case "config time limit finite" `Quick test_config_time_limit_finite;
    Alcotest.test_case "check strictness" `Quick test_check_raises_and_strict;
    Alcotest.test_case "sort and json" `Quick test_sort_and_json;
    Alcotest.test_case "json exact bytes" `Quick test_json_bytes;
    Alcotest.test_case "rules are analyzer passes" `Quick test_rules_are_analyzer_passes;
    Alcotest.test_case "A005 obj magic" `Quick test_a005_obj_magic;
    Alcotest.test_case "A005 module alias" `Quick test_a005_module_alias;
    Alcotest.test_case "A006 library printing" `Quick test_a006_library_printing;
    Alcotest.test_case "A007 missing mli" `Quick test_a007_missing_mli;
    Alcotest.test_case "A005 skips comments/strings" `Quick test_a005_skips_comments_and_strings;
    Alcotest.test_case "A005 skips quoted strings" `Quick test_a005_skips_quoted_strings;
    Alcotest.test_case "token boundaries" `Quick test_token_boundaries;
    Alcotest.test_case "allowlist suppression" `Quick test_allowlist_suppression;
    Alcotest.test_case "violation to diagnostic" `Quick test_violation_to_diagnostic;
    Alcotest.test_case "kmeans rejects nan" `Quick test_kmeans_rejects_nan;
    Alcotest.test_case "metrics reject inf" `Quick test_metrics_rejects_inf;
    Alcotest.test_case "gate allocation ceiling" `Quick test_gate_allocation;
  ]
