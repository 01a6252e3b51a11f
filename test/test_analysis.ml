(* Tests for the AST analyzer (lib/analysis/): each pass against seeded
   fixture modules, the inline-suppression and baseline plumbing, and a
   zero-findings check over the real source tree. Fixtures are in-memory
   strings fed through the compiler's parser, so every case documents the
   exact shape the pass catches or deliberately tolerates. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let findings path text = Analysis.Analyzer.check_source ~path text

let passes_of fs = List.map (fun (f : Analysis.Finding.t) -> f.pass) fs

let has_pass p fs = List.mem p (passes_of fs)

let count_pass p fs = List.length (List.filter (fun (f : Analysis.Finding.t) -> f.pass = p) fs)

(* ---------------- A001: domain-safety ---------------- *)

let test_a001_ref_reached_from_spawn () =
  let src =
    "let counter = ref 0\n"
    ^ "let start () = Domain.spawn (fun () -> incr counter)\n"
  in
  let fs = findings "lib/cloudia/fixture.ml" src in
  check_int "one A001" 1 (count_pass "A001" fs);
  (match List.find_opt (fun (f : Analysis.Finding.t) -> f.pass = "A001") fs with
  | Some f -> check_int "finding at the spawn site" 2 f.line
  | None -> Alcotest.fail "A001 finding missing")

let test_a001_hashtbl_reached_from_spawn () =
  let src =
    "let cache = Hashtbl.create 16\n"
    ^ "let start () = Domain.spawn (fun () -> Hashtbl.add cache 1 \"x\")\n"
  in
  check_bool "Hashtbl state flagged" true
    (has_pass "A001" (findings "lib/cloudia/fixture.ml" src))

let test_a001_transitive_reachability () =
  (* The closure never names the ref; it calls a top-level helper that
     does. Reachability must follow the def/use graph. *)
  let src =
    "let counter = ref 0\n"
    ^ "let bump () = incr counter\n"
    ^ "let start () = Domain.spawn (fun () -> bump ())\n"
  in
  check_bool "transitive reach flagged" true
    (has_pass "A001" (findings "lib/cloudia/fixture.ml" src))

let test_a001_atomic_is_safe () =
  let src =
    "let counter = Atomic.make 0\n"
    ^ "let start () = Domain.spawn (fun () -> Atomic.incr counter)\n"
  in
  check_int "Atomic state is fine" 0
    (count_pass "A001" (findings "lib/cloudia/fixture.ml" src))

let test_a001_mutex_protect_guards () =
  let src =
    "let lock = Mutex.create ()\n"
    ^ "let counter = ref 0\n"
    ^ "let start () =\n"
    ^ "  Domain.spawn (fun () -> Mutex.protect lock (fun () -> incr counter))\n"
  in
  check_int "Mutex.protect-guarded access is fine" 0
    (count_pass "A001" (findings "lib/cloudia/fixture.ml" src))

let test_a001_local_state_is_fine () =
  (* Mutable state created inside the spawned closure is domain-local. *)
  let src =
    "let start () = Domain.spawn (fun () -> let c = ref 0 in incr c; !c)\n"
  in
  check_int "closure-local ref is fine" 0
    (count_pass "A001" (findings "lib/cloudia/fixture.ml" src))

(* ---------------- A002: determinism ---------------- *)

let test_a002_direct_gettimeofday () =
  let src = "let now () = Unix.gettimeofday ()\n" in
  check_bool "flagged in solver code" true
    (has_pass "A002" (findings "lib/cp/fixture.ml" src));
  check_int "exempt in lib/obs" 0
    (count_pass "A002" (findings "lib/obs/fixture.ml" src));
  check_int "exempt in bench" 0
    (count_pass "A002" (findings "bench/fixture.ml" src))

let test_a002_aliased_unix_token_scanner_misses () =
  (* A violation a token scanner misses: no "Unix.gettimeofday" token
     appears, only an alias projection. The AST pass resolves
     [module U = Unix] and still flags it. *)
  let src = "module U = Unix\nlet now () = U.gettimeofday ()\n" in
  check_bool "AST pass catches the alias" true
    (has_pass "A002" (findings "lib/cp/fixture.ml" src))

let test_a002_open_unix_bare_call () =
  let src = "open Unix\nlet now () = gettimeofday ()\n" in
  check_bool "bare gettimeofday under open Unix" true
    (has_pass "A002" (findings "lib/cp/fixture.ml" src))

let test_a002_global_random () =
  let src = "let roll () = Random.int 6\n" in
  check_bool "global Random flagged" true
    (has_pass "A002" (findings "lib/cloudia/fixture.ml" src));
  check_int "exempt in lib/prng" 0
    (count_pass "A002" (findings "lib/prng/fixture.ml" src));
  check_bool "open Random flagged too" true
    (has_pass "A002"
       (findings "lib/cloudia/fixture.ml" "open Random\nlet x = 1\n"))

let test_a002_shadowed_random_not_flagged () =
  (* A file-local [module Random] shim is not the global Random; the old
     token rule R002 would have false-positived here. *)
  let src =
    "module Random = struct let int bound = bound - 1 end\n"
    ^ "let roll () = Random.int 6\n"
  in
  check_int "shadowed Random tolerated" 0
    (count_pass "A002" (findings "lib/cloudia/fixture.ml" src))

let test_a002_polymorphic_compare () =
  let src = "let order xs = List.sort compare xs\n" in
  check_bool "bare compare flagged in solver lib" true
    (has_pass "A002" (findings "lib/stats/fixture.ml" src));
  check_int "fine outside solver libs" 0
    (count_pass "A002" (findings "lib/graphs/fixture.ml" src));
  (* [open Float] makes a bare [compare] monomorphic. *)
  check_int "compare under open Float tolerated" 0
    (count_pass "A002"
       (findings "lib/stats/fixture.ml" "open Float\nlet order xs = List.sort compare xs\n"));
  check_bool "Stdlib.compare flagged" true
    (has_pass "A002"
       (findings "lib/lp/fixture.ml" "let order xs = List.sort Stdlib.compare xs\n"))

(* ---------------- A003: hot-path allocation ---------------- *)

let test_a003_closure_in_hot_loop () =
  let src =
    "let[@cloudia.hot] sweep n =\n"
    ^ "  let acc = ref 0 in\n"
    ^ "  for i = 0 to n - 1 do\n"
    ^ "    let f = fun x -> x + i in\n"
    ^ "    acc := f !acc\n"
    ^ "  done;\n"
    ^ "  !acc\n"
  in
  check_bool "closure allocation flagged" true
    (has_pass "A003" (findings "lib/cloudia/fixture.ml" src))

let test_a003_tuple_in_hot_loop () =
  let src =
    "let[@cloudia.hot] sweep n =\n"
    ^ "  let best = ref 0 in\n"
    ^ "  while !best < n do\n"
    ^ "    let pair = (!best, n) in\n"
    ^ "    best := fst pair + 1\n"
    ^ "  done\n"
  in
  check_bool "tuple allocation flagged" true
    (has_pass "A003" (findings "lib/cloudia/fixture.ml" src))

let test_a003_clean_hot_function () =
  (* Arithmetic, array reads/writes and ref updates allocate nothing. *)
  let src =
    "let[@cloudia.hot] sweep (a : float array) =\n"
    ^ "  let acc = ref 0.0 in\n"
    ^ "  for i = 0 to Array.length a - 1 do\n"
    ^ "    acc := !acc +. a.(i)\n"
    ^ "  done;\n"
    ^ "  !acc\n"
  in
  check_int "clean hot loop passes" 0
    (count_pass "A003" (findings "lib/cloudia/fixture.ml" src))

let test_a003_allocation_outside_loop_ok () =
  let src =
    "let[@cloudia.hot] sweep n =\n"
    ^ "  let acc = ref 0 in\n"
    ^ "  for i = 0 to n - 1 do\n"
    ^ "    acc := !acc + i\n"
    ^ "  done;\n"
    ^ "  (!acc, n)\n"
  in
  check_int "allocation before/after the loop is fine" 0
    (count_pass "A003" (findings "lib/cloudia/fixture.ml" src))

let test_a003_unmarked_function_ignored () =
  let src =
    "let sweep n =\n"
    ^ "  let acc = ref 0 in\n"
    ^ "  for i = 0 to n - 1 do\n"
    ^ "    let pair = (i, i) in\n"
    ^ "    acc := !acc + fst pair\n"
    ^ "  done;\n"
    ^ "  !acc\n"
  in
  check_int "only [@cloudia.hot] functions are checked" 0
    (count_pass "A003" (findings "lib/cloudia/fixture.ml" src))

let test_a003_raise_path_exempt () =
  (* Allocating the exception payload on the failure path is fine: the
     cold_heads carve-out covers raise/failwith/invalid_arg arguments. *)
  let src =
    "let[@cloudia.hot] sweep n =\n"
    ^ "  for i = 0 to n - 1 do\n"
    ^ "    if i > n then invalid_arg (string_of_int i)\n"
    ^ "  done\n"
  in
  check_int "failure-path allocation tolerated" 0
    (count_pass "A003" (findings "lib/cloudia/fixture.ml" src))

(* ---------------- A004: matrix representation ---------------- *)

let test_a004_boxed_costs_indexing () =
  let src = "let read costs i j = costs.(i).(j)\n" in
  check_bool "boxed costs indexing flagged" true
    (has_pass "A004" (findings "lib/cloudia/fixture.ml" src));
  check_int "exempt in lib/lat_matrix" 0
    (count_pass "A004" (findings "lib/lat_matrix/fixture.ml" src));
  check_int "exempt in matrix_io" 0
    (count_pass "A004" (findings "lib/cloudia/matrix_io.ml" src));
  (* Other arrays are someone else's business. *)
  check_int "unrelated arrays fine" 0
    (count_pass "A004" (findings "lib/cloudia/fixture.ml" "let read xs i = xs.(i)\n"))

(* ---------------- parse failures ---------------- *)

let test_parse_failure_is_a_finding () =
  let fs = findings "lib/cloudia/fixture.ml" "let let let\n" in
  check_bool "A000 on syntax error" true (has_pass "A000" fs)

(* ---------------- inline suppressions ---------------- *)

let test_suppression_comment () =
  let src =
    "(* cloudia-lint: allow A002 fixture exercises the wall clock *)\n"
    ^ "let now () = Unix.gettimeofday ()\n"
  in
  let kept, suppressed =
    Analysis.Analyzer.analyze_source ~path:"lib/cp/fixture.ml" src
  in
  check_int "kept" 0 (List.length kept);
  check_int "suppressed" 1 (List.length suppressed)

let test_suppression_needs_reason () =
  (* No reason, no suppression: every checked-in exception explains
     itself. *)
  let src =
    "(* cloudia-lint: allow A002 *)\nlet now () = Unix.gettimeofday ()\n"
  in
  let kept, suppressed =
    Analysis.Analyzer.analyze_source ~path:"lib/cp/fixture.ml" src
  in
  check_int "kept" 1 (List.length kept);
  check_int "suppressed" 0 (List.length suppressed)

let test_suppression_scope_is_two_lines () =
  (* The comment covers its own line and the next — not the whole file. *)
  let src =
    "(* cloudia-lint: allow A002 first call is sanctioned *)\n"
    ^ "let a () = Unix.gettimeofday ()\n"
    ^ "let b () = Unix.gettimeofday ()\n"
  in
  let kept, suppressed =
    Analysis.Analyzer.analyze_source ~path:"lib/cp/fixture.ml" src
  in
  check_int "second call kept" 1 (List.length kept);
  check_int "first call suppressed" 1 (List.length suppressed)

let test_suppression_multiple_passes () =
  let sup = Analysis.Suppress.scan "(* cloudia-lint: allow A001 A003 shared scratch *)\n" in
  match sup with
  | [ s ] ->
      check_int "line" 1 s.Analysis.Suppress.line;
      Alcotest.(check (list string)) "passes" [ "A001"; "A003" ] s.Analysis.Suppress.passes
  | _ -> Alcotest.fail "expected exactly one suppression"

(* ---------------- baseline ---------------- *)

let test_baseline_round_trip () =
  let f1 = Analysis.Finding.make ~pass:"A002" ~path:"lib/cp/fixture.ml" ~line:3 "msg one" in
  let f2 = Analysis.Finding.make ~pass:"A001" ~path:"lib/cloudia/x.ml" ~line:9 "msg two" in
  let b = Analysis.Baseline.of_findings [ f1; f2 ] in
  check_int "size" 2 (Analysis.Baseline.size b);
  let b' = Analysis.Baseline.parse (Analysis.Baseline.render b) in
  check_bool "parse (render b) = b" true
    (Analysis.Baseline.render b = Analysis.Baseline.render b');
  check_bool "mem after round trip" true (Analysis.Baseline.mem b' f1);
  (* Fingerprints exclude the line, so baselines survive drift. *)
  check_bool "line drift tolerated" true
    (Analysis.Baseline.mem b' { f1 with line = 42 });
  check_bool "different message misses" false
    (Analysis.Baseline.mem b' { f1 with message = "msg three" })

let test_run_with_baseline_and_allowlist () =
  let src = "let now () = Unix.gettimeofday ()\n" in
  (* Each module has its interface, as A007 requires of lib/. *)
  let files =
    [
      ("lib/cp/fixture.ml", src);
      ("lib/cp/fixture.mli", "");
      ("lib/lp/fixture.ml", src);
      ("lib/lp/fixture.mli", "");
    ]
  in
  (* Unfiltered: both findings kept. *)
  let r = Analysis.Analyzer.run files in
  check_int "files" 4 r.Analysis.Analyzer.files;
  check_int "kept" 2 (List.length r.Analysis.Analyzer.kept);
  (* Allowlist takes one, baseline the other. *)
  let allow = Analysis.Analyzer.parse_allowlist "A002 lib/lp/\n" in
  let baseline =
    Analysis.Baseline.of_findings
      (Analysis.Analyzer.check_source ~path:"lib/cp/fixture.ml" src)
  in
  let r = Analysis.Analyzer.run ~allow ~baseline files in
  check_int "all suppressed" 0 (List.length r.Analysis.Analyzer.kept);
  check_int "two suppressed" 2 (List.length r.Analysis.Analyzer.suppressed)

(* ---------------- determinism of the front end ---------------- *)

let test_findings_sorted_and_deduped () =
  let f a = Analysis.Finding.make ~pass:a ~path:"p.ml" ~line:1 "m" in
  let sorted = Analysis.Finding.sort [ f "A003"; f "A001"; f "A003" ] in
  Alcotest.(check (list string)) "sorted unique" [ "A001"; "A003" ] (passes_of sorted)

(* ---------------- the real tree is clean ---------------- *)

(* Walk upward from cwd to the repository root (the directory holding
   dune-project and lib/). Under dune the test runs in
   _build/default/test, and dune copies the whole source tree into
   _build/default, so the analyzer sees exactly what CI gates. *)
let rec find_root dir depth =
  if depth > 6 then None
  else if
    Sys.file_exists (Filename.concat dir "dune-project")
    && Sys.file_exists (Filename.concat dir "lib")
  then Some dir
  else find_root (Filename.dirname dir) (depth + 1)

let test_clean_tree_has_zero_findings () =
  match find_root (Sys.getcwd ()) 0 with
  | None -> () (* sandboxed runner without the tree: nothing to check *)
  | Some root ->
      let files = Analysis.Analyzer.load_tree ~root [ "lib"; "bin"; "bench" ] in
      check_bool "found sources" true (List.length files > 50);
      let allow =
        let f = Filename.concat root "tools/analyzer/allowlist" in
        if Sys.file_exists f then
          Analysis.Analyzer.parse_allowlist
            (In_channel.with_open_text f In_channel.input_all)
        else []
      in
      let r = Analysis.Analyzer.run ~allow files in
      List.iter
        (fun f -> Printf.eprintf "unexpected: %s\n" (Analysis.Finding.to_string f))
        r.Analysis.Analyzer.kept;
      check_int "zero unsuppressed findings" 0 (List.length r.Analysis.Analyzer.kept)

let suite =
  [
    Alcotest.test_case "a001 ref from spawn" `Quick test_a001_ref_reached_from_spawn;
    Alcotest.test_case "a001 hashtbl from spawn" `Quick test_a001_hashtbl_reached_from_spawn;
    Alcotest.test_case "a001 transitive reach" `Quick test_a001_transitive_reachability;
    Alcotest.test_case "a001 atomic safe" `Quick test_a001_atomic_is_safe;
    Alcotest.test_case "a001 mutex guard" `Quick test_a001_mutex_protect_guards;
    Alcotest.test_case "a001 local state" `Quick test_a001_local_state_is_fine;
    Alcotest.test_case "a002 direct gettimeofday" `Quick test_a002_direct_gettimeofday;
    Alcotest.test_case "a002 alias beats token scan" `Quick
      test_a002_aliased_unix_token_scanner_misses;
    Alcotest.test_case "a002 open unix" `Quick test_a002_open_unix_bare_call;
    Alcotest.test_case "a002 global random" `Quick test_a002_global_random;
    Alcotest.test_case "a002 shadowed random" `Quick test_a002_shadowed_random_not_flagged;
    Alcotest.test_case "a002 poly compare" `Quick test_a002_polymorphic_compare;
    Alcotest.test_case "a003 closure in loop" `Quick test_a003_closure_in_hot_loop;
    Alcotest.test_case "a003 tuple in loop" `Quick test_a003_tuple_in_hot_loop;
    Alcotest.test_case "a003 clean hot fn" `Quick test_a003_clean_hot_function;
    Alcotest.test_case "a003 alloc outside loop" `Quick test_a003_allocation_outside_loop_ok;
    Alcotest.test_case "a003 unmarked fn" `Quick test_a003_unmarked_function_ignored;
    Alcotest.test_case "a003 raise path" `Quick test_a003_raise_path_exempt;
    Alcotest.test_case "a004 boxed costs" `Quick test_a004_boxed_costs_indexing;
    Alcotest.test_case "parse failure" `Quick test_parse_failure_is_a_finding;
    Alcotest.test_case "suppression comment" `Quick test_suppression_comment;
    Alcotest.test_case "suppression needs reason" `Quick test_suppression_needs_reason;
    Alcotest.test_case "suppression scope" `Quick test_suppression_scope_is_two_lines;
    Alcotest.test_case "suppression multi-pass" `Quick test_suppression_multiple_passes;
    Alcotest.test_case "baseline round trip" `Quick test_baseline_round_trip;
    Alcotest.test_case "run with baseline+allow" `Quick test_run_with_baseline_and_allowlist;
    Alcotest.test_case "findings sorted" `Quick test_findings_sorted_and_deduped;
    Alcotest.test_case "clean tree" `Quick test_clean_tree_has_zero_findings;
  ]
