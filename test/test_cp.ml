open Cp

(* Tests for the CP substrate: bitset domains, propagators, and search. *)

(* ---------- Domain ---------- *)

let test_domain_full_and_size () =
  let d = Domain.full 100 in
  Alcotest.(check int) "size" 100 (Domain.size d);
  Alcotest.(check bool) "mem 0" true (Domain.mem d 0);
  Alcotest.(check bool) "mem 99" true (Domain.mem d 99);
  Alcotest.(check int) "universe" 100 (Domain.universe d)

let test_domain_remove_add () =
  let d = Domain.full 10 in
  Alcotest.(check bool) "removed" true (Domain.remove d 5);
  Alcotest.(check bool) "second removal is no-op" false (Domain.remove d 5);
  Alcotest.(check int) "size" 9 (Domain.size d);
  Domain.add d 5;
  Alcotest.(check int) "restored" 10 (Domain.size d)

let test_domain_fix_singleton () =
  let d = Domain.full 70 in
  Domain.fix d 64;
  Alcotest.(check bool) "singleton" true (Domain.is_singleton d);
  Alcotest.(check int) "min" 64 (Domain.min_value d);
  Alcotest.(check int) "size" 1 (Domain.size d)

let test_domain_word_boundary () =
  (* 63 is the last bit of word 0; 64 the first of word 1. *)
  let d = Domain.empty 130 in
  List.iter (Domain.add d) [ 62; 63; 64; 126; 129 ];
  Alcotest.(check (list int)) "to_list across words" [ 62; 63; 64; 126; 129 ] (Domain.to_list d);
  Alcotest.(check int) "min" 62 (Domain.min_value d)

let test_domain_empty_min_raises () =
  let d = Domain.empty 5 in
  Alcotest.(check bool) "is_empty" true (Domain.is_empty d);
  Alcotest.check_raises "min of empty" Not_found (fun () -> ignore (Domain.min_value d))

let test_domain_copy_independent () =
  let d = Domain.full 10 in
  let c = Domain.copy d in
  ignore (Domain.remove c 3);
  Alcotest.(check bool) "original untouched" true (Domain.mem d 3)

let test_domain_keep_only () =
  let d = Domain.full 10 in
  let changed = Domain.keep_only d (fun v -> v mod 2 = 0) in
  Alcotest.(check bool) "changed" true changed;
  Alcotest.(check (list int)) "evens" [ 0; 2; 4; 6; 8 ] (Domain.to_list d)

let test_domain_subtract_and_support () =
  let d = Domain.full 8 in
  let bad = Domain.empty 8 in
  List.iter (Domain.add bad) [ 0; 1; 2 ];
  Alcotest.(check bool) "support exists" true (Domain.intersects_complement d bad);
  Alcotest.(check bool) "changed" true (Domain.subtract d bad);
  Alcotest.(check (list int)) "remaining" [ 3; 4; 5; 6; 7 ] (Domain.to_list d);
  let all_bad = Domain.full 8 in
  Alcotest.(check bool) "no support" false (Domain.intersects_complement d all_bad)

(* ---------- Alldifferent propagation ---------- *)

let test_alldifferent_pigeonhole_fails () =
  (* 4 variables over 3 values cannot be all-different... the constructor
     rejects nvars > nvalues, so test 3 vars whose domains shrink to 2
     values. *)
  let csp = Csp.create ~nvars:3 ~nvalues:3 in
  Csp.add_alldifferent csp;
  Csp.restrict csp ~var:0 ~allowed:(fun v -> v < 2);
  Csp.restrict csp ~var:1 ~allowed:(fun v -> v < 2);
  Csp.restrict csp ~var:2 ~allowed:(fun v -> v < 2);
  Alcotest.(check bool) "failure" true (Csp.propagate csp = Csp.Failure)

let test_alldifferent_regin_prunes () =
  (* Classic example: x0 ∈ {0,1}, x1 ∈ {0,1}, x2 ∈ {0,1,2}. Régin filtering
     must remove 0 and 1 from x2. *)
  let csp = Csp.create ~nvars:3 ~nvalues:3 in
  Csp.add_alldifferent csp;
  Csp.restrict csp ~var:0 ~allowed:(fun v -> v <= 1);
  Csp.restrict csp ~var:1 ~allowed:(fun v -> v <= 1);
  (match Csp.propagate csp with
  | Csp.Failure -> Alcotest.fail "should be consistent"
  | _ -> ());
  Alcotest.(check (list int)) "x2 pruned to {2}" [ 2 ] (Domain.to_list (Csp.domain csp 2))

let test_alldifferent_singleton_propagates () =
  let csp = Csp.create ~nvars:3 ~nvalues:4 in
  Csp.add_alldifferent csp;
  Domain.fix (Csp.domain csp 0) 2;
  (match Csp.propagate csp with
  | Csp.Failure -> Alcotest.fail "consistent"
  | _ -> ());
  Alcotest.(check bool) "x1 loses 2" false (Domain.mem (Csp.domain csp 1) 2);
  Alcotest.(check bool) "x2 loses 2" false (Domain.mem (Csp.domain csp 2) 2)

(* ---------- Forbidden pairs ---------- *)

let forbidden_matrix nvalues pred =
  Array.init nvalues (fun j ->
      let row = Domain.empty nvalues in
      for j' = 0 to nvalues - 1 do
        if pred j j' then Domain.add row j'
      done;
      row)

let test_forbidden_pairs_prunes_unsupported () =
  (* Value j of x is forbidden with every value of y: x must lose j. *)
  let csp = Csp.create ~nvars:2 ~nvalues:3 in
  let bad = forbidden_matrix 3 (fun j _ -> j = 0) in
  Csp.add_forbidden_pairs csp ~x:0 ~y:1 ~bad;
  (match Csp.propagate csp with Csp.Failure -> Alcotest.fail "consistent" | _ -> ());
  Alcotest.(check (list int)) "x loses 0" [ 1; 2 ] (Domain.to_list (Csp.domain csp 0));
  Alcotest.(check (list int)) "y keeps all" [ 0; 1; 2 ] (Domain.to_list (Csp.domain csp 1))

let test_forbidden_pairs_singleton_fast_path () =
  let csp = Csp.create ~nvars:2 ~nvalues:4 in
  (* Forbid (j, j') whenever j' = j + 1. *)
  let bad = forbidden_matrix 4 (fun j j' -> j' = j + 1) in
  Csp.add_forbidden_pairs csp ~x:0 ~y:1 ~bad;
  Domain.fix (Csp.domain csp 0) 1;
  (match Csp.propagate csp with Csp.Failure -> Alcotest.fail "consistent" | _ -> ());
  Alcotest.(check (list int)) "y loses 2" [ 0; 1; 3 ] (Domain.to_list (Csp.domain csp 1))

let test_forbidden_pairs_reverse_direction () =
  (* Fixing y must prune x through the transposed matrix. *)
  let csp = Csp.create ~nvars:2 ~nvalues:4 in
  let bad = forbidden_matrix 4 (fun j j' -> j' = 3 && j <= 1) in
  Csp.add_forbidden_pairs csp ~x:0 ~y:1 ~bad;
  Domain.fix (Csp.domain csp 1) 3;
  (match Csp.propagate csp with Csp.Failure -> Alcotest.fail "consistent" | _ -> ());
  Alcotest.(check (list int)) "x loses 0,1" [ 2; 3 ] (Domain.to_list (Csp.domain csp 0))

let test_forbidden_all_pairs_fails () =
  let csp = Csp.create ~nvars:2 ~nvalues:2 in
  let bad = forbidden_matrix 2 (fun _ _ -> true) in
  Csp.add_forbidden_pairs csp ~x:0 ~y:1 ~bad;
  Alcotest.(check bool) "failure" true (Csp.propagate csp = Csp.Failure)

(* ---------- Search ---------- *)

let test_search_nqueens n expected_solvable =
  (* N-queens via alldifferent on columns + forbidden diagonal pairs. *)
  let csp = Csp.create ~nvars:n ~nvalues:n in
  Csp.add_alldifferent csp;
  for i = 0 to n - 1 do
    for k = i + 1 to n - 1 do
      let diff = k - i in
      let bad = forbidden_matrix n (fun j j' -> abs (j - j') = diff) in
      Csp.add_forbidden_pairs csp ~x:i ~y:k ~bad
    done
  done;
  match Search.solve csp with
  | Search.Sat solution, _ ->
      Alcotest.(check bool) "expected solvable" true expected_solvable;
      (* Verify the solution is a valid n-queens placement. *)
      for i = 0 to n - 1 do
        for k = i + 1 to n - 1 do
          Alcotest.(check bool) "columns differ" true (solution.(i) <> solution.(k));
          Alcotest.(check bool) "diagonals differ" true
            (abs (solution.(i) - solution.(k)) <> k - i)
        done
      done
  | Search.Unsat, _ -> Alcotest.(check bool) "expected unsolvable" false expected_solvable
  | Search.Timeout, _ -> Alcotest.fail "unexpected timeout"

let test_nqueens_6 () = test_search_nqueens 6 true
let test_nqueens_8 () = test_search_nqueens 8 true
let test_nqueens_3_unsat () = test_search_nqueens 3 false

let test_search_restores_domains () =
  let csp = Csp.create ~nvars:3 ~nvalues:3 in
  Csp.add_alldifferent csp;
  let before = List.map (fun v -> Domain.to_list (Csp.domain csp v)) [ 0; 1; 2 ] in
  let _ = Search.solve csp in
  let after = List.map (fun v -> Domain.to_list (Csp.domain csp v)) [ 0; 1; 2 ] in
  Alcotest.(check (list (list int))) "domains restored" before after

let test_search_node_limit_timeout () =
  (* A hard instance with node_limit 1 must report Timeout. 12-queens root
     propagation alone cannot solve it. *)
  let n = 12 in
  let csp = Csp.create ~nvars:n ~nvalues:n in
  Csp.add_alldifferent csp;
  for i = 0 to n - 1 do
    for k = i + 1 to n - 1 do
      let diff = k - i in
      let bad = forbidden_matrix n (fun j j' -> abs (j - j') = diff) in
      Csp.add_forbidden_pairs csp ~x:i ~y:k ~bad
    done
  done;
  match Search.solve ~node_limit:1 csp with
  | Search.Timeout, stats -> Alcotest.(check bool) "at most 1 node" true (stats.Search.nodes <= 1)
  | Search.Sat _, _ -> Alcotest.fail "cannot solve 12-queens in one node"
  | Search.Unsat, _ -> Alcotest.fail "12-queens is satisfiable"

let test_search_value_order_respected () =
  (* With no constraints beyond alldifferent, descending value order must
     assign the largest values first. *)
  let csp = Csp.create ~nvars:2 ~nvalues:4 in
  Csp.add_alldifferent csp;
  let value_order ~var:_ values = List.rev values in
  match Search.solve ~value_order csp with
  | Search.Sat s, _ ->
      Alcotest.(check int) "x0 takes max" 3 s.(0);
      Alcotest.(check int) "x1 takes next" 2 s.(1)
  | _ -> Alcotest.fail "trivially satisfiable"

let test_search_sudoku_row () =
  (* A line of 9 cells with some fixed: alldifferent completes the rest. *)
  let csp = Csp.create ~nvars:9 ~nvalues:9 in
  Csp.add_alldifferent csp;
  let fixed = [ (0, 3); (4, 7); (8, 0) ] in
  List.iter (fun (v, value) -> Domain.fix (Csp.domain csp v) value) fixed;
  match Search.solve csp with
  | Search.Sat s, _ ->
      List.iter (fun (v, value) -> Alcotest.(check int) "fixed kept" value s.(v)) fixed;
      let sorted = Array.copy s in
      Array.sort compare sorted;
      Alcotest.(check (array int)) "permutation" (Array.init 9 (fun i -> i)) sorted
  | _ -> Alcotest.fail "satisfiable"

(* Subgraph isomorphism through the CSP encoding: map a 4-cycle into a
   graph that contains one. *)
let test_sip_via_csp () =
  let open Graphs in
  let pattern = Templates.ring ~n:4 in
  (* Target: 6 nodes, ring 0-1-2-3 plus pendant 4, 5. *)
  let target =
    Digraph.create ~n:6 [ (0, 1); (1, 2); (2, 3); (3, 0); (0, 4); (4, 5) ]
  in
  let csp = Csp.create ~nvars:4 ~nvalues:6 in
  Csp.add_alldifferent csp;
  Array.iter
    (fun (i, i') ->
      let bad =
        forbidden_matrix 6 (fun j j' -> not (Digraph.mem_edge target j j'))
      in
      Csp.add_forbidden_pairs csp ~x:i ~y:i' ~bad)
    (Digraph.edges pattern);
  match Search.solve csp with
  | Search.Sat s, _ ->
      Array.iter
        (fun (i, i') ->
          Alcotest.(check bool) "edge preserved" true (Digraph.mem_edge target s.(i) s.(i')))
        (Digraph.edges pattern)
  | _ -> Alcotest.fail "the 4-cycle embeds into the target"

let test_sip_unsat_via_csp () =
  (* A 4-cycle cannot embed into a path. *)
  let open Graphs in
  let pattern = Templates.ring ~n:4 in
  let target = Digraph.create ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let csp = Csp.create ~nvars:4 ~nvalues:5 in
  Csp.add_alldifferent csp;
  Array.iter
    (fun (i, i') ->
      let bad = forbidden_matrix 5 (fun j j' -> not (Digraph.mem_edge target j j')) in
      Csp.add_forbidden_pairs csp ~x:i ~y:i' ~bad)
    (Digraph.edges pattern);
  match Search.solve csp with
  | Search.Unsat, _ -> ()
  | Search.Sat _, _ -> Alcotest.fail "no 4-cycle in a path"
  | Search.Timeout, _ -> Alcotest.fail "tiny instance cannot time out"

(* ---------- Value-interchangeability classes ---------- *)

(* Two classes of two values each ({0,1} and {2,3}); the forbidden matrix
   depends only on the class, so classmates are genuinely interchangeable
   under every posted constraint, as value_classes requires. *)
let cross_class_bad = forbidden_matrix 4 (fun j j' -> j / 2 <> j' / 2)

let test_search_value_classes_prune_unsat () =
  (* Triangle of vars forced into one class of 2 values but needing 3
     distinct values: unsatisfiable, and the refutation needs search (root
     propagation is arc-consistent). Symmetry breaking must reach the same
     Unsat while branching on at most one value per class. *)
  let build () =
    let csp = Csp.create ~nvars:3 ~nvalues:4 in
    Csp.add_alldifferent csp;
    List.iter
      (fun (x, y) -> Csp.add_forbidden_pairs csp ~x ~y ~bad:cross_class_bad)
      [ (0, 1); (1, 2); (0, 2) ];
    csp
  in
  let plain, plain_stats = Search.solve (build ()) in
  let sym, sym_stats =
    Search.solve ~value_classes:[| 0; 0; 1; 1 |] (build ())
  in
  Alcotest.(check bool) "plain unsat" true (plain = Search.Unsat);
  Alcotest.(check bool) "sym unsat" true (sym = Search.Unsat);
  Alcotest.(check bool)
    (Printf.sprintf "fewer nodes with classes (%d < %d)" sym_stats.Search.nodes
       plain_stats.Search.nodes)
    true
    (sym_stats.Search.nodes < plain_stats.Search.nodes)

let test_search_value_classes_complete_sat () =
  (* Two vars that must land in the same class with distinct values: a
     solution exists and representative-only branching must still find it.
     A root restriction makes the classes asymmetric; entry-time refinement
     splits them so completeness survives. *)
  let csp = Csp.create ~nvars:2 ~nvalues:4 in
  Csp.add_alldifferent csp;
  Csp.add_forbidden_pairs csp ~x:0 ~y:1 ~bad:cross_class_bad;
  Csp.restrict csp ~var:0 ~allowed:(fun v -> v <> 0);
  match Search.solve ~value_classes:[| 0; 0; 1; 1 |] csp with
  | Search.Sat s, _ ->
      Alcotest.(check bool) "distinct" true (s.(0) <> s.(1));
      Alcotest.(check bool) "same class" true (s.(0) / 2 = s.(1) / 2);
      Alcotest.(check bool) "restriction respected" true (s.(0) <> 0)
  | _ -> Alcotest.fail "expected sat under symmetry breaking"

let test_csp_reset_reuses_alldifferent () =
  (* The threshold-iterating solver's reuse pattern: post an over-tight
     iteration's forbidden pairs, fail, reset, and re-solve — the binary
     constraints must be gone while alldifferent (and its warm matching)
     still holds. *)
  let csp = Csp.create ~nvars:2 ~nvalues:3 in
  Csp.add_alldifferent csp;
  (match Search.solve csp with
  | Search.Sat s, _ -> Alcotest.(check bool) "distinct before" true (s.(0) <> s.(1))
  | _ -> Alcotest.fail "satisfiable before tightening");
  Csp.add_forbidden_pairs csp ~x:0 ~y:1 ~bad:(forbidden_matrix 3 (fun _ _ -> true));
  Alcotest.(check bool) "tightened iteration fails" true (Csp.propagate csp = Csp.Failure);
  Csp.reset csp;
  (match Csp.propagate csp with
  | Csp.Failure -> Alcotest.fail "reset must clear the forbidden pairs"
  | _ -> ());
  Alcotest.(check int) "domains refilled" 3 (Domain.size (Csp.domain csp 0));
  match Search.solve csp with
  | Search.Sat s, _ -> Alcotest.(check bool) "alldifferent survives reset" true (s.(0) <> s.(1))
  | _ -> Alcotest.fail "satisfiable after reset"

(* ---------- Queue-driven propagation vs the all-constraints loop ---------- *)

(* One random CSP posted identically to {!Csp} and to the reference, then
   driven through random restrict / remove / fix / save / restore / reset
   steps, propagating both after every step. The outcomes must be equal,
   and so must every domain unless the step failed (a failing propagation
   may stop at different partial domains; the search restores after it,
   and so does this test). *)
let propagate_agrees seed =
  let rs = Random.State.make [| seed |] in
  let int n = Random.State.int rs n in
  let nvars = 2 + int 5 in
  let nvalues = if int 4 = 0 then 60 + int 10 else nvars + int 6 in
  let prod = Csp.create ~nvars ~nvalues and refc = Cp_reference.Csp.create ~nvars ~nvalues in
  if int 4 > 0 then begin
    Csp.add_alldifferent prod;
    Cp_reference.Csp.add_alldifferent refc
  end;
  let density = 10 + int 60 in
  let matrix () =
    Array.init nvalues (fun _ ->
        let d = Domain.empty nvalues in
        for v = 0 to nvalues - 1 do
          if int 100 < density then Domain.add d v
        done;
        d)
  in
  let shared = matrix () in
  let edges =
    List.init (int (2 * nvars)) (fun _ ->
        let x = int nvars in
        let y = (x + 1 + int (nvars - 1)) mod nvars in
        (x, y, if int 2 = 0 then shared else matrix ()))
  in
  let post () =
    List.iter
      (fun (x, y, bad) ->
        Csp.add_forbidden_pairs prod ~x ~y ~bad;
        Cp_reference.Csp.add_forbidden_pairs refc ~x ~y ~bad)
      edges
  in
  post ();
  let snapshots = ref [] in
  let ok = ref true in
  let same_domains () =
    List.for_all
      (fun x ->
        Domain.to_list (Csp.domain prod x) = Domain.to_list (Cp_reference.Csp.domain refc x))
      (List.init nvars Fun.id)
  in
  for _ = 1 to 40 do
    if !ok then begin
      let var = int nvars in
      (match int 7 with
      | 0 | 1 ->
          let mask = Array.init nvalues (fun _ -> int 5 > 0) in
          Csp.restrict prod ~var ~allowed:(fun v -> mask.(v));
          Cp_reference.Csp.restrict refc ~var ~allowed:(fun v -> mask.(v))
      | 2 ->
          let v = int nvalues in
          ignore (Domain.remove (Csp.domain prod var) v : bool);
          ignore (Domain.remove (Cp_reference.Csp.domain refc var) v : bool)
      | 3 -> (
          match Domain.to_list (Csp.domain prod var) with
          | [] -> ()
          | vs ->
              let v = List.nth vs (int (List.length vs)) in
              Domain.fix (Csp.domain prod var) v;
              Domain.fix (Cp_reference.Csp.domain refc var) v)
      | 4 -> snapshots := (Csp.save prod, Cp_reference.Csp.save refc) :: !snapshots
      | 5 -> (
          match !snapshots with
          | [] -> ()
          | (sp, sr) :: rest ->
              Csp.restore prod sp;
              Cp_reference.Csp.restore refc sr;
              if int 2 = 0 then snapshots := rest)
      | _ ->
          Csp.reset prod;
          Cp_reference.Csp.reset refc;
          snapshots := [];
          post ());
      let a = Csp.propagate prod and b = Cp_reference.Csp.propagate refc in
      if a <> b then ok := false
      else if a = Csp.Failure then begin
        match !snapshots with
        | (sp, sr) :: _ ->
            Csp.restore prod sp;
            Cp_reference.Csp.restore refc sr
        | [] ->
            Csp.reset prod;
            Cp_reference.Csp.reset refc;
            post ()
      end
      else if not (same_domains ()) then ok := false
    end
  done;
  !ok

(* Once warm, a search step (fix, propagate, restore) allocates nothing:
   the queue, the watch lists, Régin's graph buffers and the snapshot
   slots all live in the CSP. *)
let test_propagate_allocates_nothing () =
  let n = 10 in
  let csp = Csp.create ~nvars:n ~nvalues:n in
  Csp.add_alldifferent csp;
  for i = 0 to n - 1 do
    for k = i + 1 to n - 1 do
      let bad =
        Array.init n (fun v ->
            let d = Domain.empty n in
            List.iter
              (fun w -> if w >= 0 && w < n then Domain.add d w)
              [ v - (k - i); v + (k - i) ];
            d)
      in
      Csp.add_forbidden_pairs csp ~x:i ~y:k ~bad
    done
  done;
  ignore (Csp.propagate csp : Csp.propagation);
  Csp.save_level csp 0;
  let step v =
    Domain.fix (Csp.domain csp 0) v;
    ignore (Csp.propagate csp : Csp.propagation);
    Csp.restore_level csp 0;
    ignore (Csp.propagate csp : Csp.propagation)
  in
  for v = 0 to n - 1 do
    step v
  done;
  let before = Gc.minor_words () in
  for v = 0 to n - 1 do
    step v
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "minor words" 0.0 words

let qcheck_props =
  [
    QCheck.Test.make ~name:"search solutions satisfy alldifferent" ~count:50
      QCheck.(pair small_int (int_range 2 8))
      (fun (seed, n) ->
        let rng = Prng.create seed in
        let csp = Csp.create ~nvars:n ~nvalues:(n + Prng.int rng 3) in
        Csp.add_alldifferent csp;
        match Search.solve csp with
        | Search.Sat s, _ ->
            let seen = Hashtbl.create n in
            Array.for_all
              (fun v ->
                if Hashtbl.mem seen v then false
                else begin
                  Hashtbl.add seen v ();
                  true
                end)
              s
        | _ -> false);
    QCheck.Test.make ~name:"propagate matches the all-constraints loop" ~count:400
      QCheck.(int_bound 1_000_000) propagate_agrees;
    QCheck.Test.make ~name:"domain next and iter agree with mem" ~count:200
      QCheck.(pair (int_range 1 130) (list (int_range 0 129)))
      (fun (universe, members) ->
        let d = Domain.empty universe in
        List.iter (fun v -> if v < universe then Domain.add d v) members;
        let expected = List.filter (Domain.mem d) (List.init universe Fun.id) in
        let rec walk v acc =
          if v < 0 then List.rev acc else walk (Domain.next d (v + 1)) (v :: acc)
        in
        Domain.to_list d = expected && walk (Domain.next d 0) [] = expected);
    QCheck.Test.make ~name:"domain subtract never grows" ~count:200
      QCheck.(pair (list (int_range 0 62)) (list (int_range 0 62)))
      (fun (keep, bad_values) ->
        let d = Domain.empty 63 in
        List.iter (Domain.add d) keep;
        let bad = Domain.empty 63 in
        List.iter (Domain.add bad) bad_values;
        let before = Domain.size d in
        ignore (Domain.subtract d bad);
        Domain.size d <= before);
  ]

let suite =
  [
    Alcotest.test_case "domain full and size" `Quick test_domain_full_and_size;
    Alcotest.test_case "domain remove/add" `Quick test_domain_remove_add;
    Alcotest.test_case "domain fix singleton" `Quick test_domain_fix_singleton;
    Alcotest.test_case "domain word boundary" `Quick test_domain_word_boundary;
    Alcotest.test_case "domain empty min raises" `Quick test_domain_empty_min_raises;
    Alcotest.test_case "domain copy independent" `Quick test_domain_copy_independent;
    Alcotest.test_case "domain keep_only" `Quick test_domain_keep_only;
    Alcotest.test_case "domain subtract and support" `Quick test_domain_subtract_and_support;
    Alcotest.test_case "alldifferent pigeonhole" `Quick test_alldifferent_pigeonhole_fails;
    Alcotest.test_case "alldifferent Régin pruning" `Quick test_alldifferent_regin_prunes;
    Alcotest.test_case "alldifferent singleton" `Quick test_alldifferent_singleton_propagates;
    Alcotest.test_case "forbidden pairs prunes unsupported" `Quick
      test_forbidden_pairs_prunes_unsupported;
    Alcotest.test_case "forbidden pairs singleton fast path" `Quick
      test_forbidden_pairs_singleton_fast_path;
    Alcotest.test_case "forbidden pairs reverse direction" `Quick
      test_forbidden_pairs_reverse_direction;
    Alcotest.test_case "forbidden all pairs fails" `Quick test_forbidden_all_pairs_fails;
    Alcotest.test_case "6-queens" `Quick test_nqueens_6;
    Alcotest.test_case "8-queens" `Quick test_nqueens_8;
    Alcotest.test_case "3-queens unsat" `Quick test_nqueens_3_unsat;
    Alcotest.test_case "search restores domains" `Quick test_search_restores_domains;
    Alcotest.test_case "search node limit" `Quick test_search_node_limit_timeout;
    Alcotest.test_case "search value order" `Quick test_search_value_order_respected;
    Alcotest.test_case "sudoku row completion" `Quick test_search_sudoku_row;
    Alcotest.test_case "subgraph isomorphism sat" `Quick test_sip_via_csp;
    Alcotest.test_case "subgraph isomorphism unsat" `Quick test_sip_unsat_via_csp;
    Alcotest.test_case "value classes prune unsat" `Quick test_search_value_classes_prune_unsat;
    Alcotest.test_case "value classes stay complete" `Quick
      test_search_value_classes_complete_sat;
    Alcotest.test_case "csp reset reuse" `Quick test_csp_reset_reuses_alldifferent;
    Alcotest.test_case "propagate allocates nothing" `Quick test_propagate_allocates_nothing;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props
