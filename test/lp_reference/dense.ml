(* Two-phase primal simplex on the dense tableau: the reference kernel
   the production sparse kernel is compared against. Phase 1 minimizes
   the sum of artificials, phase 2 the true objective; Dantzig pricing
   with a per-phase switch to Bland's rule. Every pivot sweeps the whole
   m x ncols tableau, so it is for small models only. *)

open Lp.Simplex

let eps = 1e-9

(* The tableau holds m constraint rows over [ncols] structural+slack+
   artificial columns plus the rhs in the last position. [basis.(r)] is the
   column basic in row r. The objective rows (phase 1 and phase 2 reduced
   costs) are maintained separately and updated by the same pivots. *)
type tableau = {
  m : int;
  ncols : int;
  rows : float array array; (* m rows, each ncols + 1 wide (rhs last) *)
  basis : int array;
  obj : float array;        (* current phase objective reduced-cost row, ncols + 1 wide *)
}

let pivot t ~row ~col =
  let pr = t.rows.(row) in
  let pivval = pr.(col) in
  (* Normalize the pivot row. *)
  for j = 0 to t.ncols do
    pr.(j) <- pr.(j) /. pivval
  done;
  (* Eliminate the pivot column from every other row and the objective. *)
  let eliminate target =
    let factor = target.(col) in
    if Float.abs factor > 0.0 then
      for j = 0 to t.ncols do
        target.(j) <- target.(j) -. (factor *. pr.(j))
      done
  in
  for r = 0 to t.m - 1 do
    if r <> row then eliminate t.rows.(r)
  done;
  eliminate t.obj;
  t.basis.(row) <- col

(* Entering-column choice: Dantzig until [bland_after] pivots, then Bland. *)
let choose_entering t ~allowed ~iter ~bland_after =
  if iter < bland_after then begin
    let best = ref (-1) and bestv = ref (-.eps) in
    for j = 0 to t.ncols - 1 do
      if allowed j && t.obj.(j) < !bestv then begin
        bestv := t.obj.(j);
        best := j
      end
    done;
    !best
  end
  else begin
    (* Bland: smallest index with negative reduced cost. *)
    let found = ref (-1) in
    let j = ref 0 in
    while !found = -1 && !j < t.ncols do
      if allowed !j && t.obj.(!j) < -.eps then found := !j;
      incr j
    done;
    !found
  end

(* Ratio test; Bland tie-break on basis index for anti-cycling. *)
let choose_leaving t ~col =
  let best = ref (-1) and best_ratio = ref infinity in
  for r = 0 to t.m - 1 do
    let a = t.rows.(r).(col) in
    if a > eps then begin
      let ratio = t.rows.(r).(t.ncols) /. a in
      if
        ratio < !best_ratio -. eps
        || (ratio < !best_ratio +. eps && (!best = -1 || t.basis.(r) < t.basis.(!best)))
      then begin
        best_ratio := ratio;
        best := r
      end
    end
  done;
  !best

type phase_result = Phase_optimal | Phase_unbounded | Phase_iter_limit

let run_phase t ~allowed ~max_iters ~iter_count ~should_stop =
  let entry = !iter_count in
  let result = ref Phase_optimal in
  let continue = ref true in
  while !continue do
    if !iter_count > max_iters then begin
      result := Phase_iter_limit;
      continue := false
    end
    else begin
    if !iter_count land 31 = 0 && should_stop () then raise Aborted;
    (* The Dantzig→Bland anti-cycling switch counts pivots of THIS phase
       only ([iter_count] is cumulative across both phases): a long phase 1
       must not force phase 2 into pure Bland pricing from its first
       pivot. *)
    let col =
      choose_entering t ~allowed ~iter:(!iter_count - entry) ~bland_after:(max_iters / 2)
    in
    if col = -1 then continue := false
    else begin
      let row = choose_leaving t ~col in
      if row = -1 then begin
        result := Phase_unbounded;
        continue := false
      end
      else begin
        pivot t ~row ~col;
        incr iter_count
      end
    end
    end
  done;
  !result

let solve ?(max_iters = 50_000) ?(should_stop = fun () -> false) ~objective ~rows () =
  let nvars = Array.length objective in
  List.iter
    (fun (coeffs, _, _) ->
      if Array.length coeffs <> nvars then
        invalid_arg "Dense.solve: row length mismatch")
    rows;
  let rows = Array.of_list rows in
  let m = Array.length rows in
  (* Flip rows to make rhs non-negative. *)
  let rows =
    Array.map
      (fun (coeffs, rel, rhs) ->
        if rhs < 0.0 then
          ( Array.map (fun c -> -.c) coeffs,
            (match rel with Le -> Ge | Ge -> Le | Eq -> Eq),
            -.rhs )
        else (coeffs, rel, rhs))
      rows
  in
  (* Column layout: structural | slack/surplus (one per inequality) |
     artificial (one per Ge/Eq row). *)
  let n_slack = Array.fold_left (fun acc (_, rel, _) -> match rel with Eq -> acc | _ -> acc + 1) 0 rows in
  let n_art =
    Array.fold_left (fun acc (_, rel, _) -> match rel with Le -> acc | _ -> acc + 1) 0 rows
  in
  let ncols = nvars + n_slack + n_art in
  let art_start = nvars + n_slack in
  let tab_rows = Array.init m (fun _ -> Array.make (ncols + 1) 0.0) in
  let basis = Array.make m (-1) in
  let slack_idx = ref nvars and art_idx = ref art_start in
  Array.iteri
    (fun r (coeffs, rel, rhs) ->
      let row = tab_rows.(r) in
      Array.blit coeffs 0 row 0 nvars;
      row.(ncols) <- rhs;
      (match rel with
      | Le ->
          row.(!slack_idx) <- 1.0;
          basis.(r) <- !slack_idx;
          incr slack_idx
      | Ge ->
          row.(!slack_idx) <- -1.0;
          incr slack_idx;
          row.(!art_idx) <- 1.0;
          basis.(r) <- !art_idx;
          incr art_idx
      | Eq ->
          row.(!art_idx) <- 1.0;
          basis.(r) <- !art_idx;
          incr art_idx))
    rows;
  let t = { m; ncols; rows = tab_rows; basis; obj = Array.make (ncols + 1) 0.0 } in
  let iter_count = ref 0 in
  (* ---- Phase 1: minimize the sum of artificials. ---- *)
  if n_art > 0 then begin
    for j = art_start to ncols - 1 do
      t.obj.(j) <- 1.0
    done;
    (* Price out the basic artificials so reduced costs start consistent. *)
    for r = 0 to m - 1 do
      if basis.(r) >= art_start then
        for j = 0 to ncols do
          t.obj.(j) <- t.obj.(j) -. t.rows.(r).(j)
        done
    done;
    (match run_phase t ~allowed:(fun _ -> true) ~max_iters ~iter_count ~should_stop with
    | Phase_unbounded -> failwith "Dense.solve: phase 1 unbounded (internal error)"
    (* Exhausting the pivot budget is a budget hit, not a crash: abort like
       a cooperative stop so MIP callers keep their incumbent. *)
    | Phase_iter_limit -> raise Aborted
    | Phase_optimal -> ());
    (* Phase-1 objective value is -obj rhs (we maintain obj as reduced costs
       with value in the rhs cell, negated). *)
    let phase1_value = -.t.obj.(ncols) in
    if phase1_value > 1e-6 then raise Exit
  end;
  (* Drive remaining artificial variables out of the basis. *)
  for r = 0 to m - 1 do
    if t.basis.(r) >= art_start then begin
      let col = ref (-1) in
      let j = ref 0 in
      while !col = -1 && !j < art_start do
        if Float.abs t.rows.(r).(!j) > eps then col := !j;
        incr j
      done;
      match !col with
      | -1 ->
          (* Redundant row: zero it out so it never constrains pivots. *)
          Array.fill t.rows.(r) 0 (ncols + 1) 0.0;
          t.basis.(r) <- -1
      | c -> pivot t ~row:r ~col:c
    end
  done;
  (* ---- Phase 2: true objective, artificial columns forbidden. ---- *)
  Array.fill t.obj 0 (ncols + 1) 0.0;
  Array.blit objective 0 t.obj 0 nvars;
  for r = 0 to m - 1 do
    let b = t.basis.(r) in
    if b >= 0 && Float.abs t.obj.(b) > 0.0 then begin
      let factor = t.obj.(b) in
      for j = 0 to ncols do
        t.obj.(j) <- t.obj.(j) -. (factor *. t.rows.(r).(j))
      done
    end
  done;
  let allowed j = j < art_start in
  match run_phase t ~allowed ~max_iters ~iter_count ~should_stop with
  | Phase_unbounded -> Unbounded
  | Phase_iter_limit -> raise Aborted
  | Phase_optimal ->
      let x = Array.make nvars 0.0 in
      for r = 0 to m - 1 do
        let b = t.basis.(r) in
        if b >= 0 && b < nvars then x.(b) <- t.rows.(r).(ncols)
      done;
      let value = Array.fold_left ( +. ) 0.0 (Array.mapi (fun i c -> c *. x.(i)) objective) in
      Optimal (value, x)

let solve ?max_iters ?should_stop ~objective ~rows () =
  try solve ?max_iters ?should_stop ~objective ~rows () with Exit -> Infeasible

let densify nvars ((vars, coeffs, rel, rhs) : Lp.Sparse.row) =
  let row = Array.make nvars 0.0 in
  Array.iteri (fun k v -> row.(v) <- coeffs.(k)) vars;
  (row, rel, rhs)

(* The dense tableau keeps no stable-label basis, so children always
   start cold: [warm_basis] is ignored and the returned basis is empty. *)
let solve_relaxation_basis ?should_stop ?extra ?warm_basis:_ model =
  let objective, rows = Lp.Model.relaxation_lp ?extra model in
  let nvars = Array.length objective in
  (solve ?should_stop ~objective ~rows:(List.map (densify nvars) rows) (), [||])

let solve_relaxation ?should_stop ?extra model =
  fst (solve_relaxation_basis ?should_stop ?extra model)
