(* Sparse revised simplex: the LP kernel behind every relaxation.

   The constraint matrix is kept in CSC form and the basis inverse is a
   product of elementary (eta) matrices rebuilt by periodic
   refactorization, so memory is O(nonzeros + eta fill) and a pivot
   costs O(nonzeros touched) instead of the O(m * ncols) row sweep of a
   dense tableau.

   Column labels are *stable across row appends*: structural variable j is
   column j, the slack/surplus of row r is [nvars + 2r], the artificial of
   row r is [nvars + 2r + 1]. A basis returned from a solve therefore
   remains meaningful for any model that extends the row list — which is
   exactly how branch and bound re-solves a child node from its parent's
   optimal basis: the appended branch row enters the basis on its own
   slack, leaving a block-triangular, dual-feasible start that a few dual
   simplex pivots repair. *)

type row = int array * float array * Simplex.relation * float

type result = {
  status : Simplex.status;
  basis : int array;  (* stable column label basic in each row *)
  iterations : int;
}

let eps = 1e-9
let piv_tol = 1e-8
let refactor_every = 64

let c_solves = Obs.Counter.make "lp.sparse.solves"
let c_iterations = Obs.Counter.make "lp.sparse.iterations"
let c_refactors = Obs.Counter.make "lp.sparse.refactorizations"
let c_warm = Obs.Counter.make "lp.sparse.warm_starts"
let c_dual_pivots = Obs.Counter.make "lp.sparse.dual_pivots"

(* Per-phase latency, recorded only under tracing (the sink check is
   hoisted out of each pivot loop). The six phases are disjoint and
   together cover the pivot loops; [lp.pivot_ns] is the whole iteration
   of each completed pivot. *)
let h_pivot = Obs.Histogram.make "lp.pivot_ns"
let h_btran = Obs.Histogram.make "lp.btran_ns"
let h_pricing = Obs.Histogram.make "lp.pricing_ns"
let h_ftran = Obs.Histogram.make "lp.ftran_ns"
let h_ratio = Obs.Histogram.make "lp.ratio_ns"
let h_update = Obs.Histogram.make "lp.update_ns"
let h_refactor = Obs.Histogram.make "lp.refactor_ns"

(* Clock reads for the phase histograms: [0L] without tracing, so the
   untraced path reads no clock. [lap] records the time since [t0] and
   returns the new reading. *)
let[@inline] now_if timed = if timed then Obs.Clock.now_ns () else 0L

let[@inline] lap timed h t0 =
  if timed then begin
    let t = Obs.Clock.now_ns () in
    Obs.Histogram.record_ns h (Int64.sub t t0);
    t
  end
  else 0L

(* Models past this many rows are refused up front: the per-iteration
   dense work vectors and the eta fill stop fitting any realistic budget
   long before. *)
let max_rows = 500_000

(* ---- problem in computational standard form ---- *)

(* Columns: structural | per-row slack/surplus | per-row artificial, laid
   out in the interleaved stable labeling above. Artificial columns exist
   for every row (they only matter if basic); slack columns only for
   inequality rows. *)
type csc = {
  nvars : int;
  m : int;
  ncols : int;
  col_ptr : int array;
  row_ix : int array;
  value : float array;
  col_ok : bool array;  (* false for the phantom slack column of an Eq row *)
  rhs : float array;    (* >= 0 after row flips *)
  obj : float array;    (* phase-2 cost per column (0 beyond structurals) *)
}

let slack_label nvars r = nvars + (2 * r)
let art_label nvars r = nvars + (2 * r) + 1
let is_artificial nvars j = j >= nvars && (j - nvars) land 1 = 1

let build ~objective ~(rows : row array) =
  let nvars = Array.length objective in
  let m = Array.length rows in
  let rows =
    Array.map
      (fun ((ix, cf, rel, rhs) as row) ->
        if Array.length ix <> Array.length cf then
          invalid_arg "Sparse.solve: row index/coefficient length mismatch";
        Array.iter
          (fun v -> if v < 0 || v >= nvars then invalid_arg "Sparse.solve: variable out of range")
          ix;
        if rhs < 0.0 then
          ( ix,
            Array.map (fun c -> -.c) cf,
            (match rel with Simplex.Le -> Simplex.Ge | Simplex.Ge -> Simplex.Le | Simplex.Eq -> Simplex.Eq),
            -.rhs )
        else row)
      rows
  in
  let ncols = nvars + (2 * m) in
  let counts = Array.make ncols 0 in
  Array.iter
    (fun (ix, cf, _, _) ->
      Array.iteri (fun k v -> if Float.abs cf.(k) > 0.0 then counts.(v) <- counts.(v) + 1) ix)
    rows;
  for r = 0 to m - 1 do
    let _, _, rel, _ = rows.(r) in
    (match rel with Simplex.Eq -> () | _ -> counts.(slack_label nvars r) <- 1);
    counts.(art_label nvars r) <- 1
  done;
  let col_ptr = Array.make (ncols + 1) 0 in
  for j = 0 to ncols - 1 do
    col_ptr.(j + 1) <- col_ptr.(j) + counts.(j)
  done;
  let nnz = col_ptr.(ncols) in
  let row_ix = Array.make (max nnz 1) 0 in
  let value = Array.make (max nnz 1) 0.0 in
  let fill = Array.make ncols 0 in
  let put j r v =
    let p = col_ptr.(j) + fill.(j) in
    row_ix.(p) <- r;
    value.(p) <- v;
    fill.(j) <- fill.(j) + 1
  in
  let rhs = Array.make (max m 1) 0.0 in
  let col_ok = Array.make ncols true in
  Array.iteri
    (fun r (ix, cf, rel, b) ->
      rhs.(r) <- b;
      Array.iteri (fun k v -> if Float.abs cf.(k) > 0.0 then put v r cf.(k)) ix;
      (match rel with
      | Simplex.Le -> put (slack_label nvars r) r 1.0
      | Simplex.Ge -> put (slack_label nvars r) r (-1.0)
      | Simplex.Eq -> col_ok.(slack_label nvars r) <- false);
      put (art_label nvars r) r 1.0)
    rows;
  let obj = Array.make ncols 0.0 in
  Array.blit objective 0 obj 0 nvars;
  let cold = Array.make (max m 1) 0 in
  for r = 0 to m - 1 do
    let _, _, rel, _ = rows.(r) in
    cold.(r) <- (match rel with Simplex.Le -> slack_label nvars r | _ -> art_label nvars r)
  done;
  ({ nvars; m; ncols; col_ptr; row_ix; value; col_ok; rhs; obj }, cold)

(* ---- eta file: B^{-1} as a product of elementary column matrices ---- *)

type eta = { e_row : int; e_piv : float; e_ix : int array; e_mul : float array }

type state = {
  p : csc;
  basis : int array;        (* column label basic in each row *)
  in_basis : bool array;    (* per column label *)
  mutable etas : eta array;
  mutable n_etas : int;
  mutable fresh_etas : int; (* pivots since the last refactorization — the
                               rebuild trigger counts these, not the file
                               length (a rebuild itself writes up to one
                               eta per row) *)
  xb : float array;         (* value of the basic variable of each row *)
  work : float array;       (* scratch, length m *)
}

let push_eta s e =
  if s.n_etas = Array.length s.etas then begin
    let bigger = Array.make (max 16 (2 * s.n_etas)) e in
    Array.blit s.etas 0 bigger 0 s.n_etas;
    s.etas <- bigger
  end;
  s.etas.(s.n_etas) <- e;
  s.n_etas <- s.n_etas + 1

(* v <- B^{-1} v, applying etas oldest to newest. *)
let ftran s v =
  for k = 0 to s.n_etas - 1 do
    let e = s.etas.(k) in
    let t = v.(e.e_row) in
    if Float.abs t > 0.0 then begin
      v.(e.e_row) <- e.e_piv *. t;
      for i = 0 to Array.length e.e_ix - 1 do
        v.(e.e_ix.(i)) <- v.(e.e_ix.(i)) +. (e.e_mul.(i) *. t)
      done
    end
  done

(* v <- B^{-T} v, applying eta transposes newest to oldest. *)
let btran s v =
  for k = s.n_etas - 1 downto 0 do
    let e = s.etas.(k) in
    let acc = ref (e.e_piv *. v.(e.e_row)) in
    for i = 0 to Array.length e.e_ix - 1 do
      acc := !acc +. (e.e_mul.(i) *. v.(e.e_ix.(i)))
    done;
    v.(e.e_row) <- !acc
  done

(* Scatter column label j of A into dense [v] (caller zeroes it). *)
let scatter_col p j v =
  for k = p.col_ptr.(j) to p.col_ptr.(j + 1) - 1 do
    v.(p.row_ix.(k)) <- p.value.(k)
  done

let dot_col p j v =
  let acc = ref 0.0 in
  for k = p.col_ptr.(j) to p.col_ptr.(j + 1) - 1 do
    acc := !acc +. (p.value.(k) *. v.(p.row_ix.(k)))
  done;
  !acc

(* Build the eta that pivots direction [w] (= B^{-1} A_q) at [row]. *)
let eta_of_direction s w row =
  let piv = w.(row) in
  let count = ref 0 in
  for i = 0 to s.p.m - 1 do
    if i <> row && Float.abs w.(i) > 0.0 then incr count
  done;
  let e_ix = Array.make !count 0 and e_mul = Array.make !count 0.0 in
  let k = ref 0 in
  for i = 0 to s.p.m - 1 do
    if i <> row && Float.abs w.(i) > 0.0 then begin
      e_ix.(!k) <- i;
      e_mul.(!k) <- -.(w.(i) /. piv);
      incr k
    end
  done;
  { e_row = row; e_piv = 1.0 /. piv; e_ix; e_mul }

exception Singular

(* Rebuild the eta file from scratch for the current basis columns.
   Processing order puts unit columns first (free: basic slacks and
   artificials pivot on their own row with a trivial eta), then the
   structural columns greedily by largest remaining pivot. Dependent or
   numerically dead columns are replaced by the artificial of a leftover
   row; if even that cannot complete the basis, {!Singular} escapes and
   the caller falls back to a cold start. *)
let refactorize s =
  Obs.Counter.incr c_refactors;
  let timed = Obs.Sink.enabled () in
  let t0 = now_if timed in
  s.n_etas <- 0;
  let m = s.p.m in
  let pivoted = Array.make m false in
  let cols = Array.copy s.basis in
  Array.fill s.in_basis 0 s.p.ncols false;
  let deferred = ref [] in
  (* Pass 1: singleton columns landing on an unpivoted row. A unit value
     (every Le slack and artificial) needs no eta at all — its factor is
     the identity — which keeps the rebuilt file near-empty on models
     where most rows carry a basic slack. *)
  Array.iteri
    (fun slot c ->
      let lo = s.p.col_ptr.(c) and hi = s.p.col_ptr.(c + 1) in
      if hi - lo = 1 && not pivoted.(s.p.row_ix.(lo)) && Float.abs s.p.value.(lo) > piv_tol
      then begin
        let r = s.p.row_ix.(lo) in
        pivoted.(r) <- true;
        s.basis.(r) <- c;
        s.in_basis.(c) <- true;
        if s.p.value.(lo) <> 1.0 then
          push_eta s { e_row = r; e_piv = 1.0 /. s.p.value.(lo); e_ix = [||]; e_mul = [||] }
      end
      else deferred := (slot, c) :: !deferred)
    cols;
  let place c =
    if s.in_basis.(c) then false
    else begin
      Array.fill s.work 0 m 0.0;
      scatter_col s.p c s.work;
      ftran s s.work;
      let best = ref (-1) and bestv = ref piv_tol in
      for i = 0 to m - 1 do
        if (not pivoted.(i)) && Float.abs s.work.(i) > !bestv then begin
          best := i;
          bestv := Float.abs s.work.(i)
        end
      done;
      match !best with
      | -1 -> false
      | r ->
          push_eta s (eta_of_direction s s.work r);
          pivoted.(r) <- true;
          s.basis.(r) <- c;
          s.in_basis.(c) <- true;
          true
    end
  in
  (* Pass 2: remaining columns (deferred in reverse to keep the original
     slot order — any deterministic order works). *)
  List.iter (fun (_, c) -> ignore (place c : bool)) (List.rev !deferred);
  (* Pass 3: complete with artificials of leftover rows. *)
  for r = 0 to m - 1 do
    if not pivoted.(r) then
      if not (place (art_label s.p.nvars r)) then raise Singular
  done;
  s.fresh_etas <- 0;
  ignore (lap timed h_refactor t0 : int64)

let recompute_xb s =
  Array.blit s.p.rhs 0 s.xb 0 s.p.m;
  ftran s s.xb

(* ---- pricing and pivoting ---- *)

(* Entering-column choice over non-basic, non-artificial, existing columns
   given reduced costs y: Dantzig before [bland_after] in-phase pivots,
   Bland (smallest label with negative reduced cost) after. [banned] masks
   columns whose pivot was numerically dead this iteration. *)
let choose_entering s ~cost ~y ~bland ~banned =
  let best = ref (-1) and bestv = ref (-.eps) in
  (try
     for j = 0 to s.p.ncols - 1 do
       if
         s.p.col_ok.(j)
         && (not s.in_basis.(j))
         && (not (is_artificial s.p.nvars j))
         && not banned.(j)
       then begin
         let d = cost j -. dot_col s.p j y in
         if d < !bestv then begin
           bestv := d;
           best := j;
           if bland then raise Exit
         end
       end
     done
   with Exit -> ());
  !best

(* Ratio test. Rows whose basic variable is an artificial *at zero level*
   leave at ratio 0 whenever the direction touches them (either sign): a
   zero artificial must never grow, and kicking it out is free. An
   artificial still carrying positive value (mid phase 1) is an ordinary
   basic variable — forcing it out at "ratio 0" would take a full-length
   step and drive other basic variables negative. Ties break on the
   smallest basis label, which together with smallest-label entering gives
   Bland's anti-cycling guarantee once the phase switches to Bland
   pricing. *)
let choose_leaving s w =
  let best = ref (-1) and best_ratio = ref infinity in
  for i = 0 to s.p.m - 1 do
    let wi = w.(i) in
    let candidate ratio =
      if
        ratio < !best_ratio -. eps
        || (ratio < !best_ratio +. eps && (!best = -1 || s.basis.(i) < s.basis.(!best)))
      then begin
        best_ratio := ratio;
        best := i
      end
    in
    if is_artificial s.p.nvars s.basis.(i) && s.xb.(i) <= eps then begin
      if Float.abs wi > eps then candidate 0.0
    end
    else if wi > eps then candidate (s.xb.(i) /. wi)
  done;
  !best

type phase_result = Phase_optimal | Phase_unbounded

exception Fallback_cold

(* Append the pivot's eta and bring the basic values up to date. The
   update histogram excludes a refactorization falling due here, which
   records its own. *)
let apply_pivot s w ~row ~col ~timed =
  let t0 = now_if timed in
  push_eta s (eta_of_direction s w row);
  s.fresh_etas <- s.fresh_etas + 1;
  s.in_basis.(s.basis.(row)) <- false;
  s.in_basis.(col) <- true;
  s.basis.(row) <- col;
  let t1 = now_if timed in
  if s.fresh_etas >= refactor_every then refactorize s;
  let t2 = now_if timed in
  recompute_xb s;
  if timed then
    Obs.Histogram.record_ns h_update
      (Int64.add (Int64.sub t1 t0) (Int64.sub (Obs.Clock.now_ns ()) t2))

(* [@cloudia.hot]: the primal pivot loop is where every relaxation spends
   its time; pass A003 keeps its body allocation-free. *)
let[@cloudia.hot] run_primal s ~cost ~max_iters ~iter_count ~should_stop =
  let banned = Array.make s.p.ncols false in
  let entry = !iter_count in
  let result = ref Phase_optimal in
  let continue = ref true in
  let cb = Array.make (max s.p.m 1) 0.0 in
  let timed = Obs.Sink.enabled () in
  while !continue do
    if !iter_count > max_iters then raise Simplex.Aborted;
    if should_stop () then raise Simplex.Aborted;
    (* y = B^{-T} c_B, then price all non-basic columns. The anti-cycling
       switch counts pivots of this phase only. *)
    let start = now_if timed in
    for i = 0 to s.p.m - 1 do
      cb.(i) <- cost s.basis.(i)
    done;
    btran s cb;
    let t = lap timed h_btran start in
    let bland = !iter_count - entry >= max_iters / 2 in
    let col = choose_entering s ~cost ~y:cb ~bland ~banned in
    let t = lap timed h_pricing t in
    if col = -1 then continue := false
    else begin
      Array.fill s.work 0 s.p.m 0.0;
      scatter_col s.p col s.work;
      ftran s s.work;
      let t = lap timed h_ftran t in
      let row = choose_leaving s s.work in
      ignore (lap timed h_ratio t : int64);
      if row = -1 then begin
        result := Phase_unbounded;
        continue := false
      end
      else if Float.abs s.work.(row) < piv_tol then begin
        (* Numerically dead pivot: rebuild the factorization once; if the
           pivot is still dead, skip this column for the current basis. *)
        refactorize s;
        recompute_xb s;
        banned.(col) <- true
      end
      else begin
        apply_pivot s s.work ~row ~col ~timed;
        Array.fill banned 0 s.p.ncols false;
        incr iter_count;
        ignore (lap timed h_pivot start : int64)
      end
    end
  done;
  !result

(* Dual simplex repair from a dual-feasible (parent-optimal) basis: pick
   the most negative basic value, price the pivot row, enter the column
   minimizing the dual ratio (smallest label on ties — the degenerate
   ratio-0 ties of the deployment encodings cycle otherwise). Dual
   unboundedness (no candidate) proves the primal infeasible — the usual
   verdict for a branch that cut off the parent's subtree. A repair that
   has not converged within [dual_budget] pivots is abandoned for a cold
   start: one appended branch row should take a handful of pivots, and
   grinding past that is slower than re-solving from scratch. *)
let dual_budget = 50

(* The leaving row: the most negative basic value, or -1 when the basis
   is primal feasible. *)
let choose_dual_row s =
  let row = ref (-1) and worst = ref (-1e-7) in
  for i = 0 to s.p.m - 1 do
    if s.xb.(i) < !worst then begin
      worst := s.xb.(i);
      row := i
    end
  done;
  !row

(* The entering column for pivot row [rho] (= e_r B^{-1}) under duals
   [cb]: the smallest dual ratio, or -1 when no column can enter. *)
let choose_dual_col s ~rho ~cb =
  let best = ref (-1) and best_ratio = ref infinity in
  for j = 0 to s.p.ncols - 1 do
    if s.p.col_ok.(j) && (not s.in_basis.(j)) && not (is_artificial s.p.nvars j) then begin
      let alpha = dot_col s.p j rho in
      if alpha < -.eps then begin
        let d = Float.max 0.0 (s.p.obj.(j) -. dot_col s.p j cb) in
        let ratio = d /. -.alpha in
        if ratio < !best_ratio -. eps then begin
          best_ratio := ratio;
          best := j
        end
      end
    end
  done;
  !best

let[@cloudia.hot] run_dual s ~max_iters ~iter_count ~should_stop =
  let feasible = ref false and infeasible = ref false in
  let rho = Array.make (max s.p.m 1) 0.0 in
  let cb = Array.make (max s.p.m 1) 0.0 in
  let pivots = ref 0 in
  let timed = Obs.Sink.enabled () in
  while (not !feasible) && not !infeasible do
    if !iter_count > max_iters then raise Simplex.Aborted;
    if should_stop () then raise Simplex.Aborted;
    if !pivots >= dual_budget then raise Fallback_cold;
    let start = now_if timed in
    let r = choose_dual_row s in
    let t = lap timed h_pricing start in
    if r = -1 then feasible := true
    else begin
      Array.fill rho 0 s.p.m 0.0;
      rho.(r) <- 1.0;
      btran s rho;
      for i = 0 to s.p.m - 1 do
        cb.(i) <- s.p.obj.(s.basis.(i))
      done;
      btran s cb;
      let t = lap timed h_btran t in
      let col = choose_dual_col s ~rho ~cb in
      let t = lap timed h_ratio t in
      if col = -1 then infeasible := true
      else begin
        Array.fill s.work 0 s.p.m 0.0;
        scatter_col s.p col s.work;
        ftran s s.work;
        ignore (lap timed h_ftran t : int64);
        if Float.abs s.work.(r) < piv_tol then raise Fallback_cold;
        apply_pivot s s.work ~row:r ~col ~timed;
        Obs.Counter.incr c_dual_pivots;
        incr pivots;
        incr iter_count;
        ignore (lap timed h_pivot start : int64)
      end
    end
  done;
  not !infeasible

(* ---- driver ---- *)

let basic_artificial_mass s =
  let acc = ref 0.0 in
  for i = 0 to s.p.m - 1 do
    if is_artificial s.p.nvars s.basis.(i) then acc := !acc +. Float.max 0.0 s.xb.(i)
  done;
  !acc

let extract s ~objective ~iterations =
  let x = Array.make s.p.nvars 0.0 in
  for i = 0 to s.p.m - 1 do
    if s.basis.(i) < s.p.nvars then x.(s.basis.(i)) <- s.xb.(i)
  done;
  let value = ref 0.0 in
  Array.iteri (fun j c -> value := !value +. (c *. x.(j))) objective;
  { status = Simplex.Optimal (!value, x); basis = Array.copy s.basis; iterations }

let fresh_state p basis_init =
  let m = p.m in
  let in_basis = Array.make p.ncols false in
  Array.iter (fun c -> in_basis.(c) <- true) basis_init;
  {
    p;
    basis = Array.copy basis_init;
    in_basis;
    etas = [||];
    n_etas = 0;
    fresh_etas = 0;
    xb = Array.make (max m 1) 0.0;
    work = Array.make (max m 1) 0.0;
  }

let solve_cold p cold ~max_iters ~should_stop ~objective ~iter_count =
  let s = fresh_state p cold in
  recompute_xb s;
  (* Phase 1: minimize the mass of the basic artificials (cold bases put an
     artificial in every Ge/Eq row). *)
  let has_art = Array.exists (fun c -> is_artificial p.nvars c) s.basis in
  let infeasible = ref false in
  if has_art then begin
    let cost j = if is_artificial p.nvars j then 1.0 else 0.0 in
    (match run_primal s ~cost ~max_iters ~iter_count ~should_stop with
    | Phase_unbounded -> failwith "Sparse.solve: phase 1 unbounded (internal error)"
    | Phase_optimal -> ());
    if basic_artificial_mass s > 1e-6 then infeasible := true
  end;
  if !infeasible then { status = Simplex.Infeasible; basis = Array.copy s.basis; iterations = !iter_count }
  else begin
    let cost j = p.obj.(j) in
    match run_primal s ~cost ~max_iters ~iter_count ~should_stop with
    | Phase_unbounded ->
        { status = Simplex.Unbounded; basis = Array.copy s.basis; iterations = !iter_count }
    | Phase_optimal -> extract s ~objective ~iterations:!iter_count
  end

let solve_warm p cold warm ~max_iters ~should_stop ~objective ~iter_count =
  let m = p.m in
  if Array.length warm > m then invalid_arg "Sparse.solve: warm basis longer than row count";
  Obs.Counter.incr c_warm;
  (* Extend a parent basis to the appended rows with each row's own
     slack/surplus column — basic surplus of a violated Ge branch sits at a
     negative value, which is precisely what the dual pivots repair (the
     artificial would instead settle at a positive level and force a cold
     fallback). Labels out of range or duplicated become artificials, and
     refactorization substitutes artificials for anything dependent. *)
  let seen = Array.make p.ncols false in
  let init = Array.make (max m 1) 0 in
  for r = 0 to m - 1 do
    let c =
      if r < Array.length warm then warm.(r)
      else
        let sl = slack_label p.nvars r in
        if p.col_ok.(sl) then sl else cold.(r)
    in
    let c = if c < 0 || c >= p.ncols || (not p.col_ok.(c)) || seen.(c) then art_label p.nvars r else c in
    seen.(c) <- true;
    init.(r) <- c
  done;
  let s = fresh_state p init in
  refactorize s;
  recompute_xb s;
  if run_dual s ~max_iters ~iter_count ~should_stop then begin
    (* Primal-feasible again; finish with primal phase 2 (usually zero
       pivots — the dual run preserves dual feasibility). *)
    let cost j = p.obj.(j) in
    match run_primal s ~cost ~max_iters ~iter_count ~should_stop with
    | Phase_unbounded ->
        { status = Simplex.Unbounded; basis = Array.copy s.basis; iterations = !iter_count }
    | Phase_optimal ->
        if basic_artificial_mass s > 1e-6 then
          (* A substituted artificial settled at a nonzero level: the warm
             path cannot certify anything — decide from a cold start. *)
          raise Fallback_cold
        else extract s ~objective ~iterations:!iter_count
  end
  else { status = Simplex.Infeasible; basis = Array.copy s.basis; iterations = !iter_count }

let solve ?(max_iters = 50_000) ?(should_stop = fun () -> false) ?warm_basis ~objective
    ~(rows : row list) () =
  Obs.Counter.incr c_solves;
  let rows = Array.of_list rows in
  if Array.length rows > max_rows then raise Simplex.Aborted;
  let p, cold = build ~objective ~rows in
  let iter_count = ref 0 in
  let result =
    match warm_basis with
    | None -> solve_cold p cold ~max_iters ~should_stop ~objective ~iter_count
    | Some warm -> (
        try solve_warm p cold warm ~max_iters ~should_stop ~objective ~iter_count
        with Fallback_cold | Singular ->
          solve_cold p cold ~max_iters ~should_stop ~objective ~iter_count)
  in
  Obs.Counter.add c_iterations !iter_count;
  result
