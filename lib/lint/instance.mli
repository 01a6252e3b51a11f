(** Pre-solve validation of deployment-problem instances.

    ClouDiA's solvers assume well-formed inputs that nothing in the paper's
    pipeline re-checks at solve time: finite non-negative mean latencies
    with a zero diagonal (Sect. 3.1–3.2), an acyclic communication graph
    for the longest-path objective (LPNDP, Sect. 4.2), and an instance pool
    at least as large as the node set so the deployment injection exists
    (Definition 2). This module turns each assumption into a coded
    diagnostic so a violation fails fast instead of surfacing as NaN costs
    or an unguarded exception deep inside the solvers. [Cloudia.Advisor.gate]
    composes these checks into the one pre-solve gate every entry point
    runs.

    Codes (see DESIGN.md §7 for the code ↔ paper-assumption map):

    - [LAT001] (error) cost matrix is not square
    - [LAT002] (error) non-finite entry (±inf, or NaN on the diagonal)
    - [LAT003] (error) negative entry
    - [LAT004] (error) non-zero diagonal entry
    - [LAT005] (warning) asymmetry beyond tolerance
    - [LAT006] (info) triangle-inequality violations (data-quality signal)
    - [LAT007] (error) unsampled pairs: NaN off the diagonal (partial
      coverage must not reach a solver unannounced)
    - [LAT008] (warning) imputed (estimated, not measured) pairs in use
    - [LAT009] (warning) instances dropped for lack of coverage
    - [GRF001] (error) self-loop edge
    - [GRF002] (error) edge endpoint out of range
    - [GRF003] (warning) duplicate edge
    - [GRF004] (warning) communication graph not weakly connected
    - [GRF005] (error) cyclic graph under the longest-path objective
    - [GRF006] (error) more application nodes than pool instances
    - [GRF007] (info) isolated nodes (never communicate)
    - [GRF008] (error) empty communication graph (no nodes or no edges)
    - [CFG001] (error) solver time limit not finite and positive
    - [CFG002] (error) fewer than one portfolio domain
    - [CFG003] (warning) more portfolio domains than pool instances
    - [CFG004] (error) negative over-allocation ratio
    - [CFG005] (error) non-positive samples-per-pair

    Per-entry matrix findings are aggregated: each code yields at most one
    diagnostic carrying the first offending location and the total count,
    so a fully-NaN matrix produces one [LAT007], not n². *)

val check_lat :
  ?asymmetry_tolerance:float -> ?max_triangle_n:int -> Lat_matrix.t -> Diagnostic.t list
(** Validate a latency/cost matrix in place, [LAT002]–[LAT007].
    [asymmetry_tolerance] (default [0.5]) is relative:
    [|c(i,j) - c(j,i)| > tol · max(c(i,j), c(j,i))] flags the pair —
    measured RTTs are legitimately asymmetric (Sect. 3.1), so only gross
    asymmetry warns. The O(n³) triangle scan is skipped above
    [max_triangle_n] (default [128]) and whenever the matrix already has
    errors (NaN would poison the comparisons). Off-diagonal NaN is an
    unsampled pair: one [LAT007] gives their count and share of the
    [n(n-1)] ordered pairs. The entries are read straight off
    {!Lat_matrix.data}; a clean pass allocates nothing per entry. *)

val check_matrix :
  ?asymmetry_tolerance:float -> ?max_triangle_n:int -> float array array
  -> Diagnostic.t list
(** Validate boxed rows, which may be ragged (a parsed CSV): ragged rows
    are one [LAT001] and nothing else; square rows are copied into a
    {!Lat_matrix.t} and get {!check_lat}. *)

val check_edges : n:int -> (int * int) list -> Diagnostic.t list
(** Validate a raw edge list before graph construction (the CLI path):
    self-loops, out-of-range endpoints, duplicates. {!Graphs.Digraph.create}
    rejects the first two with an exception; linting them instead reports
    every problem at once with codes. *)

val check_graph :
  ?pool:int -> ?requires_dag:bool -> Graphs.Digraph.t -> Diagnostic.t list
(** Validate a constructed communication graph. [pool] is the allocated
    instance count (enables the [GRF006] injection check); [requires_dag]
    (default [false]) enables the [GRF005] acyclicity check — set it when
    the objective is longest-path. *)

val check_config :
  ?time_limit:float -> ?domains:int -> ?pool:int -> ?over_allocation:float
  -> ?samples_per_pair:int -> unit -> Diagnostic.t list
(** Solver/pipeline configuration sanity. Only the supplied fields are
    checked, so callers pass exactly what their strategy uses. *)

val check_partial :
  ?context:string -> total:int -> imputed:int -> dropped:int -> unit
  -> Diagnostic.t list
(** How a partial measurement was completed. [total] is the number of
    ordered pairs the matrix should cover, [imputed] the pairs filled by
    [Netmeasure.Completion] ([LAT008] warning), [dropped] the instances
    discarded to restore full coverage ([LAT009] warning). Zero counts
    yield no diagnostics. Pairs left unsampled stay NaN in the matrix and
    are {!check_lat}'s [LAT007]. *)
