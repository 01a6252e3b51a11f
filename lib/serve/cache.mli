(** Fingerprint-keyed cross-job caches for the advising daemon.

    Three bounded LRUs behind one mutex: one entry per cost {e matrix}
    (keyed by its fingerprint, reusable across tenants and solvers)
    holding its {!Lat_matrix.Ranks} table and the k-means clusterings
    derived from that table, previous {e incumbents} for warm starts
    (keyed by fingerprint + graph + objective), and a full-result
    {e memo} (keyed by the complete job identity; only deterministic,
    completed solves are admitted — the server decides admission). A CP
    job and a longest-link anneal on the same matrix therefore sort it
    once.

    Every lookup bumps the [serve.cache_hits] / [serve.cache_misses]
    counters: a clustering is two, one for the matrix and one for the
    clustering in it. Values are computed {e outside} the lock;
    concurrent misses on one key duplicate work but never produce a wrong
    value. *)

type t

type incumbent = { plan : int array; cost : float }

val create : capacity:int -> t
(** [capacity] bounds each of the three LRUs independently, and each
    matrix entry's clusterings (one per distinct k) as well. *)

val fingerprint : Lat_matrix.t -> string
(** {!Lat_matrix.fingerprint_hex} — the key prefix for everything. *)

val graph_key : Graphs.Digraph.t -> string
(** Digest of the canonical edge-list rendering. *)

val ranks : t -> key:string -> Lat_matrix.t -> Lat_matrix.Ranks.t
(** The rank table of the matrix whose fingerprint is [key], built from
    the given matrix on a miss. While the key stays cached, every call
    returns the same table. *)

val clustering : t -> key:string -> k:int option -> Lat_matrix.t -> Cloudia.Clustering.t
(** The matrix's clustering at [k] ([None]: {!Cloudia.Clustering.none}),
    built on a miss from the entry's rank table (which is built first if
    the matrix is not cached). *)

val incumbent : t -> key:string -> incumbent option

val note_incumbent : t -> key:string -> int array -> float -> unit
(** Keep the cheapest plan seen for the key (the plan is copied). *)

val memo_find : t -> key:string -> incumbent option
val memo_add : t -> key:string -> int array -> float -> unit

val stats : t -> (string * int) list
(** Current entry counts per LRU ([cache.matrices], [cache.incumbents],
    [cache.memo]), for the stats reply. *)
