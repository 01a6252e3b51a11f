(** Finite integer domains as bitsets.

    A domain is a mutable subset of [0 .. universe-1], stored as packed bit
    words. The CP search copies domains when branching, so copying must be
    cheap — at the scales used here (universe ≤ a few hundred) a domain is
    a handful of machine words. *)

type t

val full : int -> t
(** [full universe] is the domain \{0, …, universe-1\}. *)

val empty : int -> t
(** The empty domain over the given universe. *)

val universe : t -> int

val copy : t -> t

val blit : src:t -> dst:t -> unit
(** Overwrite [dst] with [src]'s contents. Universes must match. *)

val mem : t -> int -> bool

val remove : t -> int -> bool
(** Remove a value; returns [true] if the value was present. *)

val add : t -> int -> unit

val fix : t -> int -> unit
(** Collapse the domain to a single value. *)

val size : t -> int
(** Cardinality (population count). *)

val is_empty : t -> bool

val is_singleton : t -> bool

val min_value : t -> int
(** Smallest member. Raises [Not_found] on an empty domain. *)

val next : t -> int -> int
(** [next d v] is the smallest member [>= v], or [-1] if there is none.
    Lets a caller walk a domain without a closure:
    [let v = ref (next d 0) in while !v >= 0 do … v := next d (!v + 1) done].
    Raises [Invalid_argument] if [v < 0]. *)

val iter : (int -> unit) -> t -> unit
(** Iterate members in ascending order, visiting set bits only. Each word
    is read once before its members are visited, so [f] may remove the
    value it receives. *)

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

val to_list : t -> int list
(** Members in ascending order. *)

val keep_only : t -> (int -> bool) -> bool
(** [keep_only d pred] removes every member failing [pred]; returns [true]
    if anything was removed. *)

val intersects_complement : t -> t -> bool
(** [intersects_complement d bad] is true iff [d] has a member outside
    [bad] — i.e. [d \ bad ≠ ∅]. This is the support test of the
    forbidden-pair propagator. *)

val subtract : t -> t -> bool
(** [subtract d bad] removes from [d] every member of [bad]; returns [true]
    if [d] changed. *)

val equal : t -> t -> bool
(** Same universe and same members. *)

val remove_unsupported : t -> other:t -> conflicts:t array -> bool
(** [remove_unsupported d ~other ~conflicts] removes from [d] every member
    [j] with [other ⊆ conflicts.(j)] — the values that no member of
    [other] supports under the forbidden-pair relation [conflicts]. Works
    on the packed words and allocates nothing. Returns [true] if [d]
    changed. *)
