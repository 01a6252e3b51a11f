(** Repository-relative paths as passes, the allowlist and the tree
    loader compare them: ['/'] separators, no leading ["./"]. *)

val normalize : string -> string
(** Strip a leading ["./"] and turn ['\\'] separators into ['/']. *)

val under : string list -> string -> bool
(** [under prefixes path]: does [path] start with one of [prefixes]?
    Prefixes are plain strings, so ["lib/cloudia/matrix_io"] covers
    [matrix_io.ml] and [matrix_io.mli]. *)
