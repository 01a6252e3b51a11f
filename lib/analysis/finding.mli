(** A single analyzer finding: one pass, one location, one message.

    Findings render into the {!Lint.Diagnostic.t} pipeline the instance
    linter uses, for human and JSON output. *)

type t = {
  pass : string;  (** pass id, e.g. ["A001"] *)
  path : string;  (** repository-relative path with ['/'] separators *)
  line : int;  (** 1-based; [0] for whole-file findings *)
  message : string;
}

val make : pass:string -> path:string -> line:int -> string -> t

val compare : t -> t -> int
(** Total order: pass, then path, then line, then message — byte-stable
    across machines (no hashing, no address identity). *)

val sort : t list -> t list
(** Sorted and deduplicated under {!compare}. *)

val fingerprint : t -> string
(** Baseline key: [pass \t path \t message]. Line numbers are excluded so
    baselines survive edits elsewhere in the file. *)

val to_string : t -> string

val to_diagnostic : ?severity:Lint.Diagnostic.severity -> t -> Lint.Diagnostic.t
(** Defaults to [Error] — analyzer findings gate CI. *)
