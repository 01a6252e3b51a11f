(** Analyzer front end: parse with the compiler's parser
    ([compiler-libs.common]), run the registered passes, subtract inline
    suppressions, the allowlist and the committed baseline. The library
    returns data; [tools/analyzer] prints and sets the exit code.

    Files that fail to parse yield a single [A000] finding (the build
    would reject them too). This is the repository's one source-lint
    engine; {!Lint.Instance} checks solver inputs, not source. *)

val builtin_passes : unit -> Registry.pass list
(** All built-in passes (A001 domain-safety, A002 determinism, A003
    hot-path allocation, A004 matrix representation, A005 [Obj.magic],
    A006 console output in [lib/], A007 missing [.mli]), forcing their
    registration. *)

val parse_implementation :
  path:string -> string -> (Parsetree.structure, int) result
(** [Error line] points at the lexer position of the syntax error. *)

val check_source :
  ?passes:Registry.pass list -> path:string -> string -> Finding.t list
(** Raw findings of the {!Registry.File} passes for one [.ml] file,
    before any suppression; [[]] for other paths. *)

val analyze_source :
  ?passes:Registry.pass list ->
  path:string ->
  string ->
  Finding.t list * Finding.t list
(** [(kept, inline_suppressed)] for one file. *)

type report = {
  files : int;
  kept : Finding.t list;
  suppressed : Finding.t list;
}

type allow = { allow_pass : string; allow_prefix : string }
(** One allowlist entry: [allow_pass] findings under [allow_prefix] are
    suppressed. *)

val parse_allowlist : string -> allow list
(** One [PASS path-prefix] entry per line; [#] starts a comment line;
    blank lines are ignored. *)

val run :
  ?passes:Registry.pass list ->
  ?allow:allow list ->
  ?baseline:Baseline.t ->
  (string * string) list ->
  report
(** Analyze [(path, contents)] pairs: file passes on each [.ml], tree
    passes on the whole path set ([.mli] paths included). Findings
    surviving inline suppressions are further filtered by the allowlist
    and the baseline. *)

val walk : string -> string list
(** Recursively list [.ml] and [.mli] files under a directory, sorted at
    every level ([_build] and dot-directories skipped) — byte-stable
    output across machines. *)

val load_tree : root:string -> string list -> (string * string) list
(** Read every [.ml] and [.mli] file under [roots] (relative to [root]),
    returning repository-relative paths with their contents. *)
