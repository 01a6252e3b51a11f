(** A007 — interface pass: every [lib/**/*.ml] needs a matching [.mli].
    A {!Registry.Tree} pass over the analyzed path set. AST-engine
    successor of token rule R005. *)

val check : paths:string list -> Finding.t list
val pass : Registry.pass
