(** The pass registry.

    A pass is a named check over either one parsed implementation file
    or the set of paths in the analyzed tree. Passes self-register at
    module initialization time; {!Analyzer.builtin_passes} forces the
    built-in pass modules to link so a library consumer sees them without
    naming each module. *)

type check =
  | File of (path:string -> Parsetree.structure -> Finding.t list)
      (** runs on each applicable [.ml] file's Parsetree *)
  | Tree of (paths:string list -> Finding.t list)
      (** runs once on every applicable path in the tree, [.mli] files
          included *)

type pass = {
  id : string;  (** stable diagnostic code, e.g. ["A001"] *)
  description : string;
  applies : string -> bool;
      (** path filter over repository-relative ['/'] paths; files outside
          the pass's scope are skipped entirely *)
  check : check;
}

val register : pass -> unit
(** Raises [Invalid_argument] on a duplicate id. *)

val all : unit -> pass list
(** All registered passes, in id order. *)

val find : string -> pass option
