(* A004 — matrix representation: the AST successor of token rule R006.

   The latency matrix is a flat Bigarray behind [Lat_matrix]; boxed
   [costs.(i).(j)] indexing outside lib/lat_matrix/ (and the raw-CSV
   layer in lib/cloudia/matrix_io) re-introduces the float array array
   representation the flat-matrix refactor removed. The parser desugars
   [a.(i)] into an application of [Array.get]/[Array.set], so the check
   is exact where the token scanner pattern-matched on "costs.(": an
   array access whose subject is a value or record field named [costs]. *)

open Parsetree

let exempt = Repo_path.under [ "lib/lat_matrix/"; "lib/cloudia/matrix_io" ]

let array_access = [ "get"; "set"; "unsafe_get"; "unsafe_set" ]

let is_costs (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt = Lident "costs"; _ } -> true
  | Pexp_field (_, { txt; _ }) -> (
      match (txt : Longident.t) with
      | Lident "costs" | Ldot (_, "costs") -> true
      | _ -> false)
  | _ -> false

let check ~path str =
  let findings = ref [] in
  let enter_expr env (e : expression) =
    match e.pexp_desc with
    | Pexp_apply (f, (Asttypes.Nolabel, subject) :: _) -> (
        match f.pexp_desc with
        | Pexp_ident { txt; _ } -> (
            match Scope.resolve_value env txt with
            | Scope.Path [ "Array"; op ]
              when List.mem op array_access && is_costs subject ->
                findings :=
                  Finding.make ~pass:"A004" ~path
                    ~line:e.pexp_loc.loc_start.pos_lnum
                    "boxed costs.(i).(j) indexing outside lib/lat_matrix/ — \
                     the latency matrix is a flat Bigarray; use the \
                     Lat_matrix API (successor of token rule R006)"
                  :: !findings
            | _ -> ())
        | _ -> ())
    | _ -> ()
  in
  Walk.iter_structure { Walk.default_hooks with enter_expr } str;
  Finding.sort !findings

let pass =
  {
    Registry.id = "A004";
    description =
      "matrix representation: boxed costs.(i).(j) indexing outside \
       lib/lat_matrix/ (successor of token rule R006)";
    applies = (fun path -> not (exempt path));
    check = File check;
  }

let () = Registry.register pass
