(* A005 and A006 — banned values, the AST successors of token rules
   R003/R004.

   - A005: [Obj.magic] anywhere. An unchecked cast voids every invariant
     the types carry.
   - A006: console output in lib/ ([print_string], [print_endline],
     [print_newline], [Printf.printf], [Format.printf]). Libraries return
     data; binaries print.

   Names resolve through [Scope], as in A002: [module O = Obj ...
   O.magic], [Stdlib.print_endline] and [open Printf ... printf] are
   caught, a file-local [let print_endline = ...] is not, and comments
   and string literals never reach the Parsetree. *)

open Parsetree

(* Is [lid] a use of one of [banned] (global paths, [Stdlib.] normalized
   away)? A bare name matches a stdlib top-level value, or a module
   member when that module is open. *)
let resolves_to_banned banned env lid =
  match Scope.resolve_value env lid with
  | Scope.Path p -> List.mem p banned
  | Scope.Bare n ->
      List.exists
        (fun p ->
          match List.rev p with
          | [ v ] -> v = n
          | v :: rev_module -> v = n && Scope.opens_module env (List.rev rev_module)
          | [] -> false)
        banned
  | Scope.Shadowed -> false

let banned_values ~id ~description ~applies ~why banned =
  let check ~path str =
    let findings = ref [] in
    let enter_expr env (e : expression) =
      match e.pexp_desc with
      | Pexp_ident { txt; _ } when resolves_to_banned banned env txt ->
          findings :=
            Finding.make ~pass:id ~path ~line:e.pexp_loc.loc_start.pos_lnum
              (Printf.sprintf "%s %s" (String.concat "." (Longident.flatten txt)) why)
            :: !findings
      | _ -> ()
    in
    Walk.iter_structure { Walk.default_hooks with enter_expr } str;
    Finding.sort !findings
  in
  { Registry.id; description; applies; check = File check }

let magic =
  banned_values ~id:"A005"
    ~description:"Obj.magic anywhere (successor of token rule R003)"
    ~applies:(fun _ -> true)
    ~why:"is Obj.magic: an unchecked cast voids the invariants the types carry"
    [ [ "Obj"; "magic" ] ]

let console =
  banned_values ~id:"A006"
    ~description:
      "console output in library code: libraries return data, binaries print \
       (successor of token rule R004)"
    ~applies:(Repo_path.under [ "lib/" ])
    ~why:"prints to the console from library code (return the data; let bin/ print it)"
    [
      [ "print_string" ];
      [ "print_endline" ];
      [ "print_newline" ];
      [ "Printf"; "printf" ];
      [ "Format"; "printf" ];
    ]

let () =
  Registry.register magic;
  Registry.register console
