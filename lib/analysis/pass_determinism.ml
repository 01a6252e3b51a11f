(* A002 — determinism: the AST-accurate successor of token rules
   R001/R002, plus a polymorphic-compare check on the solver libraries.

   Seed-reproducible solver runs (ClouDiA's evaluation rests on them) ban
   three things the type system cannot:

   - wall-clock reads ([Unix.gettimeofday]) outside lib/obs/ and bench/ —
     deadlines and telemetry use the monotonic [Obs.Clock];
   - the global [Random] module outside lib/prng/ — all randomness flows
     through seeded, splittable [Prng] streams;
   - bare polymorphic [compare] inside lib/{cloudia,cp,lp,stats} — the
     solver hot paths order float-bearing data, and polymorphic compare
     is both slow (generic traversal) and a determinism hazard the moment
     a comparand grows a functional or cyclic component. Use
     [Float.compare]/[Int.compare]/a typed comparator.

   Unlike the token rules this pass resolves opens, aliases and
   shadowing: [module U = Unix ... U.gettimeofday ()] is caught,
   [open Unix ... gettimeofday ()] is caught, and a file-local
   [module Random = ...] shim is *not* flagged. *)

open Parsetree

let clock_exempt = Repo_path.under [ "lib/obs/"; "bench/" ]
let random_exempt = Repo_path.under [ "lib/prng/" ]
let solver_lib = Repo_path.under [ "lib/cloudia/"; "lib/cp/"; "lib/lp/"; "lib/stats/" ]

(* Opening any of these makes a bare [compare] monomorphic. *)
let compare_providers =
  [
    [ "Float" ];
    [ "Int" ];
    [ "String" ];
    [ "Char" ];
    [ "Bool" ];
    [ "Int32" ];
    [ "Int64" ];
    [ "Nativeint" ];
  ]

let line_of (e : expression) = e.pexp_loc.loc_start.pos_lnum

let check ~path str =
  let findings = ref [] in
  let add line message =
    findings := Finding.make ~pass:"A002" ~path ~line message :: !findings
  in
  let check_clock = not (clock_exempt path) in
  let check_random = not (random_exempt path) in
  let check_compare = solver_lib path in
  let on_open env line origin =
    match origin with
    | Scope.Global [ "Random" ] when check_random ->
        ignore env;
        add line "open Random outside lib/prng/ (use seeded Prng streams)"
    | _ -> ()
  in
  let enter_expr env e =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        match Scope.resolve_value env txt with
        | Scope.Shadowed -> ()
        | Scope.Path [ "Unix"; "gettimeofday" ] when check_clock ->
            add (line_of e)
              "Unix.gettimeofday (use the monotonic Obs.Clock; wall-clock \
               jumps corrupt deadlines and telemetry)"
        | Scope.Bare "gettimeofday" when check_clock && Scope.opens_module env [ "Unix" ]
          ->
            add (line_of e)
              "gettimeofday via `open Unix' (use the monotonic Obs.Clock; \
               wall-clock jumps corrupt deadlines and telemetry)"
        | Scope.Path ("Random" :: _) when check_random ->
            add (line_of e)
              (Printf.sprintf
                 "global Random (%s) outside lib/prng/ (use seeded Prng \
                  streams so runs are seed-reproducible)"
                 (String.concat "." (Longident.flatten txt)))
        | Scope.Path [ "compare" ] when check_compare ->
            add (line_of e)
              "polymorphic Stdlib.compare in a solver library (use \
               Float.compare / Int.compare / a typed comparator on \
               float-bearing solver data)"
        | Scope.Bare "compare"
          when check_compare && not (Scope.any_open_of env compare_providers) ->
            add (line_of e)
              "polymorphic compare in a solver library (use Float.compare / \
               Int.compare / a typed comparator on float-bearing solver data)"
        | _ -> ())
    | Pexp_open (od, _) -> (
        match od.popen_expr.pmod_desc with
        | Pmod_ident { txt; _ } ->
            on_open env od.popen_expr.pmod_loc.loc_start.pos_lnum
              (Scope.resolve_module env txt)
        | _ -> ())
    | _ -> ()
  in
  let enter_item env (item : structure_item) =
    match item.pstr_desc with
    | Pstr_open od -> (
        match od.popen_expr.pmod_desc with
        | Pmod_ident { txt; _ } ->
            on_open env item.pstr_loc.loc_start.pos_lnum
              (Scope.resolve_module env txt)
        | _ -> ())
    | _ -> ()
  in
  Walk.iter_structure { Walk.default_hooks with enter_expr; enter_item } str;
  Finding.sort !findings

let pass =
  {
    Registry.id = "A002";
    description =
      "determinism: wall-clock reads, global Random, and polymorphic compare \
       on solver data — resolved through opens, aliases and shadowing \
       (successor of token rules R001/R002)";
    applies =
      (fun path ->
        (not (clock_exempt path)) || (not (random_exempt path)) || solver_lib path);
    check = File check;
  }

let () = Registry.register pass
