(* A001 — domain-safety: top-level mutable state must not be reachable
   from a closure passed to [Domain.spawn] unless it is [Atomic],
   accessed under [Mutex.protect], or explicitly allowed.

   ClouDiA's parallel portfolio races solver domains against a shared
   incumbent; the paper's reproducibility claims assume that the only
   cross-domain state is the explicitly synchronized incumbent. A
   top-level [ref]/[Hashtbl]/[Buffer]/mutable record that a spawned
   closure can reach is a data race TSan may or may not catch on a given
   schedule — this pass proves its absence per-PR, syntactically.

   Method, per file:
   1. collect top-level value bindings, classifying their right-hand
      sides: [ref _], [Hashtbl.create], [Buffer.create], [Queue.create],
      [Stack.create], [Bytes.create/make], [Array.make/init/create_float],
      and record literals mentioning a field declared [mutable] in this
      file are mutable; [Atomic.make] is safe by construction;
   2. for every top-level binding, record which other top-level names its
      body references and whether each reference sits under an argument
      of [Mutex.protect] (guarded);
   3. for every [Domain.spawn] argument, flood-fill the unguarded
      reference graph from the closure; reaching a mutable top-level
      binding is a finding at the spawn site.

   The analysis is per-file: cross-module mutable state is sealed behind
   .mli interfaces (rule R005) and owned by its defining module. *)

open Parsetree

(* Heads of applications whose result is mutable shared state. *)
let mutable_makers =
  [
    [ "ref" ];
    [ "Hashtbl"; "create" ];
    [ "Buffer"; "create" ];
    [ "Queue"; "create" ];
    [ "Stack"; "create" ];
    [ "Bytes"; "create" ];
    [ "Bytes"; "make" ];
    [ "Array"; "make" ];
    [ "Array"; "init" ];
    [ "Array"; "create_float" ];
  ]

let spawn_heads = [ [ "Domain"; "spawn" ] ]
let guard_heads = [ [ "Mutex"; "protect" ] ]

let line_of (e : expression) = e.pexp_loc.loc_start.pos_lnum

(* Resolve the head of [e] (unwrapping type constraints) to a global
   path, treating a bare ident as the global of the same name when it is
   not shadowed. *)
let rec head_path env (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match Scope.resolve_value env txt with
      | Scope.Path p -> Some p
      | Scope.Bare n -> Some [ n ]
      | Scope.Shadowed -> None)
  | Pexp_constraint (e', _) -> head_path env e'
  | _ -> None

let apply_head env (e : expression) =
  match e.pexp_desc with
  | Pexp_apply (f, _) -> head_path env f
  | _ -> None

type def = {
  def_line : int;
  mutable_rhs : string option; (* Some maker-name when the RHS is mutable *)
  mutable refs : (string * bool) list; (* (top-level name, guarded) *)
}

let classify_rhs env mutable_labels (e : expression) =
  let rec go (e : expression) =
    match e.pexp_desc with
    | Pexp_constraint (e', _) -> go e'
    | Pexp_record (fields, _) ->
        if
          List.exists
            (fun ((lid : Longident.t Location.loc), _) ->
              match lid.Location.txt with
              | Lident l | Ldot (_, l) -> List.mem l mutable_labels
              | _ -> false)
            fields
        then Some "a record with mutable fields"
        else None
    | Pexp_apply (f, _) -> (
        match head_path env f with
        | Some p when List.mem p mutable_makers -> Some (String.concat "." p)
        | _ -> None)
    | _ -> None
  in
  go e

let check ~path str =
  let findings = ref [] in
  (* name -> def, in definition order for deterministic reports. *)
  let defs : (string, def) Hashtbl.t = Hashtbl.create 64 in
  let mutable_labels = ref [] in
  (* Spawn sites: (line, closure's directly-referenced top-level names,
     collected unguarded). *)
  let spawns : (int * string list ref) list ref = ref [] in
  let collect_refs env0 e ~into =
    (* Walk [e] from a values-free environment: expression-local lets
       shadow correctly, while references to this file's top-level names
       surface as [Bare]. *)
    let guard_depth = ref 0 in
    let guards = ref [] and spawn_stack = ref [] in
    let enter_expr env e =
      (match apply_head env e with
      | Some p when List.mem p guard_heads ->
          incr guard_depth;
          guards := e :: !guards
      | Some p when List.mem p spawn_heads ->
          let acc = ref [] in
          spawns := (line_of e, acc) :: !spawns;
          spawn_stack := (e, acc) :: !spawn_stack
      | _ -> ());
      match e.pexp_desc with
      | Pexp_ident { txt = Longident.Lident n; _ }
        when (match Scope.resolve_value env (Longident.Lident n) with
             | Scope.Bare _ -> true
             | _ -> false) ->
          let guarded = !guard_depth > 0 in
          into := (n, guarded) :: !into;
          if not guarded then
            List.iter (fun (_, acc) -> acc := n :: !acc) !spawn_stack
      | _ -> ()
    in
    let leave_expr e =
      (match !guards with
      | g :: tl when g == e ->
          decr guard_depth;
          guards := tl
      | _ -> ());
      match !spawn_stack with
      | (s, _) :: tl when s == e -> spawn_stack := tl
      | _ -> ()
    in
    Walk.iter_expression ~env:(Scope.clear_values env0)
      { Walk.default_hooks with enter_expr; leave_expr }
      e
  in
  let enter_item env (item : structure_item) =
    match item.pstr_desc with
    | Pstr_type (_, decls) ->
        List.iter
          (fun d ->
            match d.ptype_kind with
            | Ptype_record labels ->
                List.iter
                  (fun l ->
                    if l.pld_mutable = Asttypes.Mutable then
                      mutable_labels := l.pld_name.txt :: !mutable_labels)
                  labels
            | _ -> ())
          decls
    | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            let names = Walk.pattern_vars vb.pvb_pat in
            let refs = ref [] in
            collect_refs env vb.pvb_expr ~into:refs;
            let mutable_rhs = classify_rhs env !mutable_labels vb.pvb_expr in
            List.iter
              (fun name ->
                if not (Hashtbl.mem defs name) then
                  Hashtbl.add defs name
                    {
                      def_line = vb.pvb_loc.loc_start.pos_lnum;
                      mutable_rhs;
                      refs = !refs;
                    })
              names)
          vbs
    | _ -> ()
  in
  Walk.iter_structure { Walk.default_hooks with enter_item } str;
  (* Flood the unguarded reference graph from each spawn closure. *)
  List.iter
    (fun (spawn_line, direct) ->
      let seen = Hashtbl.create 16 in
      let rec visit name =
        if not (Hashtbl.mem seen name) then begin
          Hashtbl.add seen name ();
          match Hashtbl.find_opt defs name with
          | None -> ()
          | Some d -> (
              match d.mutable_rhs with
              | Some what ->
                  findings :=
                    Finding.make ~pass:"A001" ~path ~line:spawn_line
                      (Printf.sprintf
                         "closure passed to Domain.spawn reaches top-level \
                          mutable state `%s' (%s, defined at line %d) without \
                          Atomic or Mutex.protect — a cross-domain data race"
                         name what d.def_line)
                    :: !findings
              | None ->
                  List.iter (fun (n, guarded) -> if not guarded then visit n) d.refs)
        end
      in
      List.iter visit !direct)
    (List.rev !spawns);
  Finding.sort !findings

let pass =
  {
    Registry.id = "A001";
    description =
      "domain-safety: top-level ref/Hashtbl/Buffer/mutable-record state \
       syntactically reachable from a Domain.spawn closure must be Atomic, \
       Mutex.protect-guarded, or explicitly allowed";
    applies = (fun _ -> true);
    check = File check;
  }

let () = Registry.register pass
