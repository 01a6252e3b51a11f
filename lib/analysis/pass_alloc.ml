(* A003 — hot-path allocation: functions marked [[@cloudia.hot]] must not
   allocate inside their loop bodies.

   The incremental-cost kernel's claim (CHANGES.md: "allocation-free hot
   path") and the bench gate on GC words/move are invariants a refactor
   can silently break — one innocent [List.map (fun ...)] in the anneal
   move loop and the 10x moves/sec figure decays. The attribute marks the
   contract in the source; this pass enforces it.

   Inside [while]/[for] bodies of a hot function the following are
   flagged as allocations: closures ([fun]/[function]), tuples, records,
   arrays, list/constructor applications with a payload ([Some x],
   [x :: tl]), polymorphic variants with a payload, [lazy], [ref],
   string/list append ([^], [@]). Allocation under a raise path
   ([raise], [failwith], [invalid_arg], [assert]) is exempt — the cold
   path may build its exception.

   Known approximations (documented in DESIGN.md §12): boxed-float
   allocation is caught only where it is syntactic (a float stored into a
   flagged tuple/record/constructor); partial applications and implicit
   closure captures are not visible in the Parsetree. *)

open Parsetree

let attr_name = "cloudia.hot"

let line_of (e : expression) = e.pexp_loc.loc_start.pos_lnum

let is_hot_attr (a : attribute) = a.attr_name.txt = attr_name

let cold_heads = [ [ "raise" ]; [ "raise_notrace" ]; [ "failwith" ]; [ "invalid_arg" ] ]
let alloc_operators = [ [ "^" ]; [ "@" ] ]

let head_path env (e : expression) =
  match e.pexp_desc with
  | Pexp_apply (f, _) -> (
      match f.pexp_desc with
      | Pexp_ident { txt; _ } -> (
          match Scope.resolve_value env txt with
          | Scope.Path p -> Some p
          | Scope.Bare n -> Some [ n ]
          | Scope.Shadowed -> None)
      | _ -> None)
  | _ -> None

(* What does evaluating [e] allocate, syntactically? *)
let allocation env (e : expression) =
  if Ast_compat.is_function e then Some "a closure"
  else
    match e.pexp_desc with
    | Pexp_tuple _ -> Some "a tuple"
    | Pexp_record _ -> Some "a record"
    | Pexp_array _ -> Some "an array"
    | Pexp_construct ({ txt; _ }, Some _) ->
        Some
          (Printf.sprintf "a `%s' block"
             (String.concat "." (Longident.flatten txt)))
    | Pexp_variant (_, Some _) -> Some "a polymorphic-variant block"
    | Pexp_lazy _ -> Some "a lazy block"
    | Pexp_apply _ -> (
        match head_path env e with
        | Some [ "ref" ] -> Some "a ref cell"
        | Some p when List.mem p alloc_operators ->
            Some (Printf.sprintf "a `%s' append" (String.concat "." p))
        | _ -> None)
    | _ -> None

let check_hot_function ~path ~fname ~env0 body add =
  let loop_depth = ref 0 and loops = ref [] in
  let cold_depth = ref 0 and colds = ref [] in
  let enter_expr env e =
    let is_cold =
      (match head_path env e with Some p -> List.mem p cold_heads | None -> false)
      || match e.pexp_desc with Pexp_assert _ -> true | _ -> false
    in
    if is_cold then begin
      incr cold_depth;
      colds := e :: !colds
    end;
    if !loop_depth > 0 && !cold_depth = 0 then begin
      match allocation env e with
      | Some what ->
          add
            (Finding.make ~pass:"A003" ~path ~line:(line_of e)
               (Printf.sprintf
                  "[@%s] function `%s' allocates %s in a loop body — hoist it \
                   out of the loop or drop the hot attribute" attr_name fname
                  what))
      | None -> ()
    end;
    match e.pexp_desc with
    | Pexp_while _ | Pexp_for _ ->
        incr loop_depth;
        loops := e :: !loops
    | _ -> ()
  in
  let leave_expr e =
    (match !loops with
    | l :: tl when l == e ->
        decr loop_depth;
        loops := tl
    | _ -> ());
    match !colds with
    | c :: tl when c == e ->
        decr cold_depth;
        colds := tl
    | _ -> ()
  in
  Walk.iter_expression ~env:(Scope.clear_values env0)
    { Walk.default_hooks with enter_expr; leave_expr }
    body

let check ~path str =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let enter_item env (item : structure_item) =
    match item.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            if
              List.exists is_hot_attr vb.pvb_attributes
              || List.exists is_hot_attr vb.pvb_expr.pexp_attributes
            then
              let fname =
                match Walk.pattern_vars vb.pvb_pat with
                | n :: _ -> n
                | [] -> "_"
              in
              check_hot_function ~path ~fname ~env0:env vb.pvb_expr add)
          vbs
    | _ -> ()
  in
  Walk.iter_structure { Walk.default_hooks with enter_item } str;
  Finding.sort !findings

let pass =
  {
    Registry.id = "A003";
    description =
      "hot-path allocation: [@cloudia.hot] functions must not allocate \
       closures, tuples, records, or constructor blocks inside loop bodies";
    applies = (fun _ -> true);
    check = File check;
  }

let () = Registry.register pass
