(* Front end: parse a file with the compiler's own parser, run every
   applicable registered pass, then peel off inline suppressions, the
   allowlist and the committed baseline. The library returns data only;
   tools/analyzer does the printing and process exit codes. *)

let builtin_passes () =
  (* Referencing the pass modules forces their [Registry.register] side
     effects to link even though nothing else names them. *)
  ignore Pass_domain.pass;
  ignore Pass_determinism.pass;
  ignore Pass_alloc.pass;
  ignore Pass_matrix.pass;
  ignore Pass_banned.magic;
  ignore Pass_interface.pass;
  Registry.all ()

let parse_implementation ~path text =
  let lexbuf = Lexing.from_string text in
  Location.init lexbuf path;
  match Parse.implementation lexbuf with
  | str -> Ok str
  | exception _ ->
      (* The build would reject this file too; report where the lexer
         stopped rather than dying. *)
      Error lexbuf.Lexing.lex_curr_p.Lexing.pos_lnum

(* Raw findings of the per-file passes for one source, before any
   suppression. Interfaces are not parsed: only tree passes see them. *)
let check_source ?passes ~path text =
  let passes = match passes with Some ps -> ps | None -> builtin_passes () in
  let path = Repo_path.normalize path in
  let applicable =
    List.filter_map
      (fun p ->
        match p.Registry.check with
        | Registry.File check when p.Registry.applies path -> Some check
        | _ -> None)
      passes
  in
  if applicable = [] || not (Filename.check_suffix path ".ml") then []
  else
    match parse_implementation ~path text with
    | Error line ->
        [
          Finding.make ~pass:"A000" ~path ~line
            "file does not parse as an OCaml implementation (the analyzer \
             mirrors the compiler's parser; fix the syntax error first)";
        ]
    | Ok str ->
        Finding.sort
          (List.concat_map (fun check -> check ~path str) applicable)

(* One file: raw findings minus inline suppressions. *)
let analyze_source ?passes ~path text =
  let findings = check_source ?passes ~path text in
  Suppress.filter (Suppress.scan text) findings

type report = {
  files : int;
  kept : Finding.t list;
  suppressed : Finding.t list;
      (** inline-suppressed + allowlisted + baselined, for accounting *)
}

(* ---- allowlist: one "PASS path-prefix" entry per line ---- *)

type allow = { allow_pass : string; allow_prefix : string }

let parse_allowlist text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line ' ' with
           | None -> None
           | Some i ->
               Some
                 {
                   allow_pass = String.sub line 0 i;
                   allow_prefix =
                     Repo_path.normalize
                       (String.trim (String.sub line (i + 1) (String.length line - i - 1)));
                 })

let allowed allows (f : Finding.t) =
  List.exists
    (fun a -> a.allow_pass = f.Finding.pass && Repo_path.under [ a.allow_prefix ] f.Finding.path)
    allows

(* Tree passes see every applicable path; their findings have no source
   line to carry an inline suppression. *)
let check_tree passes paths =
  List.concat_map
    (fun p ->
      match p.Registry.check with
      | Registry.Tree check -> check ~paths:(List.filter p.Registry.applies paths)
      | Registry.File _ -> [])
    passes

let run ?passes ?(allow = []) ?(baseline = Baseline.empty) files =
  let passes = match passes with Some ps -> ps | None -> builtin_passes () in
  let kept, suppressed =
    List.fold_left
      (fun (kept, supp) (path, text) ->
        let k, s = analyze_source ~passes ~path text in
        (k @ kept, s @ supp))
      ([], []) files
  in
  let tree = check_tree passes (List.map (fun (path, _) -> Repo_path.normalize path) files) in
  let allowed, kept = List.partition (allowed allow) (tree @ kept) in
  let kept, baselined = Baseline.filter baseline kept in
  {
    files = List.length files;
    kept = Finding.sort kept;
    suppressed = Finding.sort (suppressed @ allowed @ baselined);
  }

(* ---- source-tree walking (shared by the CLI and the clean-tree test) ---- *)

let rec walk dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
      (* Sorted traversal: reports and --json artifacts must be
         byte-stable across machines and filesystems. *)
      Array.sort String.compare entries;
      Array.fold_left
        (fun acc entry ->
          let p = Filename.concat dir entry in
          if Sys.is_directory p then
            if entry = "_build" || entry.[0] = '.' then acc else acc @ walk p
          else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then acc @ [ p ]
          else acc)
        [] entries

let read_file path = In_channel.with_open_text path In_channel.input_all

let load_tree ~root roots =
  let relative path =
    let prefix = root ^ "/" in
    let path = Repo_path.normalize path in
    if root <> "." && String.starts_with ~prefix path then
      String.sub path (String.length prefix) (String.length path - String.length prefix)
    else path
  in
  List.concat_map
    (fun r ->
      let dir = Filename.concat root r in
      if Sys.file_exists dir && Sys.is_directory dir then
        List.map (fun p -> (relative p, read_file p)) (walk dir)
      else [])
    roots
