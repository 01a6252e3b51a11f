(* AST-level source analyzer (see Analysis.Analyzer for the engine and
   lib/analysis/pass_*.ml for the passes).

   Usage: analyzer [--root DIR] [--allow FILE] [--baseline FILE]
                   [--json FILE] [--update-baseline] [ROOTS...]

   Parses every .ml under ROOTS (default: lib bin bench) relative to
   --root (default: cwd), runs the registered passes (A001 domain-safety,
   A002 determinism, A003 hot-path allocation, A004 matrix
   representation, A005 Obj.magic, A006 console output in lib/, A007
   missing .mli), subtracts inline suppressions
   [(* cloudia-lint: allow A00N reason *)], the allowlist and the
   committed baseline, prints the survivors and exits 1 if any remain.
   CI runs it from the repository root and uploads the --json report. *)

let default_roots = [ "lib"; "bin"; "bench" ]
let tool_dir = Filename.concat "tools" "analyzer"
let default_allow = Filename.concat tool_dir "allowlist"
let default_baseline = Filename.concat tool_dir "baseline"

let read_file path = In_channel.with_open_text path In_channel.input_all

let () =
  let root = ref "." in
  let allow_file = ref None in
  let baseline_file = ref None in
  let json_file = ref None in
  let update_baseline = ref false in
  let roots = ref [] in
  let args =
    [
      ("--root", Arg.Set_string root, "DIR repository root to scan from (default: cwd)");
      ( "--allow",
        Arg.String (fun f -> allow_file := Some f),
        Printf.sprintf
          "FILE allowlist of 'PASS path-prefix' lines (default: %s if present)"
          default_allow );
      ( "--baseline",
        Arg.String (fun f -> baseline_file := Some f),
        Printf.sprintf
          "FILE committed baseline of tolerated finding fingerprints (default: %s if present)"
          default_baseline );
      ( "--json",
        Arg.String (fun f -> json_file := Some f),
        "FILE also write the findings as a JSON diagnostic report" );
      ( "--update-baseline",
        Arg.Set update_baseline,
        Printf.sprintf " rewrite %s to cover the current findings and exit 0"
          default_baseline );
    ]
  in
  Arg.parse args (fun r -> roots := r :: !roots) "analyzer [options] [roots...]";
  let roots = if !roots = [] then default_roots else List.rev !roots in
  List.iter
    (fun r ->
      let dir = Filename.concat !root r in
      if not (Sys.file_exists dir && Sys.is_directory dir) then begin
        Printf.eprintf "analyzer: no directory %s\n" dir;
        exit 2
      end)
    roots;
  let files = Analysis.Analyzer.load_tree ~root:!root roots in
  let allow =
    let file =
      match !allow_file with
      | Some f -> Some f
      | None ->
          let f = Filename.concat !root default_allow in
          if Sys.file_exists f then Some f else None
    in
    match file with
    | Some f -> Analysis.Analyzer.parse_allowlist (read_file f)
    | None -> []
  in
  let baseline_path =
    match !baseline_file with
    | Some f -> f
    | None -> Filename.concat !root default_baseline
  in
  let baseline =
    if (not !update_baseline) && Sys.file_exists baseline_path then
      Analysis.Baseline.parse (read_file baseline_path)
    else Analysis.Baseline.empty
  in
  let report = Analysis.Analyzer.run ~allow ~baseline files in
  if !update_baseline then begin
    Out_channel.with_open_text baseline_path (fun oc ->
        Out_channel.output_string oc
          (Analysis.Baseline.render
             (Analysis.Baseline.of_findings report.Analysis.Analyzer.kept)));
    Printf.printf "analyzer: baselined %d finding(s) into %s\n"
      (List.length report.Analysis.Analyzer.kept)
      baseline_path;
    exit 0
  end;
  let diagnostics =
    List.map Analysis.Finding.to_diagnostic report.Analysis.Analyzer.kept
  in
  (match !json_file with
  | Some f ->
      Out_channel.with_open_text f (fun oc ->
          Out_channel.output_string oc (Lint.Diagnostic.to_json diagnostics);
          Out_channel.output_char oc '\n')
  | None -> ());
  Format.printf "%a" Lint.Diagnostic.render diagnostics;
  Printf.printf "analyzer: %d file(s), %d finding(s), %d suppressed\n"
    report.Analysis.Analyzer.files
    (List.length report.Analysis.Analyzer.kept)
    (List.length report.Analysis.Analyzer.suppressed);
  exit (if report.Analysis.Analyzer.kept = [] then 0 else 1)
