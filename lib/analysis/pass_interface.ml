(* A007 — sealed interfaces: every lib/**/*.ml has a matching .mli. The
   successor of token rule R005. Interfaces are how the invariants the
   other passes protect stay local, so the check runs on the analyzed
   tree's path set, where the .mli files are visible. *)

let check ~paths =
  List.filter_map
    (fun path ->
      if Filename.check_suffix path ".ml" && not (List.mem (path ^ "i") paths) then
        Some
          (Finding.make ~pass:"A007" ~path ~line:0
             (Printf.sprintf "no interface file %si next to this library module"
                (Filename.basename path)))
      else None)
    paths
  |> Finding.sort

let pass =
  {
    Registry.id = "A007";
    description = "lib/**/*.ml without a matching .mli (successor of token rule R005)";
    applies = Repo_path.under [ "lib/" ];
    check = Tree check;
  }

let () = Registry.register pass
