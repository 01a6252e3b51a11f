let normalize path =
  let path =
    if String.starts_with ~prefix:"./" path then String.sub path 2 (String.length path - 2)
    else path
  in
  String.map (fun c -> if c = '\\' then '/' else c) path

let under prefixes path = List.exists (fun prefix -> String.starts_with ~prefix path) prefixes
