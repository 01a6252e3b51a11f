(* [Json] is this library's reference printer; the value type is Obs.Json's. *)
module J = Obs.Json

let fail fmt = Printf.ksprintf (fun m -> raise (Serve.Protocol.Protocol_error m)) fmt

let to_float = function
  | J.Num s -> (try float_of_string s with Failure _ -> fail "bad number %S" s)
  | _ -> fail "expected a number"

let of_json j =
  let entry = function
    | J.Null -> Float.nan
    | J.Num _ as v -> to_float v
    | _ -> fail "matrix entry must be a number or null"
  in
  match j with
  | J.Arr rows ->
      let n = List.length rows in
      let boxed =
        List.map
          (function
            | J.Arr cells ->
                if List.length cells <> n then fail "matrix must be square";
                Array.of_list (List.map entry cells)
            | _ -> fail "matrix row must be an array")
          rows
      in
      (try Lat_matrix.of_arrays (Array.of_list boxed)
       with Invalid_argument m -> fail "bad matrix: %s" m)
  | _ -> fail "costs must be an array of rows"

let to_json m =
  let cost c =
    if Float.is_finite c || Float.is_nan c then Json.of_float c
    else J.Num (if c > 0.0 then "1e999" else "-1e999")
  in
  let n = Lat_matrix.dim m in
  J.Arr (List.init n (fun i -> J.Arr (List.init n (fun j -> cost (Lat_matrix.get m i j)))))
