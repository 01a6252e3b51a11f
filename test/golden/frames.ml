(* Writes one wire frame to stdout, byte for byte as the daemon's codec
   sends it (4-byte length header included):

     frames.exe request MESH9.csv   an advise job on the mesh9 fixture
                                    under [mesh2d 3 3], with one NaN,
                                    +inf, -inf, -0.0 and subnormal cell
     frames.exe result MESH9.csv    a result reply for that job

   The golden rules in this directory diff both frames on every
   [dune runtest], so a codec change that moves one byte of the wire
   format fails there. *)

let costs path =
  match Cloudia.Matrix_io.load path with
  | Ok m -> m
  | Error (`Msg m) -> failwith m
  | Error (`Lint _) -> failwith "mesh9 fixture is ragged"

let graph = Graphs.Templates.mesh2d ~rows:3 ~cols:3

let request path =
  let costs = costs path in
  Lat_matrix.set costs 0 1 Float.nan;
  Lat_matrix.set costs 1 2 Float.infinity;
  Lat_matrix.set costs 2 3 Float.neg_infinity;
  Lat_matrix.set costs 3 4 (-0.0);
  Lat_matrix.set costs 4 5 (Int64.float_of_bits 1L);
  Serve.Protocol.Advise
    {
      id = "mesh9-golden";
      tenant = "golden";
      seed = 42;
      solver = Serve.Protocol.Anneal;
      objective = Cloudia.Cost.Longest_link;
      budget = 2.5;
      deadline = Some 30.0;
      max_moves = Some 1000;
      clusters = Some 4;
      graph;
      costs;
    }

let result path =
  let costs = costs path in
  let p = Cloudia.Types.of_matrix ~graph costs in
  let plan = Array.init 9 (fun i -> 8 - i) in
  Serve.Protocol.Result
    {
      r_id = "mesh9-golden";
      r_plan = plan;
      r_cost = Cloudia.Cost.eval Cloudia.Cost.Longest_link p plan;
      r_cached = true;
      r_warm = false;
      r_fingerprint = Lat_matrix.fingerprint_hex costs;
      r_latency_ms = 0.1;
    }

let () =
  match Sys.argv with
  | [| _; "request"; path |] -> Serve.Protocol.send_request Unix.stdout (request path)
  | [| _; "result"; path |] -> Serve.Protocol.send_reply Unix.stdout (result path)
  | _ ->
      prerr_endline "usage: frames.exe (request|result) MESH9.csv";
      exit 2
