type check =
  | File of (path:string -> Parsetree.structure -> Finding.t list)
  | Tree of (paths:string list -> Finding.t list)

type pass = {
  id : string;
  description : string;
  applies : string -> bool;
  check : check;
}

let passes : pass list ref = ref []

let register p =
  if List.exists (fun q -> q.id = p.id) !passes then
    invalid_arg (Printf.sprintf "Analysis.Registry.register: duplicate pass %s" p.id);
  passes := p :: !passes

let all () = List.sort (fun a b -> String.compare a.id b.id) !passes
let find id = List.find_opt (fun p -> p.id = id) !passes
