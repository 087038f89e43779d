open Relation_lib
module Ast = Ast
module Lexer = Lexer
module Parser = Parser
module Translate = Translate

type query = {
  program : Ast.program;
  plan : Qplan.Plan.t;
  base_names : string list;
  output_nodes : (string * int) list;
}

let compile src =
  let program = Parser.parse src in
  let { Translate.plan; base_names; output_nodes } =
    Translate.translate program
  in
  { program; plan; base_names; output_nodes }

let error_message e =
  let one_line s = String.map (function '\n' | '\r' -> ' ' | c -> c) s in
  match e with
  | Lexer.Lex_error { line; message } | Parser.Parse_error { line; message } ->
      Some (Printf.sprintf "line %d: %s" line (one_line message))
  | Translate.Translate_error message -> Some (one_line message)
  | _ -> None

let bind q named =
  Array.of_list
    (List.mapi
       (fun i name ->
         match List.assoc_opt name named with
         | None -> invalid_arg (Printf.sprintf "Datalog.bind: missing relation %s" name)
         | Some r ->
             if not (Schema.equal (Relation.schema r) (Qplan.Plan.base_schema q.plan i))
             then
               invalid_arg
                 (Printf.sprintf "Datalog.bind: schema mismatch for %s" name)
             else r)
       q.base_names)

let outputs_of_sinks q sinks =
  List.map
    (fun (name, id) ->
      match List.assoc_opt id sinks with
      | Some r -> (name, r)
      | None ->
          invalid_arg
            (Printf.sprintf "Datalog.outputs_of_sinks: output %s (node %d) missing"
               name id))
    q.output_nodes

let reference q named =
  let bases = bind q named in
  let results = Qplan.Reference.eval q.plan bases in
  List.map (fun (name, id) -> (name, results.(id))) q.output_nodes
