(** Facade: compile Datalog text into a query plan and bind data.

    This library is the language front-end only (Fig. 5's first box): it
    produces {!Qplan.Plan.t} values. Execution is the weaver's job —
    see [Weaver.Driver] — or {!reference} for a pure host evaluation. *)

module Ast = Ast
module Lexer = Lexer
module Parser = Parser
module Translate = Translate

type query = {
  program : Ast.program;
  plan : Qplan.Plan.t;
  base_names : string list;  (** EDB relation name per plan base index *)
  output_nodes : (string * int) list;  (** output name -> sink node id *)
}

val compile : string -> query
(** Parse and translate. Raises [Lexer.Lex_error], [Parser.Parse_error]
    or [Translate.Translate_error]. *)

val error_message : exn -> string option
(** One-line rendering of an exception raised by {!compile} (line number
    first when known); [None] for any other exception. *)

val bind :
  query -> (string * Relation_lib.Relation.t) list -> Relation_lib.Relation.t array
(** Order the named input relations as the plan's base array; checks
    names and schemas. Raises [Invalid_argument] on missing relations or
    schema mismatches. *)

val reference :
  query ->
  (string * Relation_lib.Relation.t) list ->
  (string * Relation_lib.Relation.t) list
(** Evaluate on the host oracle; returns the [.output] relations. *)

val outputs_of_sinks :
  query -> (int * Relation_lib.Relation.t) list -> (string * Relation_lib.Relation.t) list
(** Map a runner's sink results back to output names. *)
