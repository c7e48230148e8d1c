(** Static typing of expression trees.

    The paper's code generators recover the (static) types of the data
    flowing through the query from the expression tree / C# reflection and
    use them to lay out intermediate results and flat C structs. This module
    is the analogue: it assigns a {!Lq_value.Vtype.t} to every query and
    scalar expression, which the compiled, native and hybrid backends use to
    choose unboxed representations and to reject ill-typed queries before
    any code is generated. *)

open Lq_value

exception Type_error of string

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raises {!Type_error} with a formatted message. *)

type tenv = {
  source_type : string -> Vtype.t;  (** element type of a named source *)
  params : (string, Vtype.t) Hashtbl.t;
      (** parameter types: each bound parameter's, plus those the context
          rule has given so far *)
}

val tenv :
  ?source_type:(string -> Vtype.t) -> ?params:(string * Vtype.t) list -> unit -> tenv
(** [params] are the types of the bound parameters, each [Value.type_of]
    its binding. The default [source_type] raises {!Type_error}. *)

val expr_type : tenv -> env:(string * Vtype.t) list -> Ast.expr -> Vtype.t
(** Type of a scalar expression under lambda-variable typings [env].

    A parameter [tenv] does not type is typed by one context rule, and
    added to [tenv]: it takes the type of the operand it meets — the
    other side of an arithmetic operator or a comparison, the other
    branch of an [if], the argument type of a call, or [Int] as a
    [Take]/[Skip] count — also through a negation. A parameter that meets
    no typed operand (the sole operand of a selector, or beside another
    such parameter) is a {!Type_error}. *)

val query_type : tenv -> env:(string * Vtype.t) list -> Ast.query -> Vtype.t
(** Element type of a query's result. [env] types the correlation variables
    when the query is nested. *)

val param_types : tenv -> Ast.query -> (string * Vtype.t) list
(** The types [tenv] holds after typing the query: the bound parameters',
    plus those of the unbound ones the context rule reaches. A parameter
    it cannot reach, or one past a {!Type_error}, is left out. *)

val element_schema : tenv -> Ast.query -> Schema.t
(** Schema of the query's (record-typed) result elements.
    @raise Type_error if the element type is not a record. *)
