(** Parameter-insensitive query shapes — the compiled-query cache key.

    The paper's QueryCache identifies queries by their expression tree, and
    "supports reusing compiled code if the expression trees are essentially
    the same, but one or more parameters in the query differ" (§3). A shape
    is the canonicalized tree with every constant replaced by a typed hole;
    the constants themselves are extracted into a vector that can be rebound
    against a cached plan compiled from the same shape. *)

open Lq_value

val key : Ast.query -> string
(** Canonical textual shape (constants printed as typed placeholders);
    equal keys ⟺ cache-compatible queries. *)

val hash : Ast.query -> int

val consts : Ast.query -> Value.t list
(** The constants of the query in canonical (pre-order) traversal order. *)

val replace_consts : Ast.query -> Value.t list -> Ast.query
(** Rebinds the constant vector into the query, in the same traversal order
    as {!consts}. @raise Invalid_argument when the arity differs. *)

val parameterize : Ast.query -> Ast.query * (string * Value.t) list
(** Replaces each constant by a fresh [Param "__c<i>"] and returns the
    bindings — an alternative, fully explicit way to run a cached plan. *)

val holes : Ast.query -> Ast.query * (string * Value.t) list * string list
(** {!parameterize}, plus the names of the caller's own parameters the
    query references, each once, in first-occurrence order — every hole
    of the parameterized query is a constant's binding or one of these,
    found in the one traversal. *)

val compatible : Ast.query -> Ast.query -> bool
(** Whether two queries share a shape (identical up to constant values of
    the same type). *)
