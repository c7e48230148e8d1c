(** The typed loop IR under both native tiers (§5).

    [lower] turns one lowered [Lq_plan.Plan.t] into loops over flat row
    stores and makes every typing decision once: scalar types and numeric
    promotion, register allocation, group-key layout, the fused
    accumulator set, spill columns, sort-key orders, index probes,
    per-execution sub-query cells and externally staged sources (a
    parameter's type is given, never inferred here). The interpreted
    tier ({!Nplan}) compiles the result to closures; the JIT tier
    ({!Codegen_c}) prints it as C. Neither re-derives a type: both
    translate nodes, and only the hash-key image of a float stays
    backend-specific (two 32-bit halves in OCaml, one int64 in C).

    Its models are Dong & Kjolstad's loop IR for fused bag-semantics
    operators and Shaikhha et al.'s "write the engine once, specialize by
    generation" (PAPERS.md). *)

open Lq_value

(** The type of a scalar. [I] is an integer image tagged with the host
    type it decodes to: an Int, a day-count Date, a 0/1 Bool read from a
    column or a register, or a String dictionary code. [B] is a condition;
    [F] a double. *)
type ty = I of Vtype.t | F | B

(** An integer register of the program, in register order. *)
type reg =
  | Named of string  (** a query parameter, bound by name at execute *)
  | Str_const of string
      (** a string literal; its dictionary code is bound at execute —
          codes are process state and never enter generated code *)

type arith = Add | Sub | Mul | Div | Mod
type cmp = Eq | Ne | Lt | Le | Gt | Ge

(** How a comparison, a sort key or a min/max accumulator orders values.
    [By_string] decodes dictionary codes, which are not order-preserving;
    [Eq]/[Ne] under it compare the codes themselves. [By_int] orders
    integer images (a [B] operand as 0/1). *)
type order = By_int | By_float | By_bool | By_string

type expr = { ty : ty; node : node }

and node =
  | Int_lit of int  (** [I Int] or [I Date] *)
  | Bool_lit of bool
  | Float_lit of float
  | Reg of int  (** float register when [F]; else int register ([B]: nonzero) *)
  | Cell of int  (** per-execution value of an uncorrelated sub-query *)
  | Col of int * int  (** relation, column of the relation's current row *)
  | Key of int * int  (** group, key field of the current group *)
  | Acc of int * int  (** group, accumulator of the current group *)
  | To_float of expr  (** [I Int] promoted *)
  | To_bool of expr  (** [I Bool] as a condition *)
  | Neg of expr
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Arith of arith * expr * expr  (** [I Int] or [F]; operands of that type *)
  | Cmp of cmp * order * expr * expr
  | If of expr * expr * expr
  | Like of expr * string  (** subject, whole pattern (affixes applied) *)
  | Like_param of { subject : expr; pattern : expr; lead : bool; trail : bool }
      (** a runtime pattern; [lead]/[trail] add an implicit leading /
          trailing [%] (StartsWith, EndsWith, Contains) *)
  | Case of [ `Lower | `Upper ] * expr  (** re-interns the converted string *)
  | Length of expr
  | Abs of expr
  | Year of expr
  | Add_days of expr * expr

(** What a query variable or an operator's output is bound to: every
    column of a relation's current row, computed fields (a pending
    projection), or one scalar. *)
type elem = Row of int | Fields of (string * expr) list | Scalar of expr

type loop =
  | Scan of { rel : int; table : string; store : Lq_storage.Rowstore.t; staged : bool }
      (** [staged]: the caller stages [store] per execution and drives
          the rows ({!Nplan.compile}'s [drive]); otherwise every row of a
          catalog table *)
  | Filter of { input : loop; preds : expr list; probe : probe option }
      (** conjuncts in plan order (cheapest first) *)
  | Join of { left : loop; right : loop; lkey : expr list; rkey : expr list; build : spill }
      (** hash join: the right input is spilled and keyed, the left probes *)
  | Group of { id : int; input : loop; key : expr list; accs : acc array }
  | Sort of { input : loop; spill : spill; keys : sort_key list; limit : expr option }
      (** [limit]: the fused top-K bound *)
  | Limit of loop * expr
  | Offset of loop * expr
  | Distinct of loop * expr list

(** An indexed equality conjunct of a [Filter] directly over a catalog
    [Scan]: [key] is its closed side. The interpreter iterates the index
    matches (ascending row numbers, so row order is kept) and applies the
    other conjuncts; the C tier scans and applies them all. *)
and probe = { index : Lq_exec.Int_table.Multi.t; conjunct : int; key : expr }

(** The materialization point of a loop segment: the [cols] (fields of
    the input element, in order) written per input row into relation
    [rel], whose layout is [rels.(rel)]. *)
and spill = { rel : int; cols : expr list }

and acc =
  | Count
  | Sum of expr  (** [I Int] or [F] *)
  | Avg of expr  (** [F] *)
  | Min_max of { max : bool; arg : expr; order : order }

and sort_key = { by : expr; order : order; desc : bool }

type cell = { cell_ty : ty; eval : Lq_expr.Eval.ctx -> Value.t }

type t = private {
  cat : Lq_catalog.Catalog.t;
  root : loop;
  out : elem;  (** the result element, boxed or written per emitted row *)
  rels : Lq_storage.Layout.t array;  (** scanned stores and spills, by id *)
  int_regs : reg array;
  float_regs : string array;  (** parameter names *)
  cells : cell array;
}

val lower :
  ?staged:(string -> Lq_storage.Rowstore.t option) ->
  Lq_catalog.Catalog.t ->
  params:(string * Vtype.t) list ->
  Lq_plan.Plan.t ->
  t
(** [params] (the engine contract's [param_types]) types each parameter
    as a register and the sub-query cells. [staged] redirects named
    sources to externally staged stores.
    @raise Lq_catalog.Engine_intf.Unsupported for plans outside the
    native subset (nested data, correlated sub-queries, unfused groups,
    parameters [params] does not type...); @raise
    Lq_catalog.Catalog.Not_flat for non-flat source tables. *)

val fields : t -> elem -> (string * expr) list
(** The fields of an element; a [Scalar] is the single field ["__val"]. *)

val vty : ty -> Vtype.t
(** The host type a value of this type decodes to. *)

val int_image : Lq_storage.Dict.t -> Value.t -> int option
(** The integer image of a value: ints and dates as themselves, bools
    0/1, strings their dictionary code (interned). *)

val bind :
  t ->
  Lq_storage.Dict.t ->
  (string * Value.t) list ->
  int:(int -> int -> unit) ->
  float:(int -> float -> unit) ->
  unit
(** The one parameter binding of both tiers: calls [int k v] / [float k v]
    with the value of every register [k] for this execution's parameters
    (string literals and string parameters as dictionary codes).
    @raise Lq_fault.Fault ([Internal], stage execute) on a missing or
    ill-typed binding. *)
