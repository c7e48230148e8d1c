(** The data catalog: named collections in both managed and native form.

    §3 of the paper wraps application collections ([List<T>]) in queryable
    collections ([QList<T>]) so its query provider sees them. The catalog
    is that wrapping: a table is registered once as boxed rows (the
    "application objects") and lazily exposes

    - a boxed array (the managed engines' input),
    - a flat {!Lq_storage.Rowstore} (the "array of structs" §5 requires —
      only available when the schema is flat),
    - a {!Lq_storage.Colstore} (the vectorized stand-in's input),
    - modelled heap addresses for instrumented runs.

    All tables of a catalog share one string dictionary.

    The derived stores materialize on first access, and that first
    access is Domain-safe: a per-table mutex serializes the initial
    forcing (concurrent [Lazy.force] from two Domains raises), so a cold
    table may be hit by many service workers at once. Registration
    ([add]/[replace]/[remove]) is not synchronized — populate the
    catalog before sharing it. *)

open Lq_value

exception Not_flat of string
(** Raised when the native engine asks for flat storage of a table whose
    schema contains nested records or lists (the §5 restriction). *)

type table

type t

val create : unit -> t
val dict : t -> Lq_storage.Dict.t
val add : t -> name:string -> schema:Schema.t -> Value.t list -> unit
(** @raise Invalid_argument if the name is taken. *)

val replace : t -> name:string -> schema:Schema.t -> Value.t list -> unit
(** Replaces (or first registers) a table's contents and fires the
    invalidation hooks — the reload/mutation entry point. Cached results
    derived from the old contents must be dropped; the query provider
    subscribes via {!on_invalidate} to do so automatically. The hash
    indexes declared on the old version ({!create_index}) are rebuilt
    over the new rows, for every indexed column the new schema still
    has, before the hooks fire. *)

val remove : t -> string -> unit
(** Unregisters a table (no-op when absent) and fires the hooks. *)

val on_invalidate : t -> (string -> unit) -> unit -> unit
(** Registers a hook called with the table name whenever {!replace} or
    {!remove} mutates that table, and returns the function that removes
    it. Hooks run synchronously on the mutating thread and must be cheap
    and exception-free. Domains may subscribe and unsubscribe
    concurrently. The catalog keeps what a hook captures alive until it
    is removed. *)

val table : t -> string -> table
(** @raise Lq_expr.Eval.Unbound_source for unknown names. *)

val names : t -> string list

val schema : table -> Schema.t
val name : table -> string
val rows : table -> Value.t list
val boxed : table -> Value.t array
val row_count : table -> int
(** O(1): counted once when the table is built ({!add}/{!replace}), so
    plan lowering reads it without touching the rows. *)

val is_flat : table -> bool
val store : table -> Lq_storage.Rowstore.t
(** @raise Not_flat when the schema is nested. *)

val cols : table -> Lq_storage.Colstore.t
(** @raise Not_flat likewise. *)

val column_encodings : table -> (string * string) list
(** [(field, encoding)] of the columnar decomposition in layout order
    (encodings: plain / dict8 / dict16 / rle). Forces {!cols}.
    @raise Not_flat likewise. *)

val heap_addrs : table -> int array
(** Modelled heap base address of each boxed row (allocated on first use,
    in row order). *)

(* Hash indexes (§9 "introduction of structures such as indexes"): an
   equality index over one integer-family column of a flat table, usable
   by the native backend for point predicates. *)

val create_index : t -> table:string -> column:string -> unit
(** Builds (idempotently) a hash index on [column] of [table].
    @raise Not_flat on non-flat tables;
    @raise Invalid_argument for float columns. *)

val index : table -> string -> Lq_exec.Int_table.Multi.t option
(** The index over a column, if one was created; payloads are row numbers
    of the flat store, in ascending order. *)

val indexed_columns : table -> string list

val eval_ctx : t -> params:(string * Value.t) list -> Lq_expr.Eval.ctx
(** Context for the reference interpreter over this catalog. *)

val tenv : t -> params:(string * Vtype.t) list -> Lq_expr.Typecheck.tenv
(** Typing environment: sources resolve to their element types, and
    [params] type the bound parameters. *)
