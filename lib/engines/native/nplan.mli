(** The native query plan (§5): tight loops over flat row stores.

    Compiles the expression tree into push-based segments whose inner loops
    read unboxed fields through monomorphic cursors — the execution
    behaviour of the paper's generated C:

    - source scans iterate the array-of-structs row store directly, no
      staging;
    - projections stay *pending* (computed field closures) until a blocking
      operator forces exactly one flat intermediate per segment;
    - joins build flat open-addressing tables keyed on integer images of
      the key columns and probe them in the enclosing loop;
    - grouping fuses all aggregates of the result selector into one pass,
      with accumulators in dense unboxed arrays indexed by group slot;
    - sorting extracts key columns into arrays and quicksorts an index
      array (§7.2);
    - results are boxed only as they are emitted ("return result").

    Restrictions, as in §5: sources must be flat tables, every intermediate
    must be flat and scalar-typed, sub-queries must be uncorrelated (the
    Hekaton-style refusal measured in Table 1 for Q2). *)

open Lq_value

type t

type external_source = {
  ext_store : Lq_storage.Rowstore.t;
      (** the staging buffer the native loops read (an unmanaged arena in
          the paper; a full materialization or a single recycled page) *)
  ext_drive : (int -> unit) -> unit;
      (** invoked once per execution: stages data and calls back with the
          store row index of each available row, in order — the buffered
          variant of §6.1.2 refills the store between callbacks *)
}

val compile :
  ?options:Lq_plan.Options.t ->
  ?trace:(int -> unit) ->
  ?override:(string -> external_source option) ->
  Lq_catalog.Catalog.t ->
  Lq_expr.Ast.query ->
  t
(** [override] redirects named sources to externally staged stores — the
    hybrid backend's bridge: the managed side filters, projects and stages;
    the native plan scans the staged rows.
    @raise Lq_catalog.Engine_intf.Unsupported for queries outside the
    native subset; @raise Lq_catalog.Catalog.Not_flat for non-flat source
    tables. *)

val compile_lowered :
  ?trace:(int -> unit) ->
  ?override:(string -> external_source option) ->
  Lq_catalog.Catalog.t ->
  Lq_plan.Plan.t ->
  t
(** [compile] on an already-lowered physical plan — lets callers that also
    feed the plan to another backend (the JIT's C emitter) lower once and
    share the result. Same exceptions as {!compile}. *)

val gkey_var : string
(** ["__gkey"] — the synthetic variable composite group keys bind to. *)

val rewrite_gkey : string -> Lq_expr.Ast.expr -> Lq_expr.Ast.expr
(** [rewrite_gkey gvar e]: [gvar.Key] references become [Var gkey_var],
    so group-result bodies compile against a key element binding.
    Shared with the C emitter so both backends rewrite identically. *)

val execute : t -> params:(string * Value.t) list -> unit -> Value.t list

val segments : t -> int
