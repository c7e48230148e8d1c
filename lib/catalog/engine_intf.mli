(** The common engine contract.

    Every execution strategy — the LINQ-to-objects baseline, the three
    code-generating backends of §§4–6 and the two DBMS stand-ins — is an
    {!t}: given a catalog and the lowered physical plan of a canonical,
    parameterized query ({!Plan_ir.t}, built once per plan-cache miss by
    the provider's front end) it *prepares* (generates and "compiles"
    code, the analogue of emitting and compiling C#/C source), and the
    prepared query executes any number of times under different parameter
    bindings (the cache-reuse story of §3). No engine lowers the query
    again. *)

open Lq_value

exception Unsupported of string
(** An engine may refuse a query it cannot compile — mirroring, e.g.,
    Hekaton rejecting TPC-H Q2's nested sub-query (§7.5). *)

type prepared = {
  execute : params:(string * Value.t) list -> unit -> Value.t list;
      (** Runs the compiled plan. Per-phase cost breakdowns (Figs.
          8/10/12) are read from the ambient trace's spans
          ({!Lq_trace.Trace.phases}). *)
  codegen_ms : float;  (** plan generation ("code generation") time *)
  source : string option;
      (** the generated C#-like / C-like source listing, when the backend
          emits one *)
}

type caps = {
  needs_flat_sources : bool;
      (** sources must be flat arrays of scalar-typed structs (§5) *)
  supports_correlated : bool;
      (** can evaluate correlated sub-queries (only the interpreted
          baselines can; Hekaton-style native rejects them, §7.5) *)
  supports_subqueries : bool;  (** can evaluate (uncorrelated) sub-plans *)
  supports_group_no_selector : bool;
      (** can materialize group values themselves (key + element list) *)
  supports_nested_paths : bool;
      (** tolerates member chains deeper than one field *)
  supports_interning : bool;
      (** tolerates string-producing calls ([Lower]/[Upper]) that would
          require cross-Domain interning *)
  max_sources : int option;  (** bound on the plan's scans, when limited *)
  needs_min_construction : bool;
      (** stages only keys and an index column, and rebuilds results from
          the source objects: results must be source elements or a plain
          join of them (the Min variant of §7.4, {!Lq_plan.Plan}'s
          [min_construction] rule) *)
}
(** What an engine's plan builder can compile, declared up front so the
    provider and the service can route around an engine *before* paying
    code generation (the capability check of the shared plan layer). A
    capability miss is a guaranteed [Unsupported]; a plan that passes
    every declared rule is not refused by [prepare] for those rules. *)

val caps_any : caps
(** The fully permissive capability set (the interpreted baseline). *)

type t = {
  name : string;
  describe : string;
  caps : caps;
  prepare :
    ?instr:Instr.t ->
    Catalog.t ->
    param_types:(string * Vtype.t) list ->
    Plan_ir.t ->
    prepared;
      (** Prepares the lowered plan ([Lq_plan.Lower.lower] of the
          parameterized query). [param_types] types the plan's
          parameters: each bound one as [Value.type_of] its binding, each
          unbound one by {!Lq_expr.Typecheck}'s context rule. Engines that
          compile to typed registers read it; the others ignore it. A
          prepared plan executes under bindings of these types. *)
}

val unsupported : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raises {!Unsupported} with a formatted message. *)

val codegen_failed : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raises a typed {!Lq_fault.Codegen_error} fault: plan building hit a
    condition that is a bug or an unforeseen shape, not a declared
    capability miss. *)

val execution_failed : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raises a typed {!Lq_fault.Internal} fault from a prepared plan's
    execution path. *)

(** Loading this module also registers an {!Lq_fault} classifier mapping
    {!Unsupported} to the [Unsupported] fault kind, so every layer above
    sees engine refusals typed. *)
