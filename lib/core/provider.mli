(** The query provider (§3, Fig. 3).

    The pipeline a query statement goes through when its result is first
    consumed:

    {v
    ConstantEvaluator → Optimizer → QueryCache lookup
        → (miss) parameterize constants, generate + compile code, cache
        → execute compiled code under the parameter bindings
    v}

    Engines are pluggable; the provider also exposes preparation alone
    (for code-generation-cost measurements) and instrumented execution
    (cache-simulated runs, Fig. 14). *)

open Lq_value

type t

val create :
  ?optimizer:Optimizer.options ->
  ?use_cache:bool ->
  ?recycle_results:bool ->
  ?query_cache_entries:int ->
  ?admission:Query_cache.admission ->
  ?result_cache_entries:int ->
  ?result_cache_rows:int ->
  Lq_catalog.Catalog.t ->
  t
(** [recycle_results] additionally memoizes materialized result rows per
    (engine, shape, constants, parameters) — the §9 "query result caching"
    extension. The provider subscribes to the catalog's invalidation
    hooks, so {!Lq_catalog.Catalog.replace}/[remove] automatically drop
    the recycled results of the mutated table.

    [query_cache_entries] bounds the compiled-plan LRU (0 disables it,
    negative unbounds it; default {!Query_cache.default_capacity}), and
    [admission] selects its eviction policy. [result_cache_entries] /
    [result_cache_rows] bound the result LRU by entry count and by total
    cached rows.

    A provider may be shared between Domains: both caches are
    mutex-guarded, and plan compilation happens outside the lock. *)

val catalog : t -> Lq_catalog.Catalog.t
val cache_stats : t -> Query_cache.stats
val clear_cache : t -> unit

val cache_counters : t -> Lq_metrics.Counters.t
(** The query cache's raw counters, including per-engine hit/miss and
    compile-time breakdowns. *)

val report : t -> string
(** Human-readable cache observability block: both caches' headline
    stats plus the per-engine counter listing. *)

val result_cache_stats : t -> Result_cache.stats option
(** [None] unless created with [~recycle_results:true]. *)

val clear_result_cache : t -> unit
(** Drops all recycled results. Mutations that go through
    {!Lq_catalog.Catalog.replace} invalidate automatically; this is the
    big hammer for out-of-band changes. *)

type front_end = private {
  optimized : Lq_expr.Ast.query;  (** after canonicalization and rewrites *)
  parameterized : Lq_expr.Ast.query;  (** every constant a [Param "__c<i>"] *)
  bindings : (string * Value.t) list;  (** ["__c<i>"] to its constant *)
  hole_types : (string * Vtype.t option) list;
      (** every hole of [parameterized] — the constants' ["__c<i>"], then
          the caller's parameters it references — with [Value.type_of]
          its binding; [None] when the caller binds none *)
  shape : string;
      (** the lowered plan's {!Lq_plan.Plan.shape_key}, then
          [hole_types]: the plan-cache and result-cache key *)
  plan : Lq_plan.Plan.t;
      (** [parameterized], lowered: what a plan-cache miss prepares from *)
  features : Lq_plan.Plan.features;  (** what the capability check reads *)
  notes : string list;  (** decorrelation notes; [[]] when nothing was rewritten *)
  tables : string list;  (** source tables, for cache invalidation *)
}
(** The request front end: everything between the submitted query and an
    engine that does not depend on the engine. Building it costs time set
    by the query's plan, not by the tables' sizes. *)

val front_end :
  t ->
  ?params:(string * Value.t) list ->
  ?checkpoint:(string -> unit) ->
  Lq_expr.Ast.query ->
  front_end
(** Optimize, parameterize, lower and key the query, under the
    ["provider/optimize"] and ["provider/lower"] injection points and
    their trace spans. [params] are the caller's bindings (default none):
    their types enter the key. Failures are raised as typed
    {!Lq_fault.Fault}s. [checkpoint] is invoked with ["optimized"], then
    ["planned"]. *)

val supports : front_end -> engine:Lq_catalog.Engine_intf.t -> (unit, string) result
(** The engine's capability verdict on the lowered plan: [Error reason]
    means preparation is guaranteed to raise
    {!Lq_catalog.Engine_intf.Unsupported}. *)

val param_types : t -> front_end -> (string * Vtype.t) list
(** The typing a plan-cache miss passes to the engine's [prepare]: every
    bound hole's type, and, only when some parameter has no binding,
    {!Lq_expr.Typecheck.param_types}' context rule for the rest. *)

val run :
  t ->
  engine:Lq_catalog.Engine_intf.t ->
  ?params:(string * Value.t) list ->
  ?checkpoint:(string -> unit) ->
  ?front:front_end ->
  Lq_expr.Ast.query ->
  Value.t list
(** Full pipeline: the front end, hit or fill the cache, execute.

    [front], when given, must be [front_end t ~params q] for this same
    query and bindings; the run then skips straight to the capability
    check and the caches. The service builds it once per request and
    passes it to every attempt.

    [checkpoint] (default: no-op) is invoked at each stage boundary with
    the stage just completed — ["optimized"], ["planned"], then
    ["prepared"] — before execution begins (the first two only when the
    run builds its own front end). Raising from it aborts the run; the
    service layer uses this for cooperative deadline cancellation between
    pipeline stages.

    @raise Lq_catalog.Engine_intf.Unsupported when the engine refuses the
    query. *)

val run_instrumented :
  t ->
  engine:Lq_catalog.Engine_intf.t ->
  ?params:(string * Value.t) list ->
  Lq_cachesim.Hierarchy.t ->
  Lq_expr.Ast.query ->
  Value.t list
(** Executes with the cache-simulation tracer installed (plans are
    prepared fresh, bypassing the query cache). *)

val prepare_only :
  t ->
  engine:Lq_catalog.Engine_intf.t ->
  Lq_expr.Ast.query ->
  Lq_catalog.Engine_intf.prepared * [ `Hit | `Miss ]
(** Preparation without execution, reporting cache behaviour. *)

val plan_check :
  t ->
  engine:Lq_catalog.Engine_intf.t ->
  Lq_expr.Ast.query ->
  (unit, string) result
(** [supports (front_end t q) ~engine]: the capability verdict with no
    code generation. *)

val explain :
  t ->
  engine:Lq_catalog.Engine_intf.t ->
  Lq_expr.Ast.query ->
  string * (unit, string) result
(** The rendered physical plan (after canonicalization, rewrites and
    shared lowering) plus the engine's capability verdict — the [lqcg
    explain] backend. *)

val reference : t -> ?params:(string * Value.t) list -> Lq_expr.Ast.query -> Value.t list
(** The reference interpreter's answer (the differential-testing oracle). *)

val optimized : t -> Lq_expr.Ast.query -> Lq_expr.Ast.query
(** The query after canonicalization and rewrites (for inspection). *)
