(** The pure-C# code-generation backend (§4), as an engine.

    Prepares a {!Plan} (fused closures over boxed values, the analogue of
    the in-memory-compiled C# [Executor] class), emits the corresponding
    C#-like listing, and reports plan-build time as the code-generation
    cost. Still bound to the managed data representation — the gap to the
    native engine is the gap §7 measures between "C# code" and "C code". *)

val engine : Lq_catalog.Engine_intf.t

val engine_with : Lq_plan.Options.t -> Lq_catalog.Engine_intf.t
(** Variant with specific codegen options, for the §2.3 ablations (e.g.
    aggregation fusion off): it lowers {!Lq_plan.Plan.to_ast} of the plan
    it is handed again, under [options]. The engine name carries the
    option string. *)
