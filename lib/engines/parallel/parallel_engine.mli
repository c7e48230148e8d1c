(** Parallel native execution (extension).

    §4 of the paper notes that its generated code is amenable to "existing
    parallelisation strategies [5, 21]" but leaves parallel execution out
    of scope. This backend implements the classic strategy over the §5
    native plans using OCaml 5 domains:

    - the source scan (plus its fused filters/projections) is cut into
      small fixed-size work units (morsels: the [LQ_MORSEL_SIZE] knob,
      clamped so small tables still fan out) that worker Domains pull
      from a shared atomic counter, each Domain running an independent
      compiled plan over the shared flat store — a Domain that drew
      cheap rows simply pulls more units, so one slow partition does not
      gate the query;
    - a grouped aggregation is decomposed into per-domain partial
      accumulators ([Avg] splits into sum+count) that are merged on the
      coordinating domain, preserving first-occurrence group order;
    - whatever sits above the aggregation (sorting, take) runs sequentially
      on the merged groups.

    Results are reassembled in morsel order — byte-identical to a
    sequential scan whatever the Domain count. Every morsel is a
    typed-fault / cancellation checkpoint (chaos point
    ["parallel/morsel"]) and records a [Morsel] trace span under its
    worker's [Partition] span.

    Restrictions: single-source pipelines with at most one grouping — no
    joins, sub-queries or runtime string interning ([Lower]/[Upper]) —
    and float aggregates may differ from sequential results in the last
    bits (partial sums are combined in a different order; the morsel
    combination order itself is deterministic). *)

val engine : Lq_catalog.Engine_intf.t

val engine_with : domains:int -> Lq_catalog.Engine_intf.t
(** Fixed worker count (the default uses
    [Domain.recommended_domain_count], capped at 8), named
    ["compiled-c-parallel[<domains>]"]. *)

val counters : Lq_metrics.Counters.t
(** Process-global scheduler counters ([parallel/morsels],
    [parallel/executions]), surfaced by [Provider.report]. *)

val default_morsel_size : int
