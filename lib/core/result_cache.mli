(** Query result recycling (§9 future work; cf. Nagel, Boncz & Viglas,
    "Recycling in pipelined query evaluation", ICDE 2013 — the paper's
    reference [15]).

    Where the {!Query_cache} amortizes *compilation* across parameter
    values, the result cache amortizes *execution* across identical
    invocations: a (shape, constants, parameters) triple maps to the
    materialized result rows.

    The store is a doubly-bounded LRU: by entry count and by total cached
    rows (the memory-cost driver); either bound at 0 disables the cache,
    negative removes that bound. A result larger than the row budget on
    its own is never admitted. Entries record the source tables they were
    computed from, and {!invalidate} drops exactly the entries depending
    on a mutated table — the provider wires this to
    {!Lq_catalog.Catalog.on_invalidate}, so reloading a table through the
    catalog automatically evicts its stale results.

    All operations are Domain-safe behind an internal mutex. *)

open Lq_value

type stats = {
  hits : int;
  misses : int;
  entries : int;
  cached_rows : int;  (** total rows held, the memory-cost driver *)
  evictions : int;  (** entries displaced by either capacity bound *)
  invalidations : int;  (** entries dropped by table invalidation *)
}

type t

val create : ?max_entries:int -> ?max_rows:int -> unit -> t
(** Defaults: 128 entries, 262144 cached rows. *)

val key :
  engine:string ->
  shape:string ->
  consts:Value.t list ->
  params:(string * Value.t) list ->
  string
(** Canonical cache key for one execution. Constants and parameter
    values are encoded exactly and with their type, so two executions
    share a key only when every value is identical. *)

val find : t -> string -> Value.t list option
(** Counts a hit or a miss on every call. *)

val store : t -> string -> ?tables:string list -> Value.t list -> unit
(** Admits the rows under both bounds, evicting LRU entries as needed.
    [tables] (default none) registers the entry for {!invalidate}. *)

val invalidate : t -> table:string -> unit
(** Drops every entry whose [tables] include the given table; entries
    over other tables are untouched. *)

val stats : t -> stats
val counters : t -> Lq_metrics.Counters.t
val clear : t -> unit
