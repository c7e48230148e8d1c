(** Per-request span trees (end-to-end query tracing).

    The paper explains its results by decomposing runs into per-phase
    costs (Figs. 8, 10, 12: iterate / apply-predicates / data-staging /
    native-op / return-result). This module generalizes that breakdown
    from one engine run to one *request's* whole journey through the
    stack: queue wait → cache lookups → optimize → lower → codegen →
    execute (→ staging / native op for the hybrid) → retries, fallback
    hops and breaker events, as a tree of typed, timed spans.

    Spans are recorded through an ambient Domain-local context (like
    {!Lq_fault.Governor}'s budgets), so span points inside the provider
    and the engines cost one atomic load when no trace is live anywhere
    in the process, and attach to the installing request otherwise.
    Each Domain writing into a trace appends to its own buffer; the
    buffers are merged when the finished trace is read, so a
    parallel-engine query attributes partition spans to the right
    request. *)

type kind =
  | Request  (** the root: one per trace *)
  | Queue  (** admission → worker pickup *)
  | Cache_lookup  (** query-plan or result cache probe *)
  | Optimize
  | Lower
  | Codegen
  | Execute
  | Staging
      (** hybrid managed side, one span per phase and staged source:
          iterate, apply predicates, data staging (Figs. 8/10/12) *)
  | Native_op  (** hybrid offloaded operator time (Figs. 8/10/12) *)
  | Return_result  (** hybrid result construction (Figs. 8/10/12) *)
  | Retry_attempt  (** one engine attempt (attr ["n"] is the retry index) *)
  | Fallback_hop  (** one rung of the degradation ladder *)
  | Breaker_event  (** opened / reclosed / fast-fail, as instant spans *)
  | Partition  (** one parallel-engine partition Domain *)
  | Morsel  (** one morsel-sized work unit pulled by a worker Domain *)
  | Jit_compile  (** one native-JIT [cc] run (sync: in-request; async: standalone) *)
  | Jit_validate
      (** one sandboxed validation of a freshly compiled artifact (attr
          ["outcome"]: passed / crashed / timeout / divergent / error) *)

val kind_to_string : kind -> string
val all_kinds : kind list

type span = {
  id : int;  (** unique within the trace, allocation-ordered, root = 1 *)
  parent : int;  (** parent span id; 0 for the root *)
  kind : kind;
  name : string;
  start_ms : float;  (** trace-clock timestamp (monotonic by default) *)
  mutable dur_ms : float;  (** negative while open, >= 0 once closed *)
  mutable attrs : (string * string) list;
  domain : int;  (** Domain that recorded the span *)
}

type t

val start : ?clock:(unit -> float) -> ?label:string -> unit -> t
(** Opens a trace with its root {!Request} span. [clock] defaults to
    {!Lq_metrics.Profile.now_ms}; tests pass a synthetic clock for
    byte-stable exports. The trace counts against the global live
    gate until {!finish}. *)

val finish : t -> unit
(** Closes the root span and releases the live gate. Idempotent. *)

val is_finished : t -> bool
val label : t -> string
val trace_id : t -> int

val duration_ms : t -> float
(** Root-span duration; [0.] until {!finish}. *)

val spans : t -> span list
(** All spans (root included), merged across per-Domain buffers and
    sorted by start time then id. Call after {!finish} — or at least
    after every recording Domain has completed its request. *)

(** {1 Recording} *)

val with_trace : t -> (unit -> 'a) -> 'a
(** Installs [t] as this Domain's ambient trace (parent = root) for the
    duration of the thunk. *)

val with_span : ?attrs:(string * string) list -> kind -> string -> (unit -> 'a) -> 'a
(** Records a span around the thunk when a trace is ambient; runs the
    thunk untouched otherwise. The span is closed exactly once, even
    when the thunk raises. *)

val span_attr : string -> string -> unit
(** Attaches an attribute to the innermost open span, if any. *)

val event : ?attrs:(string * string) list -> kind -> string -> unit
(** Records an instant (zero-duration) span. *)

val add_span :
  ?attrs:(string * string) list -> kind -> string -> start_ms:float -> dur_ms:float -> unit
(** Records a manually-timed span under the current parent — for phases
    measured out-of-band, e.g. the hybrid engine's per-element staging
    timers, summed over a drive and recorded once. *)

val tracing : unit -> bool
(** True when a trace is ambient on this Domain (and any trace is live). *)

(** {1 Phase breakdown} *)

val phases : ?under:span -> t -> (string * float) list
(** The per-phase cost breakdown of a finished trace (Figs. 8/10/12).
    Every [Execute], [Staging], [Native_op] and [Return_result] span is a
    phase named after the span: each engine's [Execute] span (named after
    the engine) and the hybrid's split inside it. Same-named spans add
    up; pairs come in first-start order. Phases nest as their spans do,
    so they are not disjoint: the hybrid's phases lie inside its
    [Execute] phase. [under] restricts the fold to the subtree rooted at
    that span (e.g. the completing [Retry_attempt] of a service
    request). *)

type context

val current : unit -> context option
(** Captures the ambient context for hand-off to another Domain. *)

val with_context : context option -> (unit -> 'a) -> 'a
(** Re-installs a captured context (the receiving Domain gets its own
    span buffer). [None] runs the thunk untraced. *)

(** {1 Sampling} *)

module Sampler : sig
  type t

  val create : ?seed:int -> p:float -> unit -> t
  (** Deterministic splitmix64 head-sampler: each {!sample} costs one
      atomic step. [p] is clamped to [0,1]. *)

  val sample : t -> bool
  val probability : t -> float
end

(** {1 Slow-trace ring} *)

module Ring : sig
  type trace = t
  type t

  val create : ?capacity:int -> unit -> t
  (** Bounded ring keeping the [capacity] slowest traces seen (default 8). *)

  val note : t -> trace -> unit
  val slowest : t -> trace list
  (** Slowest first. *)

  val clear : t -> unit
  val capacity : t -> int
  val report : t -> string
  (** Human-readable slow-query log; [""] when empty. *)
end

val slow_log : Ring.t
(** The process-global slow-query log: every finished sampled trace is
    noted here by the service and [lqcg trace]; surfaced by
    [Provider.report]. *)
