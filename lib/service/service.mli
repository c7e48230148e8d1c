(** The query service: a shared provider behind an admission-controlled
    queue drained by a supervised pool of worker Domains, with
    per-engine circuit breakers, transient-failure retry and a
    per-request resource governor.

    {v
    submit ──▶ admission control ──▶ bounded priority queue
                    │ (full: typed Overloaded, no silent drop)
                    ▼
            N worker Domains (supervised: crash ⇒ typed failure + respawn)
                    │
                    ▼ breaker admit?  ── open: fast-fail, skip codegen ──┐
            front end (built once per request, then reused)         │
            capability check ── refused: no codegen ───────────────▶│
            Provider.run under governor budget, deadline checkpoints    │
                    │ Transient: retry with jittered backoff            │
                    │ engine fault ──────────────────────────────────▶  ▼
                    │                                     fallback engine
                    ▼                                     (degraded = true)
            response Future ◀── completed / timed-out / failed / shed
    v}

    One service instance is meant to be shared: the underlying
    {!Lq_core.Provider} caches (compiled plans, recycled results) are
    Domain-safe, so concurrent requests for the same query shape
    amortize code generation exactly as §7's compiled-query cache
    intends. *)

type config = {
  domains : int;
      (** worker pool size; [0] spawns no workers (requests queue but
          never run — used by admission tests) *)
  queue_capacity : int;  (** admission bound; beyond it, submissions are rejected *)
  default_deadline_ms : float option;
      (** applied to requests submitted without an explicit deadline *)
  fallback : Lq_catalog.Engine_intf.t option;
      (** degradation target when the preferred engine refuses or fails;
          [None] disables the ladder *)
  breaker : Lq_fault.Breaker.config option;
      (** per-engine circuit-breaker policy; [None] disables breakers *)
  max_retries : int;
      (** extra attempts (beyond the first) for {!Lq_fault.Transient}
          failures of a single engine *)
  retry_base_ms : float;  (** backoff floor per retry *)
  retry_cap_ms : float;
      (** backoff ceiling (decorrelated jitter between the two, always
          bounded by the request deadline) *)
  budget : Lq_fault.Governor.budget;
      (** per-request row/byte budget installed around every engine
          attempt; exceeding it fails the request
          {!Lq_fault.Resource_exhausted} with no fallback *)
  sampler : Lq_trace.Trace.Sampler.t option;
      (** head-sampler consulted at admission for requests submitted
          without an explicit [?trace]; [None] disables sampling (the
          off-path cost of every span point is then one atomic load) *)
}

val default_config : config
(** 4 Domains, 64-deep queue, no default deadline, fallback
    [linq-to-objects] (the always-correct interpreter baseline),
    default breakers, 2 retries with 1–50 ms backoff, unlimited
    budget, no trace sampling. *)

type t

type rejection =
  | Overloaded of {
      depth : int;
      capacity : int;
    }  (** load shed at admission: the queue was full *)
  | Shutting_down

val rejection_to_string : rejection -> string

val create : ?config:config -> Lq_core.Provider.t -> t
(** Spawns the worker Domains immediately. The provider may be (and
    usually is) shared with other users. *)

val provider : t -> Lq_core.Provider.t
val metrics : t -> Svc_metrics.t
val queue_depth : t -> int

val breaker_state : t -> engine:string -> Lq_fault.Breaker.state option
(** Current breaker state for an engine; [None] before the engine's
    first guarded attempt or when breakers are disabled. *)

val breaker_stats : t -> engine:string -> Lq_fault.Breaker.stats option

val submit :
  t ->
  ?label:string ->
  ?priority:Request.priority ->
  ?engine:Lq_catalog.Engine_intf.t ->
  ?params:(string * Lq_value.Value.t) list ->
  ?deadline_ms:float ->
  ?trace:bool ->
  Lq_expr.Ast.query ->
  (Request.response Future.t, rejection) result
(** Non-blocking: admission happens inline, execution on a worker.
    [engine] defaults to the config fallback (or [linq-to-objects]);
    [deadline_ms] is relative to now and overrides
    [default_deadline_ms]. Every call bumps [service/submitted]; an
    [Error] bumps [service/rejected] — the future of an [Ok] always
    resolves (worker crashes included), so accounting stays
    conserved.

    [trace] forces (or suppresses) a span tree for this request,
    overriding the config sampler; the finished trace comes back on the
    response. Every engine attempt is its own [Retry_attempt] subtree,
    so {!Request.phases} reads the per-phase breakdown of the attempt
    that completed the request, never a failed attempt's. *)

val run_sync :
  t ->
  ?label:string ->
  ?priority:Request.priority ->
  ?engine:Lq_catalog.Engine_intf.t ->
  ?params:(string * Lq_value.Value.t) list ->
  ?deadline_ms:float ->
  ?trace:bool ->
  Lq_expr.Ast.query ->
  (Request.response, rejection) result
(** [submit] + [Future.await] — the synchronous client. *)

val shutdown : ?drain:bool -> t -> unit
(** Stops admission and joins the workers (including any respawned by
    supervision mid-join). With [drain] (default) the queue empties
    normally first; without it, still-queued requests are shed — their
    futures resolve with {!Request.Shed} and land in the shed
    accounting bucket. Idempotent. *)

val report : t -> string
(** Service metrics (counters, conservation equation, resilience
    counters, histograms), per-engine breaker states, then the
    provider's cache observability block. *)
