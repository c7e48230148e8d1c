(** Tiering: per-prepared-plan execution state and the background
    compile worker.

    Each prepared plan carries a {!t} in an [Atomic.t]. It starts
    [Interpreted]; a finished [cc] run parks the artifact at [Pending];
    the first execution to CAS [Pending → Validating] owns the sandboxed
    validation ({!Validate}) and, on a pass, swaps the slot to [Jit] —
    subsequent executions take the native path, in-flight interpreted
    executions are unaffected (every transition is a single atomic
    operation on an immutable value). Executions that see [Pending] and
    lose the CAS, or see [Validating], serve interpreted and retry the
    slot next time. A failed compile {e or} failed validation parks the
    slot at [Failed] (sticky: the failure is deterministic, retrying
    would pay [cc] — or risk the process — again for the same answer).
    With validation disabled ([LQ_JIT_VALIDATE=off]) a compile promotes
    straight to [Jit], the pre-guard behavior. *)

type t =
  | Interpreted  (** serving from the interpreted native program *)
  | Pending of Backend.artifact
      (** compiled and loaded, awaiting sandboxed validation *)
  | Validating of Backend.artifact
      (** one execution claimed the validation; others serve interpreted *)
  | Jit of Backend.artifact  (** validated; serving from the dlopened object *)
  | Failed of string  (** compile/validation failed; interpreted permanently *)

val jit_enabled : unit -> bool
(** [false] when [LQ_JIT] is ["off"]/["0"]/["false"] — the engine then
    serves every shape interpreted and never spawns a compile. *)

val validate_enabled : unit -> bool
(** [false] when [LQ_JIT_VALIDATE] is ["off"]/["0"]/["false"] — artifacts
    then promote straight to [Jit] without the sandboxed first run. *)

val mode : unit -> [ `Async | `Sync ]
(** [`Sync] when [LQ_JIT_MODE=sync]: compile inside [prepare] and fail
    it (typed [Codegen_error]) if [cc] fails — the mode differential
    tests and the chaos ladder drive. Default [`Async]: [prepare]
    compiles nothing; a prepared plan's second execution queues its
    compile on the worker Domain, so a shape that never recurs never pays
    [cc]. The engine reads the mode once per prepare. *)

val submit : (unit -> unit) -> unit
(** Enqueues a job on the single process-wide compile worker Domain
    (spawned on first use, stopped and joined at exit; jobs still queued
    at exit are dropped). Jobs must not raise — exceptions are swallowed
    to keep the worker alive. *)
