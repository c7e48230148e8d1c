(** Service request and response types.

    A request packages everything a worker Domain needs: the query, the
    preferred engine, parameter bindings, an optional deadline and a
    scheduling priority. The response reports how the request fared —
    including whether the service *degraded* it onto the fallback engine
    — plus the queue-wait / execution / total latency split. *)

open Lq_value

type priority =
  | Interactive  (** drained before any [Batch] work *)
  | Batch

val priority_to_string : priority -> string

type t = {
  id : int;  (** unique per service, assigned at submission *)
  label : string;  (** free-form tag for reports (e.g. the query name) *)
  query : Lq_expr.Ast.query;
  engine : Lq_catalog.Engine_intf.t;
  params : (string * Value.t) list;
  deadline : Deadline.t option;
  priority : priority;
  enqueued_ms : float;  (** {!Lq_metrics.Profile.now_ms} at admission *)
  trace : Lq_trace.Trace.t option;
      (** span tree opened at admission for sampled requests; the worker
          installs it as the ambient context for the whole journey *)
}

type outcome =
  | Completed of {
      rows : Value.t list;
      engine : string;  (** engine that actually ran it *)
      degraded : bool;  (** true when the fallback engine answered *)
    }
  | Timed_out of { stage : string }
      (** deadline fired at this pipeline stage ("queued" = never left
          the queue) *)
  | Shed of { reason : string }
      (** dropped un-run by a non-draining shutdown — its own accounting
          bucket, never a silent drop *)
  | Failed of { engine : string; fault : Lq_fault.t }
      (** terminal typed failure: the preferred engine (and the fallback,
          when one applied) refused or blew up; [fault] says how *)

type response = {
  request_id : int;
  label : string;
  outcome : outcome;
  queue_ms : float;  (** admission → worker pickup *)
  exec_ms : float;  (** worker pickup → outcome *)
  total_ms : float;  (** admission → outcome *)
  trace : Lq_trace.Trace.t option;  (** the finished span tree, when sampled *)
}

val outcome_kind : outcome -> string
(** ["completed"] / ["timed-out"] / ["shed"] / ["failed"] — the counter
    family bucket the outcome lands in. *)

val phases : response -> (string * float) list
(** The per-phase breakdown of the engine attempt that completed the
    request: {!Lq_trace.Trace.phases} under the last [Retry_attempt] span
    of a [Completed], traced response. Failed attempts are separate
    subtrees, so their phases are never counted. [[]] for any other
    response. *)

val response_to_string : response -> string
