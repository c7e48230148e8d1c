(** Workload generator: drives a {!Service.t} with closed- or open-loop
    traffic and reports latency / throughput / degradation.

    Workload items are engine-agnostic descriptions — a label, a query,
    a per-request parameter generator (so repeated arrivals exercise the
    compiled-plan cache with fresh bindings), an optional engine
    preference and a priority. TPC-H specifics live with the callers
    (see {!Lq_tpch.Workloads.service_mix}); this module only shapes the
    arrivals:

    - {e closed loop}: [clients] Domains each submit-and-await
      back-to-back — throughput is capacity-bound, the queue stays
      shallow.
    - {e open loop}: requests arrive on a Poisson process at
      [rate_per_s] regardless of completions — push the rate past
      service capacity and the admission queue fills, making the
      service shed load with typed rejections. *)

open Lq_value

type item = {
  label : string;
  query : Lq_expr.Ast.query;
  engine : Lq_catalog.Engine_intf.t option;  (** [None]: service default *)
  params_of : int -> (string * Value.t) list;
      (** bindings for the [i]-th request of this item; cycling a small
          set of vectors yields repeated parameterized executions — the
          cache-amortization scenario of §7 *)
  priority : Request.priority;
}

val item :
  ?engine:Lq_catalog.Engine_intf.t ->
  ?priority:Request.priority ->
  ?params_of:(int -> (string * Value.t) list) ->
  string ->
  Lq_expr.Ast.query ->
  item
(** [item label query] with no parameters, batch priority. *)

type arrival =
  | Closed of {
      clients : int;
      requests_per_client : int;
    }
  | Open of {
      rate_per_s : float;
      total : int;
    }

type report = {
  wall_ms : float;
  submitted : int;
  rejected : int;  (** typed rejections observed at submission *)
  completed : int;
  degraded : int;  (** completions answered by the fallback engine *)
  timed_out : int;
  shed : int;
  failed : int;
  throughput_per_s : float;  (** completions per wall-clock second *)
  latency : Lq_metrics.Histogram.t;
      (** client-observed total latency of every resolved request, timed
          from when it was due: in an open loop, a request the submitter
          sent late counts its lateness too *)
  max_lateness_ms : float;
      (** the open-loop submitter's largest delay behind its Poisson
          schedule ([0.] for a closed loop, which has no schedule) *)
}

val conserved : report -> bool
(** [submitted = completed + rejected + shed + timed_out + failed] from
    the client's vantage point. *)

val run :
  ?seed:int -> ?deadline_ms:float -> workload:item array -> arrival -> Service.t -> report
(** Generates the traffic and blocks until every submitted request has
    resolved. [deadline_ms] is attached to each request. The service is
    left running — callers decide when to {!Service.shutdown}. *)

val to_string : report -> string
(** The latency/throughput/degradation block. Drivers typically print
    this followed by {!Service.report} so cache hit rates appear
    alongside. *)
