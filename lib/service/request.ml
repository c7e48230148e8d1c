open Lq_value

type priority =
  | Interactive
  | Batch

let priority_to_string = function
  | Interactive -> "interactive"
  | Batch -> "batch"

type t = {
  id : int;
  label : string;
  query : Lq_expr.Ast.query;
  engine : Lq_catalog.Engine_intf.t;
  params : (string * Value.t) list;
  deadline : Deadline.t option;
  priority : priority;
  enqueued_ms : float;
  trace : Lq_trace.Trace.t option;
}

type outcome =
  | Completed of {
      rows : Value.t list;
      engine : string;
      degraded : bool;
    }
  | Timed_out of { stage : string }
  | Shed of { reason : string }
  | Failed of {
      engine : string;
      fault : Lq_fault.t;
    }

type response = {
  request_id : int;
  label : string;
  outcome : outcome;
  queue_ms : float;
  exec_ms : float;
  total_ms : float;
  trace : Lq_trace.Trace.t option;
}

let outcome_kind = function
  | Completed _ -> "completed"
  | Timed_out _ -> "timed-out"
  | Shed _ -> "shed"
  | Failed _ -> "failed"

(* Attempts run one after another, so the completing one started last. *)
let phases r =
  match (r.outcome, r.trace) with
  | Completed _, Some tr -> (
    let module Trace = Lq_trace.Trace in
    match
      List.rev
        (List.filter (fun (sp : Trace.span) -> sp.kind = Trace.Retry_attempt) (Trace.spans tr))
    with
    | last :: _ -> Trace.phases ~under:last tr
    | [] -> [])
  | _ -> []

let response_to_string r =
  let detail =
    match r.outcome with
    | Completed { rows; engine; degraded } ->
      Printf.sprintf "%d row(s) via %s%s" (List.length rows) engine
        (if degraded then " (degraded)" else "")
    | Timed_out { stage } -> Printf.sprintf "deadline fired at %s" stage
    | Shed { reason } -> Printf.sprintf "shed: %s" reason
    | Failed { engine; fault } ->
      Printf.sprintf "failed on %s: %s" engine (Lq_fault.to_string fault)
  in
  Printf.sprintf "#%d %-12s %-9s queue %.2fms exec %.2fms total %.2fms  %s" r.request_id
    r.label (outcome_kind r.outcome) r.queue_ms r.exec_ms r.total_ms detail
