open Lq_value

exception Unsupported of string

type prepared = {
  execute : params:(string * Value.t) list -> unit -> Value.t list;
      (** Must be safe to call from multiple Domains: the compiled-query
          cache hands one prepared plan to every concurrent caller. Engines
          whose plans close over mutable scratch state serialize executions
          with a per-plan lock (compiled plan, nplan, hybrid). *)
  codegen_ms : float;
  source : string option;
}

type caps = {
  needs_flat_sources : bool;
  supports_correlated : bool;
  supports_subqueries : bool;
  supports_group_no_selector : bool;
  supports_nested_paths : bool;
  supports_interning : bool;
  max_sources : int option;
  needs_min_construction : bool;
}

let caps_any =
  {
    needs_flat_sources = false;
    supports_correlated = true;
    supports_subqueries = true;
    supports_group_no_selector = true;
    supports_nested_paths = true;
    supports_interning = true;
    max_sources = None;
    needs_min_construction = false;
  }

type t = {
  name : string;
  describe : string;
  caps : caps;
  prepare :
    ?instr:Instr.t ->
    Catalog.t ->
    param_types:(string * Vtype.t) list ->
    Plan_ir.t ->
    prepared;
}

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

let codegen_failed fmt =
  Format.kasprintf
    (fun s -> raise (Lq_fault.Fault (Lq_fault.make ~stage:"prepare" Lq_fault.Codegen_error s)))
    fmt

let execution_failed fmt =
  Format.kasprintf
    (fun s -> raise (Lq_fault.Fault (Lq_fault.make ~stage:"execute" Lq_fault.Internal s)))
    fmt

(* Engine refusals are part of the fault taxonomy: anything that ends up
   stringifying exceptions (the service, chaos reports) sees a typed
   [Unsupported] fault instead of a raw exception name. *)
let () =
  Lq_fault.register_classifier (function
    | Unsupported msg -> Some (Lq_fault.make ~stage:"prepare" Lq_fault.Unsupported msg)
    | _ -> None)
