module Ast = Lq_expr.Ast
module Shape = Lq_expr.Shape
module Catalog = Lq_catalog.Catalog
module Engine_intf = Lq_catalog.Engine_intf
module Trace = Lq_trace.Trace
module Value = Lq_value.Value
module Vtype = Lq_value.Vtype

type t = {
  cat : Catalog.t;
  cache : Query_cache.t;
  results : Result_cache.t option;
  optimizer : Optimizer.options;
  use_cache : bool;
}

let create ?(optimizer = Optimizer.default) ?(use_cache = true)
    ?(recycle_results = false) ?query_cache_entries ?admission
    ?result_cache_entries ?result_cache_rows cat =
  let results =
    if recycle_results then
      Some
        (Result_cache.create ?max_entries:result_cache_entries
           ?max_rows:result_cache_rows ())
    else None
  in
  let cache = Query_cache.create ?max_entries:query_cache_entries ?admission () in
  (* The catalog tells us which table changed; stale compiled plans and
     recycled results are dropped table-by-table, untouched tables keep
     their entries. The hook holds the caches, not the provider, so once
     the provider is unreachable its finaliser removes the hook and the
     caches go with it. (A weak reference would do the same, but a live
     ephemeron slows OCaml 5.1's major GC on every Domain.) *)
  let unsubscribe =
    Catalog.on_invalidate cat (fun table ->
        Query_cache.invalidate cache ~table;
        Option.iter (fun rc -> Result_cache.invalidate rc ~table) results)
  in
  let t = { cat; cache; results; optimizer; use_cache } in
  Gc.finalise (fun _ -> unsubscribe ()) t;
  t

let catalog t = t.cat
let cache_stats t = Query_cache.stats t.cache
let cache_counters t = Query_cache.counters t.cache
let clear_cache t = Query_cache.clear t.cache
let optimized t q = Optimizer.run ~options:t.optimizer q

(* The request front end: canonicalize + optimize, replace constants by
   parameters, lower to the shared physical plan, key it on the plan's
   shape and its holes' types. Its cost is set by the query's plan, not
   by the data: lowering reads only O(1) catalog statistics. A service
   request builds it once and every attempt, retry and fallback hop
   reuses it. [checkpoint] is called at each stage boundary with the
   stage just finished; raising from it aborts the pipeline (the service
   layer's cooperative deadline cancellation). *)
type front_end = {
  optimized : Ast.query;
  parameterized : Ast.query;
  bindings : (string * Value.t) list;
  hole_types : (string * Vtype.t option) list;
  shape : string;
  plan : Lq_plan.Plan.t;
  features : Lq_plan.Plan.features;
  notes : string list;
  tables : string list;
}

(* Anything unclassified escaping a pipeline stage before execution is a
   code-generation failure — structurally distinct from an execution
   failure, and the breaker/retry policy above treats them differently. *)
let classified stage f =
  try f () with
  | (Lq_fault.Fault _ | Engine_intf.Unsupported _) as e -> raise e
  | exn ->
    raise (Lq_fault.Fault (Lq_fault.classify ~stage ~default:Lq_fault.Codegen_error exn))

(* A hole's type is its binding's: a constant's, or the caller's value
   for a parameter of the query ([None] when the caller binds none). *)
let hole_types ~params bindings referenced =
  List.map (fun (name, v) -> (name, Value.type_of v)) bindings
  @ List.map
      (fun name -> (name, Option.bind (List.assoc_opt name params) Value.type_of))
      referenced

(* The plan key carries the holes' types, so an [Int] and a [Float]
   binding of one hole never share a compiled plan (nor a recycled
   result). ["?"] marks a parameter with no binding. *)
let typed_key shape hole_types =
  let ty = function Some ty -> Vtype.to_string ty | None -> "?" in
  String.concat " " ((shape ^ "\nparams") :: List.map (fun (n, t) -> n ^ ":" ^ ty t) hole_types)

let front_end t ?(params = []) ?(checkpoint = fun _ -> ()) q =
  let q =
    Trace.with_span Trace.Optimize "optimize" (fun () ->
        Lq_fault.Inject.hit "provider/optimize";
        classified "optimize" (fun () -> optimized t q))
  in
  checkpoint "optimized";
  let parameterized, bindings, referenced = Shape.holes q in
  let hole_types = hole_types ~params bindings referenced in
  let plan =
    Trace.with_span Trace.Lower "lower" (fun () ->
        Lq_fault.Inject.hit "provider/lower";
        classified "lower" (fun () -> Lq_plan.Lower.lower t.cat parameterized))
  in
  checkpoint "planned";
  {
    optimized = q;
    parameterized;
    bindings;
    hole_types;
    shape = typed_key (Lq_plan.Plan.shape_key plan) hole_types;
    plan;
    features = Lq_plan.Plan.features plan;
    notes = Lq_plan.Decorrelate.notes_of_query q;
    tables = Ast.sources_of_query q;
  }

let supports front ~(engine : Engine_intf.t) =
  Lq_plan.Plan.check engine.Engine_intf.caps front.features

(* The typing a plan-cache miss prepares under. Only a parameter with no
   binding (a [prepare_only] caller's) needs the type checker: the
   context rule types it from the operand it meets. *)
let param_types t front =
  let bound =
    List.filter_map (fun (name, ty) -> Option.map (fun ty -> (name, ty)) ty) front.hole_types
  in
  if List.compare_lengths bound front.hole_types = 0 then bound
  else Lq_expr.Typecheck.param_types (Catalog.tenv t.cat ~params:bound) front.parameterized

(* Compiled plans always see parameters where the query had constants, so
   a cached plan can be re-run with new values. The engine's declared
   capabilities are checked against the plan *before* any code generation
   is paid, and a miss hands the engine the front end's plan: the query is
   lowered once per request. *)
let prepare_internal t ~(engine : Engine_intf.t) ?instr ?params ?(checkpoint = fun _ -> ())
    ?front q =
  let front = match front with Some f -> f | None -> front_end t ?params ~checkpoint q in
  (match supports front ~engine with
  | Ok () -> ()
  | Error msg -> raise (Engine_intf.Unsupported msg));
  let compile () =
    (* The codegen span lives inside the cache-lookup span, so a cache
       hit structurally cannot contain one — an invariant the trace test
       suite checks. *)
    Trace.with_span Trace.Codegen engine.Engine_intf.name (fun () ->
        Lq_fault.Inject.hit "provider/prepare";
        classified "prepare" (fun () ->
            engine.Engine_intf.prepare ?instr t.cat ~param_types:(param_types t front)
              front.plan))
  in
  let prepared, outcome =
    if t.use_cache && instr = None then
      Trace.with_span Trace.Cache_lookup "query-cache" (fun () ->
          let prepared, outcome =
            Query_cache.find_or_compile t.cache ~engine:engine.Engine_intf.name
              ~shape:front.shape ~tables:front.tables ~compile ()
          in
          Trace.span_attr "outcome" (match outcome with `Hit -> "hit" | `Miss -> "miss");
          (prepared, outcome))
    else (compile (), `Miss)
  in
  checkpoint "prepared";
  (prepared, outcome, front)

let plan_check t ~engine q = supports (front_end t q) ~engine

(* [explain] lowers the *unparameterized* query so the rendering shows
   real constants (and the row estimates they imply); the verdict is
   constant-blind. *)
let explain t ~engine q =
  let front = front_end t q in
  ( Lq_plan.Plan.explain ~notes:front.notes (Lq_plan.Lower.lower t.cat front.optimized),
    supports front ~engine )

let prepare_only t ~engine q =
  let prepared, outcome, _ = prepare_internal t ~engine q in
  (prepared, outcome)

let run t ~engine ?(params = []) ?checkpoint ?front q =
  let prepared, _, front = prepare_internal t ~engine ~params ?checkpoint ?front q in
  let all_params = params @ front.bindings in
  let execute () =
    Trace.with_span Trace.Execute engine.Engine_intf.name (fun () ->
        Lq_fault.Inject.hit "provider/execute";
        let rows =
          try prepared.Engine_intf.execute ~params:all_params () with
          | (Lq_fault.Fault _ | Engine_intf.Unsupported _) as e -> raise e
          | exn ->
            raise
              (Lq_fault.Fault
                 (Lq_fault.classify ~stage:"execute" ~default:Lq_fault.Internal exn))
        in
        (* Materialized result rows count against the ambient per-request
           budget: a runaway result yields a typed [Resource_exhausted]
           before it is copied into caches or response futures. *)
        Lq_fault.Governor.charge_rows ~stage:"materialize" (List.length rows);
        Trace.span_attr "rows" (string_of_int (List.length rows));
        rows)
  in
  match t.results with
  | None -> execute ()
  | Some rc -> (
    (* Result recycling (§9): identical invocations return the
       materialized rows without executing. *)
    Lq_fault.Inject.hit "cache/result";
    let key =
      Result_cache.key ~engine:engine.Engine_intf.name ~shape:front.shape
        ~consts:(List.map snd front.bindings) ~params
    in
    let cached =
      Trace.with_span Trace.Cache_lookup "result-cache" (fun () ->
          let found = Result_cache.find rc key in
          Trace.span_attr "outcome" (if Option.is_some found then "hit" else "miss");
          found)
    in
    match cached with
    | Some rows -> rows
    | None ->
      let rows = execute () in
      Result_cache.store rc key ~tables:front.tables rows;
      rows)

let result_cache_stats t = Option.map Result_cache.stats t.results

let clear_result_cache t = Option.iter Result_cache.clear t.results

let report t =
  let buf = Buffer.create 256 in
  let qstats = Query_cache.stats t.cache in
  Buffer.add_string buf
    (Printf.sprintf
       "query cache: %d entries, %d hit(s), %d miss(es), %d eviction(s), %d \
        rejected, %.2f ms compiling\n"
       qstats.Query_cache.entries qstats.Query_cache.hits qstats.Query_cache.misses
       qstats.Query_cache.evictions qstats.Query_cache.rejected
       qstats.Query_cache.compile_ms);
  (match t.results with
  | None -> ()
  | Some rc ->
    let rstats = Result_cache.stats rc in
    Buffer.add_string buf
      (Printf.sprintf
         "result cache: %d entries (%d rows), %d hit(s), %d miss(es), %d \
          eviction(s), %d invalidated\n"
         rstats.Result_cache.entries rstats.Result_cache.cached_rows
         rstats.Result_cache.hits rstats.Result_cache.misses
         rstats.Result_cache.evictions rstats.Result_cache.invalidations));
  Buffer.add_string buf (Lq_metrics.Counters.to_string (Query_cache.counters t.cache));
  (* Tier counters of the native JIT (compiles, cache hits, per-tier
     executions) — process-global, one block for all providers. *)
  (match Lq_metrics.Counters.to_string Lq_jit.Backend.counters with
  | "" -> ()
  | jit ->
    if Buffer.length buf > 0 && Buffer.nth buf (Buffer.length buf - 1) <> '\n' then
      Buffer.add_char buf '\n';
    Buffer.add_string buf jit);
  (* Morsel-scheduler counters of the parallel engine (work units run,
     executions) — process-global, one block for all providers. *)
  (match Lq_metrics.Counters.to_string Lq_parallel.Parallel_engine.counters with
  | "" -> ()
  | par ->
    if Buffer.length buf > 0 && Buffer.nth buf (Buffer.length buf - 1) <> '\n' then
      Buffer.add_char buf '\n';
    Buffer.add_string buf par);
  (match Trace.Ring.report Trace.slow_log with
  | "" -> ()
  | slow ->
    if Buffer.length buf > 0 && Buffer.nth buf (Buffer.length buf - 1) <> '\n' then
      Buffer.add_char buf '\n';
    Buffer.add_string buf slow);
  Buffer.contents buf

let run_instrumented t ~engine ?(params = []) hierarchy q =
  let instr = Lq_catalog.Instr.of_hierarchy hierarchy in
  let prepared, _, front = prepare_internal t ~engine ~instr ~params q in
  prepared.Engine_intf.execute ~params:(params @ front.bindings) ()

let reference t ?(params = []) q =
  Lq_expr.Eval.run (Catalog.eval_ctx t.cat ~params) q
