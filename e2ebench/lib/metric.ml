(* The metrics the benchmark prints, and its result line.

   These lists are the single source of the names: the harness prints
   exactly them (a run with a missing or extra value fails), and the unit
   tests check them against BENCHMARK.json. An untraced run prints the
   end-to-end metrics, a traced run the per-layer ones. *)

type better = Lower | Higher
type decl = { name : string; unit : string; better : better }

let d name unit better = { name; unit; better }

(* error_rate and wrong_rows are 0 on a healthy run, so they are not
   metrics: the result line carries them as [failed] and [correct]. *)
let end_to_end =
  [
    d "throughput_ops" "ops/s" Higher;
    d "latency_p50_ms" "ms" Lower;
    d "latency_p99_ms" "ms" Lower;
    d "setup_s" "s" Lower;
    d "heap_peak_mb" "MiB" Lower;
  ]

(* The engine sweep of the traced pass covers every registered engine
   but [sqlserver-native], which is [compiled-c] under a second name. *)
let sweep_engines =
  List.filter
    (fun (e : Lq_catalog.Engine_intf.t) -> not (String.equal e.name "sqlserver-native"))
    Lq_core.Engines.all

(* "hybrid-csharp-c[max,buffer]" -> "hybrid-csharp-c-max-buffer" *)
let slug name =
  String.concat ""
    (List.map
       (function '[' | ',' -> "-" | ']' -> "" | c -> String.make 1 c)
       (List.of_seq (String.to_seq name)))

let per_engine (e : Lq_catalog.Engine_intf.t) =
  let s = slug e.name in
  [
    d (Printf.sprintf "codegen.%s.p50_ms" s) "ms" Lower;
    d (Printf.sprintf "execute.%s.ms" s) "ms" Lower;
    d (Printf.sprintf "execute.%s.alloc_kw" s) "kw" Lower;
  ]

(* The ad-hoc engines that generate source; vectorwise interprets its
   plan and has none to measure. *)
let source_engines =
  List.filter
    (fun (e : Lq_catalog.Engine_intf.t) -> e != Lq_core.Engines.vectorwise)
    (Array.to_list Workload.adhoc_engines)

let source_kb (e : Lq_catalog.Engine_intf.t) = Printf.sprintf "codegen.%s.source_kb" (slug e.name)

let per_layer =
  [
    d "service.queue_p50_ms" "ms" Lower;
    d "service.queue_p99_ms" "ms" Lower;
    d "service.exec_p50_ms" "ms" Lower;
    d "service.degraded" "count" Lower;
    d "service.retried" "count" Lower;
    d "provider.plan_hit_ratio" "ratio" Higher;
    d "provider.plan_evictions" "count" Lower;
    d "provider.result_hit_ratio" "ratio" Higher;
    d "provider.result_invalidations" "count" Lower;
    d "provider.result_hit_p50_ms" "ms" Lower;
    d "provider.result_miss_p50_ms" "ms" Lower;
    d "optimizer.p50_ms" "ms" Lower;
    d "lower.p50_ms" "ms" Lower;
    d "codegen.miss_p50_ms" "ms" Lower;
    d "jit.promoted_ratio" "ratio" Higher;
    d "jit.compiles" "count" Lower;
    d "jit.cc_ms_mean" "ms" Lower;
    d "jit.validations" "count" Lower;
    d "jit.backlog_end" "count" Lower;
    d "execute.p50_ms" "ms" Lower;
    d "execute.alloc_kw_per_op" "kw" Lower;
    d "catalog.datagen_s" "s" Lower;
    d "catalog.force_s" "s" Lower;
    d "catalog.warm_s" "s" Lower;
    d "catalog.replace_p50_ms" "ms" Lower;
    d "gc.minor_per_op" "count" Lower;
    d "gc.major_per_op" "count" Lower;
    d "gc.promoted_kw_per_op" "kw" Lower;
    d "trace.replay_ops" "ops/s" Higher;
  ]
  @ List.map (fun e -> d (source_kb e) "KiB" Lower) source_engines
  @ List.concat_map per_engine sweep_engines

let declared ~trace = if trace then per_layer else end_to_end

let valid_name s =
  String.length s > 0
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

exception Bad_metrics of string

(* The last line of a run: one JSON object. Values print with 17
   significant digits, i.e. as measured. *)
let result_line ~trace ~correct ~attempted ~failed values =
  let decls = declared ~trace in
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun m -> String.equal m.name name) decls) then
        raise (Bad_metrics ("undeclared metric " ^ name)))
    values;
  let metric m =
    match List.assoc_opt m.name values with
    | None -> raise (Bad_metrics ("missing metric " ^ m.name))
    | Some v when not (Float.is_finite v) ->
      raise (Bad_metrics (Printf.sprintf "metric %s is %f" m.name v))
    | Some v -> Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} m.name v m.unit
  in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed
    (String.concat ", " (List.map metric decls))
