(* End-to-end tracing: span-tree well-formedness (unit + qcheck over
   random span programs), the phase fold, the head-sampler and
   slow-trace ring, the Chrome trace_event exporter (byte-stable golden
   + standalone re-validation), per-engine differential invariants (one
   root, cache hits skip codegen, parallel partitions attribute to the
   right request), the service-level span shapes (queue wait, retry
   attempts vs the retry counter, fallback hops, the double-charge
   regression), and a 4-Domain storm asserting no cross-request span
   leakage. *)

open Lq_expr.Dsl
module Trace = Lq_trace.Trace
module Tree = Lq_trace.Tree
module Json = Lq_trace.Json
module Chrome = Lq_trace.Chrome
module Wellformed = Lq_trace.Wellformed
module Provider = Lq_core.Provider
module Engines = Lq_core.Engines
module Service = Lq_service.Service
module Request = Lq_service.Request
module Future = Lq_service.Future
module Svc_metrics = Lq_service.Svc_metrics

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let check_wf label tr =
  match Wellformed.check tr with
  | Ok () -> ()
  | Error problems ->
    Alcotest.failf "%s: ill-formed trace:\n  %s\n%s" label
      (String.concat "\n  " problems) (Tree.to_string tr)

let spans_of_kind k tr = List.filter (fun s -> s.Trace.kind = k) (Trace.spans tr)
let attr name (s : Trace.span) = List.assoc_opt name s.Trace.attrs

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* A controllable clock: every sample advances by [step]. *)
let ticker ?(step = 1.0) () =
  let t = ref 0.0 in
  fun () ->
    let v = !t in
    t := v +. step;
    v

(* ------------------------------------------------------------------ *)
(* The golden trace is built at module-load time, before any other test
   allocates a trace, so its trace_id (which the exporter embeds in
   args.trace) is stable run after run. *)

let golden_trace =
  let clock = ticker ~step:0.25 () in
  let tr = Trace.start ~clock ~label:"Q1" () in
  Trace.with_trace tr (fun () ->
      Trace.with_span Trace.Queue "queue" (fun () -> ());
      Trace.with_span
        ~attrs:[ ("engine", "hybrid-csharp-c[max]"); ("n", "0") ]
        Trace.Retry_attempt "attempt"
        (fun () ->
          Trace.with_span Trace.Optimize "optimize" (fun () -> ());
          Trace.with_span Trace.Lower "lower" (fun () -> ());
          Trace.with_span Trace.Cache_lookup "query-cache" (fun () ->
              Trace.span_attr "outcome" "miss";
              Trace.with_span Trace.Codegen "hybrid-csharp-c[max]" (fun () -> ()));
          Trace.with_span Trace.Execute "hybrid-csharp-c[max]" (fun () ->
              Trace.span_attr "rows" "4";
              Trace.with_span
                ~attrs:[ ("source", "lineitem") ]
                Trace.Staging "stage:lineitem#1"
                (fun () -> ());
              Trace.add_span Trace.Native_op "Aggregation (C)" ~start_ms:3.0
                ~dur_ms:0.25;
              Trace.add_span Trace.Return_result "return-result" ~start_ms:3.25
                ~dur_ms:0.25);
          Trace.event ~attrs:[ ("engine", "always-internal") ] Trace.Breaker_event
            "opened"));
  Trace.finish tr;
  tr

(* ------------------------------------------------------------------ *)
(* span-tree mechanics *)

let test_span_basics () =
  check_bool "off-path: no ambient trace" false (Trace.tracing ());
  (* span points without a trace are inert, not errors *)
  check_int "with_span runs the thunk untraced" 7
    (Trace.with_span Trace.Execute "nowhere" (fun () -> 7));
  Trace.span_attr "k" "v";
  Trace.event Trace.Breaker_event "nowhere";
  let clock = ticker () in
  let tr = Trace.start ~clock ~label:"basic" () in
  check_string "label" "basic" (Trace.label tr);
  check_bool "unfinished" false (Trace.is_finished tr);
  check_bool "duration 0 while open" true (Trace.duration_ms tr = 0.0);
  Trace.with_trace tr (fun () ->
      check_bool "ambient inside with_trace" true (Trace.tracing ());
      Trace.with_span Trace.Optimize "opt" (fun () ->
          Trace.span_attr "k" "v";
          Trace.with_span Trace.Codegen "gen" (fun () -> ()));
      Trace.event Trace.Breaker_event "opened";
      match Trace.with_span Trace.Execute "boom" (fun () -> failwith "planned") with
      | () -> Alcotest.fail "exception swallowed"
      | exception Failure _ -> ());
  Trace.finish tr;
  Trace.finish tr (* idempotent *);
  check_bool "finished" true (Trace.is_finished tr);
  check_bool "root duration positive" true (Trace.duration_ms tr > 0.0);
  check_wf "basic" tr;
  let spans = Trace.spans tr in
  check_int "root + 4 children" 5 (List.length spans);
  let root = List.hd spans in
  check_bool "root is the Request span" true
    (root.Trace.id = 1 && root.Trace.parent = 0 && root.Trace.kind = Trace.Request);
  let opt = List.find (fun s -> s.Trace.name = "opt") spans in
  let gen = List.find (fun s -> s.Trace.name = "gen") spans in
  let ev = List.find (fun s -> s.Trace.name = "opened") spans in
  let boom = List.find (fun s -> s.Trace.name = "boom") spans in
  check_bool "span_attr attached" true (attr "k" opt = Some "v");
  check_int "nesting recorded" opt.Trace.id gen.Trace.parent;
  check_int "event parents under the root" 1 ev.Trace.parent;
  check_bool "event is an instant span" true (ev.Trace.dur_ms = 0.0);
  check_bool "raising span still closed" true (boom.Trace.dur_ms >= 0.0);
  check_bool "all spans closed" true
    (List.for_all (fun s -> s.Trace.dur_ms >= 0.0) spans)

(* qcheck: any program of nested / sequential / failing spans yields a
   well-formed tree with exactly one span per executed node. *)
type prog = P of int * bool * prog list

let kinds = Array.of_list Trace.all_kinds

let gen_prog : prog list QCheck2.Gen.t =
  let open QCheck2.Gen in
  let node =
    fix (fun self n ->
        let* k = int_range 0 (Array.length kinds - 1) and* fails = bool in
        if n <= 0 then return (P (k, fails, []))
        else
          let* kids = list_size (int_range 0 3) (self (n / 2)) in
          return (P (k, fails, kids)))
  in
  list_size (int_range 0 5) (node 8)

let rec count_nodes (P (_, _, kids)) = 1 + List.fold_left (fun a p -> a + count_nodes p) 0 kids

exception Planned

let rec run_prog (P (k, fails, kids)) =
  match
    Trace.with_span kinds.(k)
      (Printf.sprintf "%s-node" (Trace.kind_to_string kinds.(k)))
      (fun () ->
        List.iter run_prog kids;
        if fails then raise Planned)
  with
  | () -> ()
  | exception Planned -> ()

let qcheck_wellformed =
  Lq_testkit.qtest ~count:300 "any span program yields a well-formed tree" gen_prog
    (fun progs ->
      let clock = ticker ~step:0.5 () in
      let tr = Trace.start ~clock ~label:"gen" () in
      Trace.with_trace tr (fun () -> List.iter run_prog progs);
      Trace.finish tr;
      let expected = 1 + List.fold_left (fun a p -> a + count_nodes p) 0 progs in
      (match Wellformed.check tr with
      | Ok () -> ()
      | Error problems ->
        QCheck2.Test.fail_reportf "ill-formed: %s" (String.concat "; " problems));
      if List.length (Trace.spans tr) <> expected then
        QCheck2.Test.fail_reportf "expected %d spans, got %d" expected
          (List.length (Trace.spans tr));
      true)

let test_sampler () =
  let never = Trace.Sampler.create ~p:0.0 () in
  let always = Trace.Sampler.create ~p:1.0 () in
  check_bool "p=0 never samples" false
    (List.exists Fun.id (List.init 500 (fun _ -> Trace.Sampler.sample never)));
  check_bool "p=1 always samples" true
    (List.for_all Fun.id (List.init 500 (fun _ -> Trace.Sampler.sample always)));
  check_bool "probability clamped" true
    (Trace.Sampler.probability (Trace.Sampler.create ~p:7.0 ()) = 1.0);
  let draw_stream seed =
    let s = Trace.Sampler.create ~seed ~p:0.3 () in
    List.init 1000 (fun _ -> Trace.Sampler.sample s)
  in
  let a = draw_stream 42 and b = draw_stream 42 in
  check_bool "same seed replays the same decisions" true (a = b);
  let hits = List.length (List.filter Fun.id a) in
  check_bool (Printf.sprintf "rate near p (%d/1000)" hits) true (hits > 220 && hits < 380)

let test_ring () =
  let mk dur =
    let first = ref true in
    let clock () = if !first then (first := false; 0.0) else dur in
    let tr = Trace.start ~clock ~label:(Printf.sprintf "d%.0f" dur) () in
    Trace.finish tr;
    tr
  in
  let ring = Trace.Ring.create ~capacity:3 () in
  check_int "capacity" 3 (Trace.Ring.capacity ring);
  List.iter (fun d -> Trace.Ring.note ring (mk d)) [ 5.0; 1.0; 9.0; 3.0; 7.0 ];
  Alcotest.(check (list string))
    "keeps the slowest, slowest first" [ "d9"; "d7"; "d5" ]
    (List.map Trace.label (Trace.Ring.slowest ring));
  check_bool "report mentions the slowest" true
    (let r = Trace.Ring.report ring in
     String.length r > 0);
  Trace.Ring.clear ring;
  check_bool "clear empties" true (Trace.Ring.slowest ring = []);
  check_string "empty report is empty" "" (Trace.Ring.report ring)

let test_tree_printer () =
  let s = Tree.to_string golden_trace in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "tree shows %S" needle) true (contains s needle))
    [ "Q1"; "queue"; "attempt"; "stage:lineitem#1"; "Aggregation (C)"; "└─" ]

(* The phase fold: phase-kind spans only, same names summed, first-start
   order, and [under] confined to one subtree. *)
let test_phase_fold () =
  let tr = Trace.start ~clock:(ticker ()) ~label:"fold" () in
  Trace.with_trace tr (fun () ->
      for n = 0 to 1 do
        Trace.with_span
          ~attrs:[ ("n", string_of_int n) ]
          Trace.Retry_attempt "attempt"
          (fun () ->
            Trace.with_span Trace.Optimize "optimize" (fun () -> ());
            Trace.with_span Trace.Execute "engine" (fun () ->
                Trace.with_span Trace.Staging "stage" (fun () -> ())))
      done);
  Trace.finish tr;
  let phases = Alcotest.(check (list (pair string (float 1e-9)))) in
  phases "whole trace" [ ("engine", 6.0); ("stage", 2.0) ] (Trace.phases tr);
  let last = List.nth (spans_of_kind Trace.Retry_attempt tr) 1 in
  phases "under the second attempt" [ ("engine", 3.0); ("stage", 1.0) ]
    (Trace.phases ~under:last tr)

(* ------------------------------------------------------------------ *)
(* Chrome exporter: byte-stable golden + standalone re-validation *)

(* dune runtest runs in the test build dir; dune exec from the root *)
let golden_path =
  if Sys.file_exists "golden/chrome_trace.json" then "golden/chrome_trace.json"
  else "test/golden/chrome_trace.json"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_chrome_golden () =
  let json = Chrome.to_json [ golden_trace ] in
  (match Sys.getenv_opt "LQ_TRACE_BLESS" with
  | Some dir ->
    let oc = open_out_bin (Filename.concat dir "chrome_trace.json") in
    output_string oc json;
    close_out oc
  | None -> ());
  (* the document must be valid JSON with one complete event per span *)
  (match Json.parse json with
  | Error e -> Alcotest.failf "exporter emitted unparseable JSON: %s" e
  | Ok doc -> (
    match Option.bind (Json.member "traceEvents" doc) Json.to_list with
    | None -> Alcotest.fail "no traceEvents array"
    | Some evs ->
      check_int "one event per span" (List.length (Trace.spans golden_trace))
        (List.length evs);
      List.iter
        (fun ev ->
          check_bool "every event is a complete event" true
            (Option.bind (Json.member "ph" ev) Json.to_str = Some "X"))
        evs));
  (* the standalone checker accepts its own export *)
  (match Wellformed.check_chrome_json json with
  | Ok n -> check_int "checker saw every event" (List.length (Trace.spans golden_trace)) n
  | Error problems ->
    Alcotest.failf "checker rejected the export: %s" (String.concat "; " problems));
  (* byte-for-byte stability against the checked-in golden file *)
  check_string "byte-stable vs golden file" (read_file golden_path) json

let test_chrome_checker_rejects () =
  (* move a child's ts far outside its parent: the checker must notice
     from the JSON alone *)
  let json = Chrome.to_json [ golden_trace ] in
  let corrupt_event = function
    | Json.Obj fields when List.assoc_opt "name" fields = Some (Json.Str "optimize") ->
      Json.Obj
        (List.map (fun (k, v) -> if k = "ts" then (k, Json.Int 99_999_999) else (k, v)) fields)
    | ev -> ev
  in
  let broken =
    match Json.parse json with
    | Ok (Json.Obj fields) ->
      Json.to_string
        (Json.Obj
           (List.map
              (fun (k, v) ->
                match (k, v) with
                | "traceEvents", Json.List evs -> (k, Json.List (List.map corrupt_event evs))
                | _ -> (k, v))
              fields))
    | _ -> Alcotest.fail "export did not parse as an object"
  in
  (match Wellformed.check_chrome_json broken with
  | Ok _ -> Alcotest.fail "checker accepted a span outside its parent"
  | Error _ -> ());
  match Wellformed.check_chrome_json "not json at all" with
  | Ok _ -> Alcotest.fail "checker accepted garbage"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* per-engine differential invariants through the provider *)

let q_paris = source "sales" |> where "s" (v "s" $. "city" =: str "Paris")

let traced_run prov ~engine q =
  let tr = Trace.start ~label:engine.Lq_catalog.Engine_intf.name () in
  let rows =
    Fun.protect
      ~finally:(fun () -> Trace.finish tr)
      (fun () -> Trace.with_trace tr (fun () -> Provider.run prov ~engine q))
  in
  (tr, rows)

let test_engine_invariants () =
  List.iter
    (fun engine ->
      let name = engine.Lq_catalog.Engine_intf.name in
      let cat = Lq_testkit.sales_catalog ~n:120 () in
      let prov = Provider.create cat in
      let oracle = Provider.reference prov q_paris in
      (* cold: the cache misses and codegen is paid (and traced) *)
      let cold, rows = traced_run prov ~engine q_paris in
      check_wf (name ^ " cold") cold;
      check_bool (name ^ ": rows match the oracle") true
        (Lq_testkit.rows_close oracle rows);
      check_int (name ^ ": exactly one root") 1
        (List.length (spans_of_kind Trace.Request cold));
      let execs = spans_of_kind Trace.Execute cold in
      check_bool (name ^ ": an execute span named after the engine") true
        (List.exists (fun s -> s.Trace.name = name) execs);
      check_bool (name ^ ": rows attr on execute") true
        (List.exists (fun s -> attr "rows" s <> None) execs);
      check_bool (name ^ ": cold run paid codegen") true
        (spans_of_kind Trace.Codegen cold <> []);
      let lookups = spans_of_kind Trace.Cache_lookup cold in
      check_bool (name ^ ": cold cache lookup was a miss") true
        (List.exists (fun s -> attr "outcome" s = Some "miss") lookups);
      (* warm: the hit skips codegen entirely *)
      let warm, rows' = traced_run prov ~engine q_paris in
      check_wf (name ^ " warm") warm;
      check_bool (name ^ ": warm rows match") true (Lq_testkit.rows_close oracle rows');
      check_int (name ^ ": cache hit has no codegen span") 0
        (List.length (spans_of_kind Trace.Codegen warm));
      check_bool (name ^ ": warm cache lookup was a hit") true
        (List.exists
           (fun s -> attr "outcome" s = Some "hit")
           (spans_of_kind Trace.Cache_lookup warm)))
    Engines.all

let test_parallel_partition_attribution () =
  let cat = Lq_testkit.sales_catalog ~n:300 () in
  let prov = Provider.create cat in
  let engine = Lq_parallel.Parallel_engine.engine_with ~domains:3 in
  let q = source "sales" |> where "s" (v "s" $. "qty" >: int 10) in
  let oracle = Provider.reference prov q in
  let tr, rows = traced_run prov ~engine q in
  check_wf "parallel" tr;
  check_bool "rows match the oracle" true (Lq_testkit.rows_close oracle rows);
  let parts = spans_of_kind Trace.Partition tr in
  check_bool
    (Printf.sprintf "multiple partition spans (%d)" (List.length parts))
    true
    (List.length parts >= 2);
  (* spawned partitions record the Domain that ran them: at least two
     distinct Domains contributed spans to this one trace *)
  let domains =
    List.sort_uniq compare (List.map (fun s -> s.Trace.domain) (Trace.spans tr))
  in
  check_bool "spans merged across Domains" true (List.length domains >= 2);
  (* and every partition nests under this trace's execute span *)
  let execs = spans_of_kind Trace.Execute tr in
  check_bool "partitions parent under the execute span" true
    (List.for_all
       (fun p ->
         List.exists (fun (e : Trace.span) -> p.Trace.parent = e.Trace.id) execs)
       parts)

(* ------------------------------------------------------------------ *)
(* service-level span shapes *)

let make_service ?(domains = 1) ?(config_patch = Fun.id) ?(n = 120) () =
  let cat = Lq_testkit.sales_catalog ~n () in
  let prov = Provider.create cat in
  let config =
    config_patch { Service.default_config with Service.domains; queue_capacity = 64 }
  in
  (prov, Service.create ~config prov)

let response_trace label (resp : Request.response) =
  match resp.Request.trace with
  | Some tr -> tr
  | None -> Alcotest.failf "%s: no trace on the response" label

let run_traced svc ?label ?engine q =
  match Service.run_sync svc ?label ?engine ~trace:true q with
  | Ok resp -> resp
  | Error r -> Alcotest.failf "admission failed: %s" (Service.rejection_to_string r)

let test_service_trace_shape () =
  let _, svc = make_service () in
  let resp = run_traced svc ~label:"paris" q_paris in
  let tr = response_trace "paris" resp in
  check_bool "trace finished before the future resolved" true (Trace.is_finished tr);
  check_wf "service trace" tr;
  check_string "root carries the request label" "paris"
    (List.hd (Trace.spans tr)).Trace.name;
  check_int "exactly one queue span" 1 (List.length (spans_of_kind Trace.Queue tr));
  let attempts = spans_of_kind Trace.Retry_attempt tr in
  check_int "one attempt" 1 (List.length attempts);
  let a = List.hd attempts in
  check_bool "attempt names its engine" true (attr "engine" a <> None);
  check_bool "first attempt is n=0" true (attr "n" a = Some "0");
  (* unsampled requests carry no trace and pay no spans *)
  (match Service.run_sync svc q_paris with
  | Ok resp -> check_bool "unsampled: no trace" true (resp.Request.trace = None)
  | Error _ -> Alcotest.fail "admission failed");
  Service.shutdown svc

let test_fallback_hop_spans () =
  let _, svc = make_service () in
  let always_unsupported =
    {
      Lq_catalog.Engine_intf.name = "always-unsupported";
      describe = "refuses everything";
      caps = Lq_catalog.Engine_intf.caps_any;
      prepare =
        (fun ?instr _ ~param_types:_ _ ->
          ignore instr;
          raise (Lq_catalog.Engine_intf.Unsupported "refused by construction"));
    }
  in
  let resp = run_traced svc ~engine:always_unsupported q_paris in
  (match resp.Request.outcome with
  | Request.Completed { degraded = true; engine = "linq-to-objects"; _ } -> ()
  | o -> Alcotest.failf "expected degraded completion, got %s" (Request.outcome_kind o));
  let tr = response_trace "fallback" resp in
  check_wf "fallback trace" tr;
  let hops = spans_of_kind Trace.Fallback_hop tr in
  check_int "exactly one fallback hop" 1 (List.length hops);
  let hop = List.hd hops in
  check_bool "hop names the fallback engine" true
    (attr "engine" hop = Some "linq-to-objects");
  check_bool "hop records why" true (attr "after" hop = Some "unsupported");
  (* the fallback's own attempt nests inside the hop *)
  let attempts = spans_of_kind Trace.Retry_attempt tr in
  check_bool "fallback attempt nests inside the hop" true
    (List.exists
       (fun a ->
         a.Trace.parent = hop.Trace.id && attr "engine" a = Some "linq-to-objects")
       attempts);
  (* unsupported engines are not retried: one attempt per ladder rung *)
  check_int "one attempt per rung" 2 (List.length attempts);
  Service.shutdown svc

let flaky_engine ~failures =
  let base = Engines.linq_to_objects in
  let remaining = Atomic.make failures in
  {
    Lq_catalog.Engine_intf.name = "flaky";
    describe = "transiently failing test engine";
    caps = base.Lq_catalog.Engine_intf.caps;
    prepare =
      (fun ?instr plan ~param_types ctx ->
        if Atomic.fetch_and_add remaining (-1) > 0 then
          Lq_fault.error ~stage:"prepare" Lq_fault.Transient "flaky prepare"
        else base.Lq_catalog.Engine_intf.prepare ?instr plan ~param_types ctx);
  }

let test_retry_spans_match_counter () =
  let _, svc = make_service () in
  let m = Service.metrics svc in
  let before = Svc_metrics.retried m in
  let resp = run_traced svc ~engine:(flaky_engine ~failures:2) q_paris in
  (match resp.Request.outcome with
  | Request.Completed { engine = "flaky"; degraded = false; _ } -> ()
  | o -> Alcotest.failf "expected clean flaky completion, got %s" (Request.outcome_kind o));
  let tr = response_trace "retry" resp in
  check_wf "retry trace" tr;
  let attempts = spans_of_kind Trace.Retry_attempt tr in
  check_int "three attempts traced" 3 (List.length attempts);
  let retries =
    List.filter (fun a -> match attr "n" a with Some "0" | None -> false | Some _ -> true) attempts
  in
  check_int "retry spans equal the retry counter delta"
    (Svc_metrics.retried m - before) (List.length retries);
  check_int "two of them are retries" 2 (List.length retries);
  Service.shutdown svc

let managed_phases = [ "Iterate data (C#)"; "Apply predicates (C#)"; "Data staging (C#)" ]

(* The double-charge regression (hybrid staging counted for a request by
   an attempt that then failed): with a fault injected after the native
   call, every hybrid attempt stages and dies, the fallback completes —
   and the completing attempt's phases hold only the fallback engine's
   execution, while the whole trace still shows the dead attempts'
   staging spans. *)
let test_hybrid_failed_attempt_not_double_charged () =
  match Lq_fault.Inject.parse_spec "seed=5;hybrid/result=1.0:transient" with
  | Error e -> Alcotest.failf "bad spec: %s" e
  | Ok spec ->
    Lq_fault.Inject.enable spec;
    Fun.protect ~finally:Lq_fault.Inject.disable @@ fun () ->
    let _, svc = make_service () in
    let resp = run_traced svc ~engine:Engines.hybrid q_paris in
    (match resp.Request.outcome with
    | Request.Completed { degraded = true; engine = "linq-to-objects"; _ } -> ()
    | o -> Alcotest.failf "expected degraded completion, got %s" (Request.outcome_kind o));
    let tr = response_trace "hybrid regression" resp in
    check_wf "hybrid regression trace" tr;
    check_bool "the dead hybrid attempts did stage (trace shows it)" true
      (spans_of_kind Trace.Staging tr <> []);
    let phases = List.map fst (Request.phases resp) in
    check_bool "no hybrid staging phase under the completing attempt" false
      (List.exists (fun name -> List.mem name managed_phases) phases);
    check_bool "the completing interpreter attempt has its execute phase" true
      (List.mem "linq-to-objects" phases);
    Service.shutdown svc

(* And the positive half: a clean hybrid run records each phase once per
   staged source, and its phases fit inside the execute wall time. *)
let test_hybrid_clean_run_charged_once () =
  let _, svc = make_service () in
  let resp = run_traced svc ~engine:Engines.hybrid q_paris in
  (match resp.Request.outcome with
  | Request.Completed { degraded = false; _ } -> ()
  | o -> Alcotest.failf "expected clean completion, got %s" (Request.outcome_kind o));
  let tr = response_trace "hybrid clean" resp in
  check_wf "hybrid clean trace" tr;
  check_int "one staging span per managed phase" (List.length managed_phases)
    (List.length (spans_of_kind Trace.Staging tr));
  let phases = Request.phases resp in
  check_bool "staging recorded" true (List.mem_assoc "Data staging (C#)" phases);
  let wall =
    match List.assoc_opt Engines.hybrid.Lq_catalog.Engine_intf.name phases with
    | Some ms -> ms
    | None -> Alcotest.fail "no execute phase for the hybrid"
  in
  let split =
    List.fold_left
      (fun acc (name, ms) ->
        if name = Engines.hybrid.Lq_catalog.Engine_intf.name then acc else acc +. ms)
      0.0 phases
  in
  check_bool
    (Printf.sprintf "hybrid phases (%.3f ms) within execute wall (%.3f ms) + 5%%" split wall)
    true
    (split <= wall *. 1.05 +. 0.5);
  Service.shutdown svc

(* ------------------------------------------------------------------ *)
(* 4-Domain storm: concurrent traced requests must never leak spans
   across requests. Each submitter uses its own engine, so a leaked
   span is visible as a foreign engine attr, a second root, or a
   second queue span. *)

let test_storm_no_cross_request_leakage () =
  let cat = Lq_testkit.sales_catalog ~n:200 () in
  let prov = Provider.create cat in
  let config =
    { Service.default_config with Service.domains = 4; queue_capacity = 256 }
  in
  let svc = Service.create ~config prov in
  let engines =
    [| Engines.linq_to_objects; Engines.compiled_csharp; Engines.compiled_c; Engines.hybrid |]
  in
  let per_submitter = 25 in
  let results = Array.make (Array.length engines) [] in
  let submitters =
    List.init (Array.length engines) (fun s ->
        Domain.spawn (fun () ->
            let engine = engines.(s) in
            (* one parameterized shape per engine: the plan cache absorbs
               codegen after the first request, so the storm exercises
               concurrency rather than the C compiler *)
            let q = source "sales" |> where "x" (v "x" $. "qty" >: p "floor") in
            let futs =
              List.init per_submitter (fun i ->
                  let label = Printf.sprintf "s%d-r%d" s i in
                  match
                    Service.submit svc ~label ~engine ~trace:true
                      ~params:[ ("floor", Lq_value.Value.Int (5 + (i mod 3))) ]
                      q
                  with
                  | Ok fut -> (label, fut)
                  | Error r ->
                    Alcotest.failf "storm admission failed: %s"
                      (Service.rejection_to_string r))
            in
            results.(s) <- List.map (fun (label, fut) -> (label, Future.await fut)) futs))
  in
  List.iter Domain.join submitters;
  Service.shutdown svc;
  Array.iteri
    (fun s per_engine ->
      let own = engines.(s).Lq_catalog.Engine_intf.name in
      List.iter
        (fun (label, (resp : Request.response)) ->
          (match resp.Request.outcome with
          | Request.Completed { degraded = false; _ } -> ()
          | o -> Alcotest.failf "%s: expected clean completion, got %s" label
                   (Request.outcome_kind o));
          check_string "response label intact" label resp.Request.label;
          let tr = response_trace label resp in
          check_wf label tr;
          check_string (label ^ ": root is its own request") label
            (List.hd (Trace.spans tr)).Trace.name;
          check_int (label ^ ": one queue span") 1
            (List.length (spans_of_kind Trace.Queue tr));
          List.iter
            (fun a ->
              match attr "engine" a with
              | Some e when e = own -> ()
              | Some e -> Alcotest.failf "%s: foreign engine span leaked in: %s" label e
              | None -> Alcotest.failf "%s: attempt without engine attr" label)
            (spans_of_kind Trace.Retry_attempt tr);
          List.iter
            (fun (ex : Trace.span) ->
              check_string (label ^ ": execute span engine") own ex.Trace.name)
            (spans_of_kind Trace.Execute tr))
        per_engine)
    results

let () =
  Alcotest.run "trace"
    [
      ( "span trees",
        [
          Alcotest.test_case "span basics" `Quick test_span_basics;
          qcheck_wellformed;
          Alcotest.test_case "sampler" `Quick test_sampler;
          Alcotest.test_case "slow-trace ring" `Quick test_ring;
          Alcotest.test_case "tree printer" `Quick test_tree_printer;
          Alcotest.test_case "phase fold" `Quick test_phase_fold;
        ] );
      ( "chrome export",
        [
          Alcotest.test_case "golden byte stability" `Quick test_chrome_golden;
          Alcotest.test_case "checker rejects corruption" `Quick
            test_chrome_checker_rejects;
        ] );
      ( "engines",
        [
          Alcotest.test_case "per-engine invariants" `Quick test_engine_invariants;
          Alcotest.test_case "parallel partition attribution" `Quick
            test_parallel_partition_attribution;
        ] );
      ( "service",
        [
          Alcotest.test_case "request trace shape" `Quick test_service_trace_shape;
          Alcotest.test_case "fallback hop spans" `Quick test_fallback_hop_spans;
          Alcotest.test_case "retry spans match counter" `Quick
            test_retry_spans_match_counter;
          Alcotest.test_case "hybrid failed attempt not double-charged" `Quick
            test_hybrid_failed_attempt_not_double_charged;
          Alcotest.test_case "hybrid clean run charged once" `Quick
            test_hybrid_clean_run_charged_once;
        ] );
      ( "storm",
        [
          Alcotest.test_case "no cross-request span leakage" `Quick
            test_storm_no_cross_request_leakage;
        ] );
    ]
