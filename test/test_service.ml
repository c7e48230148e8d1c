(* The query service layer: futures, histograms, the bounded priority
   queue, admission control / load shedding, deadline expiry, the
   engine-degradation ladder, the fault substrate (taxonomy, injection,
   breakers, governor, retry, worker supervision), and multi-Domain
   storms — one clean, one chaos — that audit the conservation invariant

     submitted = completed + rejected + timed-out + failed + shed

   end to end: the service must never drop a request silently, even
   under injected faults and crashing workers. *)

open Lq_expr.Dsl
module Provider = Lq_core.Provider
module Future = Lq_service.Future
module Deadline = Lq_service.Deadline
module Request = Lq_service.Request
module Request_queue = Lq_service.Request_queue
module Svc_metrics = Lq_service.Svc_metrics
module Service = Lq_service.Service
module Loadgen = Lq_service.Loadgen
module Histogram = Lq_metrics.Histogram

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* building blocks *)

let test_future () =
  let fut = Future.create () in
  check_bool "unresolved" false (Future.is_resolved fut);
  check_bool "poll empty" true (Future.poll fut = None);
  check_bool "await_for times out" true (Future.await_for ~timeout_ms:5.0 fut = None);
  check_bool "first fulfil wins" true (Future.fulfil fut 42);
  check_bool "second fulfil loses" false (Future.fulfil fut 43);
  check_int "await" 42 (Future.await fut);
  check_int "poll" 42 (Option.get (Future.poll fut))

let test_future_cross_domain () =
  let fut = Future.create () in
  let producer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.01;
        ignore (Future.fulfil fut "ready"))
  in
  check_string "await blocks until fulfilment" "ready" (Future.await fut);
  Domain.join producer

let test_deadline () =
  let d = Deadline.after ~ms:10_000.0 in
  check_bool "fresh deadline alive" false (Deadline.expired d);
  Deadline.check ~stage:"any" (Some d);
  Deadline.check ~stage:"any" None;
  let gone = Deadline.after ~ms:(-1.0) in
  check_bool "past deadline expired" true (Deadline.expired gone);
  check_bool "remaining negative" true (Deadline.remaining_ms gone < 0.0);
  match Deadline.check ~stage:"prepared" (Some gone) with
  | () -> Alcotest.fail "expired deadline did not raise"
  | exception Deadline.Expired stage -> check_string "stage names boundary" "prepared" stage

let test_histogram_quantiles () =
  let h = Histogram.create () in
  check_bool "empty quantile is nan" true (Float.is_nan (Histogram.quantile h 0.5));
  for i = 1 to 1000 do
    Histogram.observe h (float_of_int i)
  done;
  check_int "count" 1000 (Histogram.count h);
  check_bool "min exact" true (Histogram.min_value h = 1.0);
  check_bool "max exact" true (Histogram.max_value h = 1000.0);
  check_bool "q0 = min" true (Histogram.quantile h 0.0 = 1.0);
  check_bool "q1 = max" true (Histogram.quantile h 1.0 = 1000.0);
  let p50 = Histogram.quantile h 0.5 in
  check_bool (Printf.sprintf "p50 within bucket error (%.1f)" p50) true
    (p50 > 420.0 && p50 < 580.0);
  let p99 = Histogram.quantile h 0.99 in
  check_bool (Printf.sprintf "p99 within bucket error (%.1f)" p99) true
    (p99 > 900.0 && p99 <= 1000.0);
  check_bool "monotone" true (Histogram.quantile h 0.5 <= Histogram.quantile h 0.95)

let test_queue_bounds_and_priority () =
  let q = Request_queue.create ~capacity:3 in
  check_int "capacity" 3 (Request_queue.capacity q);
  check_bool "push 1" true (Request_queue.push q ~priority:Request.Batch "b1" = `Accepted 1);
  check_bool "push 2" true (Request_queue.push q ~priority:Request.Batch "b2" = `Accepted 2);
  check_bool "push 3" true
    (Request_queue.push q ~priority:Request.Interactive "i1" = `Accepted 3);
  check_bool "4th rejected" true
    (Request_queue.push q ~priority:Request.Interactive "i2" = `Overloaded 3);
  check_int "depth" 3 (Request_queue.depth q);
  (* interactive drains before batch; FIFO within a class *)
  check_bool "interactive first" true (Request_queue.pop q = Some "i1");
  check_bool "then batch FIFO" true (Request_queue.pop q = Some "b1");
  check_bool "rejection freed a slot" true
    (Request_queue.push q ~priority:Request.Batch "b3" = `Accepted 2);
  check_bool "b2 next" true (Request_queue.pop q = Some "b2");
  Request_queue.close q;
  check_bool "push after close" true
    (Request_queue.push q ~priority:Request.Batch "late" = `Closed);
  check_bool "drains after close" true (Request_queue.pop q = Some "b3");
  check_bool "empty + closed = None" true (Request_queue.pop q = None)

let test_queue_drain () =
  let q = Request_queue.create ~capacity:8 in
  ignore (Request_queue.push q ~priority:Request.Batch "b1");
  ignore (Request_queue.push q ~priority:Request.Interactive "i1");
  ignore (Request_queue.push q ~priority:Request.Batch "b2");
  Alcotest.(check (list string))
    "drain: interactive first, then batch FIFO" [ "i1"; "b1"; "b2" ]
    (Request_queue.drain q);
  check_int "drained empty" 0 (Request_queue.depth q)

(* ------------------------------------------------------------------ *)
(* the service *)

let q_all = source "sales"
let q_paris = source "sales" |> where "s" (v "s" $. "city" =: str "Paris")

let q_qty n = source "sales" |> where "s" (v "s" $. "qty" >: int n)

let make_service ?(domains = 1) ?(queue = 16) ?default_deadline_ms
    ?(fallback = Service.default_config.Service.fallback) ?(n = 120) () =
  let cat = Lq_testkit.sales_catalog ~n () in
  let prov = Provider.create cat in
  let config =
    { Service.default_config with domains; queue_capacity = queue; default_deadline_ms; fallback }
  in
  (prov, Service.create ~config prov)

let test_admission_rejects_when_full () =
  (* no workers: nothing drains, so the queue bound is the whole story *)
  let _, svc = make_service ~domains:0 ~queue:2 () in
  let ok1 = Service.submit svc q_all in
  let ok2 = Service.submit svc q_paris in
  check_bool "1st admitted" true (Result.is_ok ok1);
  check_bool "2nd admitted" true (Result.is_ok ok2);
  (match Service.submit svc (q_qty 10) with
  | Ok _ -> Alcotest.fail "3rd submission must shed"
  | Error (Service.Overloaded { depth; capacity }) ->
    check_int "rejection reports depth" 2 depth;
    check_int "rejection reports capacity" 2 capacity
  | Error Service.Shutting_down -> Alcotest.fail "not shutting down yet");
  let m = Service.metrics svc in
  check_int "submitted" 3 (Svc_metrics.submitted m);
  check_int "rejected" 1 (Svc_metrics.rejected m);
  check_int "queue depth peak" 2 (Svc_metrics.queue_depth_peak m);
  (* non-draining shutdown sheds the two queued requests — typed, counted *)
  Service.shutdown ~drain:false svc;
  let shed1 = Future.await (Result.get_ok ok1) in
  (match shed1.Request.outcome with
  | Request.Shed _ -> ()
  | other -> Alcotest.failf "expected Shed, got %s" (Request.outcome_kind other));
  check_bool "shed future resolved too" true (Future.is_resolved (Result.get_ok ok2));
  check_int "sheds land in their own bucket" 2 (Svc_metrics.shed m);
  check_int "admission rejection count unchanged" 1 (Svc_metrics.rejected m);
  check_bool "conserved after shutdown" true (Svc_metrics.conserved m);
  match Service.submit svc q_all with
  | Error Service.Shutting_down -> ()
  | _ -> Alcotest.fail "post-shutdown submit must be refused"

let test_deadline_expiry () =
  let _, svc = make_service ~domains:1 () in
  (match Service.run_sync svc ~deadline_ms:(-1.0) q_all with
  | Ok { Request.outcome = Request.Timed_out { stage }; _ } ->
    check_string "expired before pickup" "queued" stage
  | Ok r -> Alcotest.failf "expected Timed_out, got %s" (Request.outcome_kind r.Request.outcome)
  | Error _ -> Alcotest.fail "admission should succeed");
  (* a comfortable deadline completes *)
  (match Service.run_sync svc ~deadline_ms:60_000.0 q_paris with
  | Ok { Request.outcome = Request.Completed _; _ } -> ()
  | _ -> Alcotest.fail "generous deadline should complete");
  let m = Service.metrics svc in
  check_int "timed_out" 1 (Svc_metrics.timed_out m);
  check_int "completed" 1 (Svc_metrics.completed m);
  Service.shutdown svc;
  check_bool "conserved" true (Svc_metrics.conserved m)

let test_default_deadline_applies () =
  let _, svc = make_service ~domains:1 ~default_deadline_ms:(-1.0) () in
  (match Service.run_sync svc q_all with
  | Ok { Request.outcome = Request.Timed_out _; _ } -> ()
  | _ -> Alcotest.fail "config default deadline should apply");
  Service.shutdown svc

let always_unsupported =
  {
    Lq_catalog.Engine_intf.name = "always-unsupported";
    describe = "test engine that refuses everything";
    (* Caps are permissive on purpose: the refusal must reach the ladder
       as a prepare-time exception, not a capability miss. *)
    caps = Lq_catalog.Engine_intf.caps_any;
    prepare =
      (fun ?instr _ ~param_types:_ _ ->
        ignore instr;
        raise (Lq_catalog.Engine_intf.Unsupported "refused by construction"));
  }

let test_engine_fallback_accounting () =
  let prov, svc = make_service ~domains:1 () in
  (match Service.run_sync svc ~engine:always_unsupported q_paris with
  | Ok { Request.outcome = Request.Completed { rows; engine; degraded }; _ } ->
    check_bool "marked degraded" true degraded;
    check_string "fallback engine answered" "linq-to-objects" engine;
    Lq_testkit.check_rows "fallback rows match the oracle" (Provider.reference prov q_paris)
      rows
  | Ok r -> Alcotest.failf "expected completion, got %s" (Request.outcome_kind r.Request.outcome)
  | Error _ -> Alcotest.fail "admission should succeed");
  (* a healthy engine must not be counted degraded *)
  (match Service.run_sync svc ~engine:Lq_core.Engines.compiled_csharp q_paris with
  | Ok { Request.outcome = Request.Completed { degraded; _ }; _ } ->
    check_bool "native completion not degraded" false degraded
  | _ -> Alcotest.fail "compiled-c# run should complete");
  let m = Service.metrics svc in
  check_int "degraded counted once" 1 (Svc_metrics.degraded m);
  check_int "completed twice" 2 (Svc_metrics.completed m);
  check_int "no failures: the ladder absorbed the refusal" 0 (Svc_metrics.failed m);
  Service.shutdown svc;
  check_bool "conserved" true (Svc_metrics.conserved m)

(* An engine whose *capabilities* refuse everything, and whose prepare
   proves codegen is never reached: the plan-level check must route the
   request to the fallback before preparation is paid. *)
let capability_walled =
  {
    Lq_catalog.Engine_intf.name = "capability-walled";
    describe = "test engine every plan exceeds";
    caps = { Lq_catalog.Engine_intf.caps_any with max_sources = Some 0 };
    prepare = (fun ?instr _ ~param_types:_ _ ->
        ignore instr;
        failwith "codegen was paid despite the capability verdict");
  }

let test_capability_routing_skips_codegen () =
  let prov, svc = make_service ~domains:1 () in
  (match Service.run_sync svc ~engine:capability_walled q_paris with
  | Ok { Request.outcome = Request.Completed { rows; engine; degraded }; _ } ->
    check_bool "marked degraded" true degraded;
    check_string "fallback engine answered" "linq-to-objects" engine;
    Lq_testkit.check_rows "rows match the oracle" (Provider.reference prov q_paris) rows
  | Ok r ->
    Alcotest.failf "expected completion, got %s" (Request.outcome_kind r.Request.outcome)
  | Error _ -> Alcotest.fail "admission should succeed");
  let m = Service.metrics svc in
  check_int "capability miss counted" 1 (Svc_metrics.unsupported m);
  check_int "also a degradation" 1 (Svc_metrics.degraded m);
  check_int "no failures" 0 (Svc_metrics.failed m);
  (* The exception-based refusal path does NOT count as a capability
     miss: the two ladders stay distinguishable in the metrics. *)
  (match Service.run_sync svc ~engine:always_unsupported q_paris with
  | Ok { Request.outcome = Request.Completed { degraded = true; _ }; _ } -> ()
  | _ -> Alcotest.fail "prepare-time refusal should degrade");
  check_int "unsupported counter unchanged" 1 (Svc_metrics.unsupported m);
  check_int "degraded counts both" 2 (Svc_metrics.degraded m);
  Service.shutdown svc;
  check_bool "conserved" true (Svc_metrics.conserved m)

(* A correlated query the optimizer decorrelates routes to the compiled
   engine un-degraded, and the routing is counted. *)
let test_decorrelated_routing_counted () =
  let prov, svc = make_service ~domains:1 () in
  let q_corr =
    source "sales"
    |> where "s"
         (v "s" $. "qty"
         =: min_of
              (subquery
                 (source "sales" |> where "t" (v "t" $. "city" =: (v "s" $. "city"))))
              "z" (v "z" $. "qty"))
  in
  (match Service.run_sync svc ~engine:Lq_core.Engines.compiled_csharp q_corr with
  | Ok { Request.outcome = Request.Completed { rows; engine; degraded }; _ } ->
    check_bool "not degraded" false degraded;
    check_string "compiled engine answered" "compiled-csharp" engine;
    Lq_testkit.check_rows "rows match the oracle" (Provider.reference prov q_corr) rows
  | Ok r ->
    Alcotest.failf "expected completion, got %s" (Request.outcome_kind r.Request.outcome)
  | Error _ -> Alcotest.fail "admission should succeed");
  let m = Service.metrics svc in
  check_int "decorrelated routing counted" 1 (Svc_metrics.decorrelated m);
  (match Service.run_sync svc ~engine:Lq_core.Engines.compiled_csharp q_paris with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "admission should succeed");
  check_int "plain queries do not count" 1 (Svc_metrics.decorrelated m);
  Service.shutdown svc;
  check_bool "conserved" true (Svc_metrics.conserved m)

let test_fallback_disabled_fails_typed () =
  let _, svc = make_service ~domains:1 ~fallback:None () in
  (match Service.run_sync svc ~engine:always_unsupported q_all with
  | Ok { Request.outcome = Request.Failed { engine; _ }; _ } ->
    check_string "failure names the engine" "always-unsupported" engine
  | Ok r -> Alcotest.failf "expected Failed, got %s" (Request.outcome_kind r.Request.outcome)
  | Error _ -> Alcotest.fail "admission should succeed");
  let m = Service.metrics svc in
  check_int "failed" 1 (Svc_metrics.failed m);
  Service.shutdown svc;
  check_bool "failed is part of the audit" true (Svc_metrics.conserved m)

(* ------------------------------------------------------------------ *)
(* multi-Domain smoke: the probe_conc storm pattern, audited through
   the service counters instead of raw results only *)

let test_multi_domain_storm_conservation () =
  let cat = Lq_testkit.sales_catalog ~n:300 () in
  let prov = Provider.create cat in
  let config =
    { Service.default_config with domains = 4; queue_capacity = 8 }
  in
  let svc = Service.create ~config prov in
  let engines =
    [| Lq_core.Engines.linq_to_objects; Lq_core.Engines.compiled_csharp |]
  in
  let oracle = Hashtbl.create 16 in
  let queries = Array.of_list (List.map q_qty [ 5; 15; 25; 35 ]) in
  Array.iter (fun q -> Hashtbl.add oracle q (Provider.reference prov q)) queries;
  let submitters = 3 and per_submitter = 60 in
  let mismatches = Atomic.make 0 in
  let domains =
    List.init submitters (fun s ->
        Domain.spawn (fun () ->
            let rng = Lq_exec.Prng.create (77 + s) in
            let pending = ref [] in
            for i = 1 to per_submitter do
              let q = queries.(Lq_exec.Prng.int rng (Array.length queries)) in
              let engine = engines.(Lq_exec.Prng.int rng (Array.length engines)) in
              (* every 6th request carries an already-expired deadline *)
              let deadline_ms = if i mod 6 = 0 then Some (-1.0) else None in
              match Service.submit svc ~engine ?deadline_ms q with
              | Ok fut -> pending := (q, fut) :: !pending
              | Error (Service.Overloaded _) -> () (* typed shed, counted *)
              | Error Service.Shutting_down -> Alcotest.fail "premature shutdown"
            done;
            List.iter
              (fun (q, fut) ->
                match (Future.await fut).Request.outcome with
                | Request.Completed { rows; _ } ->
                  if not (Lq_testkit.rows_equal (Hashtbl.find oracle q) rows) then
                    Atomic.incr mismatches
                | Request.Timed_out _ -> ()
                | Request.Shed _ -> Atomic.incr mismatches
                | Request.Failed { engine; fault } ->
                  Printf.eprintf "FAILED %s: %s\n%!" engine (Lq_fault.to_string fault);
                  Atomic.incr mismatches)
              !pending))
  in
  List.iter Domain.join domains;
  Service.shutdown svc;
  let m = Service.metrics svc in
  check_int "no torn or failed results" 0 (Atomic.get mismatches);
  check_int "every submission seen" (submitters * per_submitter) (Svc_metrics.submitted m);
  check_bool "conservation: submitted fully bucketed" true (Svc_metrics.conserved m);
  check_int "no failures" 0 (Svc_metrics.failed m);
  check_bool "deadlines fired" true (Svc_metrics.timed_out m > 0);
  check_bool "queue never exceeded its bound" true (Svc_metrics.queue_depth_peak m <= 8);
  let stats = Provider.cache_stats prov in
  check_bool "repeated shapes hit the plan cache" true (stats.Lq_core.Query_cache.hits > 0)

let test_loadgen_closed_loop () =
  let cat = Lq_testkit.sales_catalog ~n:200 () in
  let prov = Provider.create cat in
  let config = { Service.default_config with domains = 2; queue_capacity = 16 } in
  let svc = Service.create ~config prov in
  let workload =
    [|
      Loadgen.item "all" q_all;
      Loadgen.item "paris" q_paris
        ~params_of:(fun _ -> []);
      Loadgen.item "qty" (source "sales" |> where "s" (v "s" $. "qty" >: p "floor"))
        ~params_of:(fun i -> [ ("floor", Lq_value.Value.Int (5 + (5 * (i mod 3)))) ]);
    |]
  in
  let report =
    Loadgen.run ~workload (Loadgen.Closed { clients = 3; requests_per_client = 8 }) svc
  in
  Service.shutdown svc;
  check_int "all submitted" 24 report.Loadgen.submitted;
  check_int "all completed" 24 report.Loadgen.completed;
  check_bool "client-side accounting conserved" true (Loadgen.conserved report);
  check_bool "service-side accounting conserved" true
    (Svc_metrics.conserved (Service.metrics svc));
  check_int "latency histogram saw every resolution" 24
    (Histogram.count report.Loadgen.latency);
  check_bool "throughput positive" true (report.Loadgen.throughput_per_s > 0.0);
  let stats = Provider.cache_stats prov in
  check_bool "parameterized repeats hit the cache" true
    (stats.Lq_core.Query_cache.hits > 0)

(* An open-loop submitter that falls behind its Poisson schedule must not
   hide the delay: each request is timed from when it was due. Every send
   here takes >= 5 ms ([params_of] sleeps) against a 1 ms mean gap, so
   request i is sent >= 5(i+1) ms after the start while its due time is
   the sum of i exponential gaps (mean i ms): the 40th is about 160 ms
   late. With 40 samples p99 sits among the two latest requests, whose
   lateness the schedule puts above 75 ms unless its first 38 gaps sum
   past 115 ms (mean 38, sd ~6); the service answers each in well under
   a millisecond, so the latency can only be that large by counting the
   lateness. *)
let test_loadgen_open_loop_counts_lateness () =
  let cat = Lq_testkit.sales_catalog ~n:50 () in
  let svc =
    Service.create ~config:{ Service.default_config with domains = 1 } (Provider.create cat)
  in
  let workload =
    [|
      Loadgen.item "paris" q_paris ~params_of:(fun _ ->
          Unix.sleepf 0.005;
          []);
    |]
  in
  let total = 40 in
  let report = Loadgen.run ~workload (Loadgen.Open { rate_per_s = 1000.0; total }) svc in
  Service.shutdown svc;
  check_int "all completed" total report.Loadgen.completed;
  let floor_ms = 60.0 in
  check_bool
    (Printf.sprintf "max lateness %.1f ms >= %.0f ms" report.Loadgen.max_lateness_ms floor_ms)
    true
    (report.Loadgen.max_lateness_ms >= floor_ms);
  let p99 = Histogram.quantile report.Loadgen.latency 0.99 in
  check_bool
    (Printf.sprintf "latency p99 %.1f ms >= %.0f ms of lateness" p99 floor_ms)
    true (p99 >= floor_ms)

(* ------------------------------------------------------------------ *)
(* the fault substrate: taxonomy, injection, breakers, governor *)

let with_injection spec_s f =
  match Lq_fault.Inject.parse_spec spec_s with
  | Error e -> Alcotest.failf "bad test spec %S: %s" spec_s e
  | Ok spec ->
    Lq_fault.Inject.enable spec;
    Fun.protect ~finally:Lq_fault.Inject.disable f

let test_fault_classify () =
  (* the catalog registered a classifier for Unsupported at module init *)
  let f =
    Lq_fault.classify (Lq_catalog.Engine_intf.Unsupported "no joins here")
  in
  check_bool "Unsupported classified" true (f.Lq_fault.kind = Lq_fault.Unsupported);
  (* a Fault passes through, picking up the stage when it had none *)
  let g =
    Lq_fault.classify ~stage:"execute"
      (Lq_fault.Fault (Lq_fault.make Lq_fault.Transient "blip"))
  in
  check_string "stage filled in" "execute" g.Lq_fault.stage;
  check_bool "kind preserved" true (g.Lq_fault.kind = Lq_fault.Transient);
  (* unknown exceptions land on the default kind *)
  let h = Lq_fault.classify ~default:Lq_fault.Codegen_error (Failure "boom") in
  check_bool "default kind" true (h.Lq_fault.kind = Lq_fault.Codegen_error);
  check_bool "transient is retryable" true
    (Lq_fault.is_transient (Lq_fault.make Lq_fault.Transient ""));
  check_bool "unsupported never trips breakers" false
    (Lq_fault.counts_for_breaker Lq_fault.Unsupported);
  check_bool "internal trips breakers" true
    (Lq_fault.counts_for_breaker Lq_fault.Internal)

let test_inject_determinism () =
  (match Lq_fault.Inject.parse_spec "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "clause without '=' must be rejected");
  (match Lq_fault.Inject.parse_spec "p/x=1.5" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "probability beyond 1 must be rejected");
  let spec_s = "seed=123;p/x=0.3:internal" in
  let draw_seq () =
    with_injection spec_s (fun () ->
        List.init 200 (fun _ ->
            match Lq_fault.Inject.hit "p/x" with
            | () -> false
            | exception Lq_fault.Fault f ->
              check_bool "injected kind from spec" true
                (f.Lq_fault.kind = Lq_fault.Internal);
              true))
  in
  let a = draw_seq () in
  let b = draw_seq () in
  check_bool "same seed replays the same decision sequence" true (a = b);
  let fired = List.length (List.filter Fun.id a) in
  check_bool
    (Printf.sprintf "fire rate near p (fired %d/200)" fired)
    true
    (fired > 30 && fired < 90);
  (* disabled and unknown points are no-ops *)
  Lq_fault.Inject.hit "p/x";
  with_injection spec_s (fun () -> Lq_fault.Inject.hit "p/other")

let test_breaker_state_machine () =
  let config =
    { Lq_fault.Breaker.failure_threshold = 2; window = 4; cooldown_ms = 100.0 }
  in
  let br = Lq_fault.Breaker.create ~config () in
  let admit now = Lq_fault.Breaker.admit br ~now_ms:now in
  let record now ok = Lq_fault.Breaker.record br ~now_ms:now ~ok in
  check_bool "starts closed" true (Lq_fault.Breaker.state br = Lq_fault.Breaker.Closed);
  check_bool "closed admits" true (admit 0.0 = `Admit);
  check_bool "one failure stays closed" true (record 0.0 false = `None);
  check_bool "successes dilute" true (record 1.0 true = `None);
  check_bool "second failure in window opens" true (record 2.0 false = `Opened);
  check_bool "open" true (Lq_fault.Breaker.state br = Lq_fault.Breaker.Open);
  check_bool "open fast-fails" true (admit 3.0 = `Fast_fail);
  check_bool "still open before cooldown" true (admit 50.0 = `Fast_fail);
  check_bool "cooldown elapses into a probe" true (admit 103.0 = `Probe);
  check_bool "half-open" true (Lq_fault.Breaker.state br = Lq_fault.Breaker.Half_open);
  check_bool "only one probe in flight" true (admit 104.0 = `Fast_fail);
  check_bool "probe failure re-opens" true (record 105.0 false = `Opened);
  check_bool "re-opened" true (Lq_fault.Breaker.state br = Lq_fault.Breaker.Open);
  check_bool "second cooldown, second probe" true (admit 210.0 = `Probe);
  check_bool "probe success recloses" true (record 211.0 true = `Reclosed);
  check_bool "closed again" true (Lq_fault.Breaker.state br = Lq_fault.Breaker.Closed);
  (* the reclose reset the window: one failure must not re-open *)
  check_bool "fresh window after reclose" true (record 212.0 false = `None);
  let s = Lq_fault.Breaker.stats br in
  check_int "opened twice" 2 s.Lq_fault.Breaker.opened;
  check_int "probed twice" 2 s.Lq_fault.Breaker.probes;
  check_int "reclosed once" 1 s.Lq_fault.Breaker.reclosed;
  check_bool "fast-fails counted" true (s.Lq_fault.Breaker.fast_fails >= 3)

let test_governor_budgets () =
  check_bool "no ambient budget outside with_budget" true
    (Lq_fault.Governor.usage () = None);
  (* charging with no budget installed is a no-op *)
  Lq_fault.Governor.charge_rows 1_000_000;
  Lq_fault.Governor.charge_bytes 1_000_000;
  let budget = { Lq_fault.Governor.max_rows = Some 10; max_bytes = Some 100 } in
  (match
     Lq_fault.Governor.with_budget budget (fun () ->
         Lq_fault.Governor.charge_rows 4;
         Lq_fault.Governor.charge_rows 6;
         Lq_fault.Governor.charge_bytes 50;
         Lq_fault.Governor.usage ())
   with
  | Some (10, 50) -> ()
  | other ->
    Alcotest.failf "usage tracked wrong: %s"
      (match other with
      | None -> "None"
      | Some (r, b) -> Printf.sprintf "(%d, %d)" r b));
  (match Lq_fault.Governor.with_budget budget (fun () -> Lq_fault.Governor.charge_rows 11) with
  | () -> Alcotest.fail "row budget breach must raise"
  | exception Lq_fault.Fault f ->
    check_bool "typed Resource_exhausted" true
      (f.Lq_fault.kind = Lq_fault.Resource_exhausted));
  (match
     Lq_fault.Governor.with_budget budget (fun () ->
         Lq_fault.Governor.charge_bytes 101)
   with
  | () -> Alcotest.fail "byte budget breach must raise"
  | exception Lq_fault.Fault f ->
    check_bool "typed Resource_exhausted" true
      (f.Lq_fault.kind = Lq_fault.Resource_exhausted));
  check_bool "budget scope popped after breach" true
    (Lq_fault.Governor.usage () = None)

(* ------------------------------------------------------------------ *)
(* resilience through the service: retry, breakers, governor, supervision *)

(* Fails its first [failures] prepare calls with a Transient fault, then
   behaves exactly like the interpreter — the retry loop must absorb the
   failures without ever reaching the fallback. *)
let flaky_engine ~failures =
  let base = Lq_core.Engines.linq_to_objects in
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

let always_internal =
  {
    Lq_catalog.Engine_intf.name = "always-internal";
    describe = "test engine that always blows up";
    caps = Lq_catalog.Engine_intf.caps_any;
    prepare =
      (fun ?instr _ ~param_types:_ _ ->
        ignore instr;
        Lq_fault.error ~stage:"prepare" Lq_fault.Internal "boom by construction");
  }

let test_retry_recovers_transient () =
  let prov, svc = make_service ~domains:1 () in
  (match Service.run_sync svc ~engine:(flaky_engine ~failures:2) q_paris with
  | Ok { Request.outcome = Request.Completed { rows; engine; degraded }; _ } ->
    check_string "flaky engine itself answered" "flaky" engine;
    check_bool "not degraded: retries absorbed the faults" false degraded;
    Lq_testkit.check_rows "rows match the oracle" (Provider.reference prov q_paris) rows
  | Ok r ->
    Alcotest.failf "expected completion, got %s" (Request.outcome_kind r.Request.outcome)
  | Error _ -> Alcotest.fail "admission should succeed");
  let m = Service.metrics svc in
  check_int "two retries recorded" 2 (Svc_metrics.retried m);
  check_int "no degradation" 0 (Svc_metrics.degraded m);
  Service.shutdown svc;
  check_bool "conserved" true (Svc_metrics.conserved m);
  (* Faults in the request front end (optimize, lower) take the same
     path: classified Transient, retried with backoff, the front end
     rebuilt until it succeeds. Only a failed front end is rebuilt, so
     each attempt draws at the two points exactly as often as a fresh
     pipeline per attempt would, and the seeded draws fix these counts. *)
  with_injection "seed=17;provider/optimize=0.2:transient;provider/lower=0.2:transient"
    (fun () ->
      let prov, svc = make_service ~domains:1 () in
      let oracle = Provider.reference prov q_paris in
      for i = 1 to 20 do
        match Service.run_sync svc ~engine:Lq_core.Engines.compiled_csharp q_paris with
        | Ok { Request.outcome = Request.Completed { rows; engine; degraded }; _ } ->
          check_string "compiled engine answered" "compiled-csharp" engine;
          check_bool "not degraded" false degraded;
          Lq_testkit.check_rows (Printf.sprintf "request %d rows" i) oracle rows
        | Ok r ->
          Alcotest.failf "request %d: expected completion, got %s" i
            (Request.outcome_kind r.Request.outcome)
        | Error _ -> Alcotest.fail "admission should succeed"
      done;
      let m = Service.metrics svc in
      check_int "front-end faults retried" 16 (Svc_metrics.retried m);
      check_int "no degradation" 0 (Svc_metrics.degraded m);
      check_int "breaker never opened" 0 (Svc_metrics.breaker_opened m);
      check_int "no fast-fails" 0 (Svc_metrics.breaker_fast_fails m);
      Service.shutdown svc;
      check_bool "front-end chaos conserved" true (Svc_metrics.conserved m))

let test_breaker_opens_and_fast_fails () =
  let cat = Lq_testkit.sales_catalog ~n:60 () in
  let prov = Provider.create cat in
  let config =
    {
      Service.default_config with
      domains = 1;
      breaker =
        (* long cooldown: the breaker must stay open for the whole test *)
        Some
          { Lq_fault.Breaker.failure_threshold = 2; window = 8; cooldown_ms = 60_000.0 };
    }
  in
  let svc = Service.create ~config prov in
  for _ = 1 to 4 do
    match Service.run_sync svc ~engine:always_internal q_paris with
    | Ok { Request.outcome = Request.Completed { degraded = true; engine; _ }; _ } ->
      check_string "ladder absorbed the blow-up" "linq-to-objects" engine
    | Ok r ->
      Alcotest.failf "expected degraded completion, got %s"
        (Request.outcome_kind r.Request.outcome)
    | Error _ -> Alcotest.fail "admission should succeed"
  done;
  check_bool "breaker open after repeated failures" true
    (Service.breaker_state svc ~engine:"always-internal" = Some Lq_fault.Breaker.Open);
  check_bool "fallback breaker untouched" true
    (Service.breaker_state svc ~engine:"linq-to-objects" = Some Lq_fault.Breaker.Closed);
  let m = Service.metrics svc in
  check_int "one open transition" 1 (Svc_metrics.breaker_opened m);
  check_bool "later requests fast-failed without paying codegen" true
    (Svc_metrics.breaker_fast_fails m >= 2);
  check_int "every request still completed (degraded)" 4 (Svc_metrics.completed m);
  check_int "all four degraded" 4 (Svc_metrics.degraded m);
  Service.shutdown svc;
  check_bool "conserved" true (Svc_metrics.conserved m)

let test_governor_budget_fails_typed () =
  let cat = Lq_testkit.sales_catalog ~n:120 () in
  let prov = Provider.create cat in
  (* warm the provider outside any budget: lazy table loads and plan
     compilation must not be charged to the first budgeted request *)
  ignore (Provider.run prov ~engine:Lq_core.Engines.linq_to_objects q_all);
  let config =
    {
      Service.default_config with
      domains = 1;
      budget = { Lq_fault.Governor.max_rows = Some 5; max_bytes = None };
    }
  in
  let svc = Service.create ~config prov in
  (* q_all materializes 120 rows against a 5-row budget *)
  (match Service.run_sync svc q_all with
  | Ok { Request.outcome = Request.Failed { fault; _ }; _ } ->
    check_bool "typed Resource_exhausted, no fallback attempted" true
      (fault.Lq_fault.kind = Lq_fault.Resource_exhausted)
  | Ok r ->
    Alcotest.failf "expected Failed, got %s" (Request.outcome_kind r.Request.outcome)
  | Error _ -> Alcotest.fail "admission should succeed");
  (* a small result fits the same budget *)
  (match Service.run_sync svc (q_qty 90) with
  | Ok { Request.outcome = Request.Completed { degraded; _ }; _ } ->
    check_bool "small query under budget completes clean" false degraded
  | Ok r ->
    Alcotest.failf "expected completion, got %s" (Request.outcome_kind r.Request.outcome)
  | Error _ -> Alcotest.fail "admission should succeed");
  let m = Service.metrics svc in
  check_int "resource failure bucketed by kind" 1
    (Lq_metrics.Counters.count (Svc_metrics.counters m) "service/failed/resource");
  check_int "no degradation: resource faults skip the ladder" 0 (Svc_metrics.degraded m);
  Service.shutdown svc;
  check_bool "conserved" true (Svc_metrics.conserved m)

let test_worker_supervision () =
  with_injection "seed=7;service/worker=1.0:internal" (fun () ->
      let _, svc = make_service ~domains:2 ~queue:32 () in
      let futs =
        List.init 10 (fun _ ->
            match Service.submit svc q_all with
            | Ok fut -> fut
            | Error _ -> Alcotest.fail "admission should succeed")
      in
      List.iter
        (fun fut ->
          match Future.await_for ~timeout_ms:30_000.0 fut with
          | None -> Alcotest.fail "future hung after its worker crashed"
          | Some resp -> (
            match resp.Request.outcome with
            | Request.Failed { fault; _ } ->
              check_bool "crash surfaced as typed Internal" true
                (fault.Lq_fault.kind = Lq_fault.Internal)
            | other ->
              Alcotest.failf "expected Failed, got %s" (Request.outcome_kind other)))
        futs;
      Service.shutdown svc;
      let m = Service.metrics svc in
      check_bool "every crash respawned a worker" true
        (Svc_metrics.worker_crashes m >= 10);
      check_int "every job resolved exactly once" 10 (Svc_metrics.failed m);
      check_bool "conserved despite 10 worker deaths" true (Svc_metrics.conserved m))

(* The acceptance storm: 4 Domains, 520 requests, seeded injection on
   codegen, execute, staging and the workers themselves. Every future
   must resolve, accounting must conserve exactly, and at least one
   breaker must complete a full open -> half-open -> closed cycle. *)
let test_chaos_storm () =
  with_injection
    "seed=1234;provider/prepare=0.05:codegen;provider/execute=0.08:internal;hybrid/staging=0.05:transient;service/worker=0.01:internal"
    (fun () ->
      let cat = Lq_testkit.sales_catalog ~n:300 () in
      let prov = Provider.create cat in
      let config =
        {
          Service.default_config with
          domains = 4;
          queue_capacity = 64;
          breaker =
            Some
              {
                Lq_fault.Breaker.failure_threshold = 2;
                window = 16;
                (* short cooldown relative to the storm's duration, so
                   open breakers get probed while requests still flow *)
                cooldown_ms = 2.0;
              };
        }
      in
      let svc = Service.create ~config prov in
      let queries = Array.of_list (List.map q_qty [ 5; 15; 25; 35 ]) in
      let submitters = 4 and per_submitter = 130 in
      let hung = Atomic.make 0 in
      let clients =
        (* closed loop: each client awaits its request before the next,
           so (nearly) every submission is admitted and actually runs
           through the injected fault points *)
        List.init submitters (fun s ->
            Domain.spawn (fun () ->
                let rng = Lq_exec.Prng.create (900 + s) in
                for _ = 1 to per_submitter do
                  let q = queries.(Lq_exec.Prng.int rng (Array.length queries)) in
                  match
                    Service.submit svc ~engine:Lq_core.Engines.compiled_csharp q
                  with
                  | Ok fut -> (
                    match Future.await_for ~timeout_ms:30_000.0 fut with
                    | None -> Atomic.incr hung
                    | Some _ -> ())
                  | Error (Service.Overloaded _) -> ()
                  | Error Service.Shutting_down -> Alcotest.fail "premature shutdown"
                done))
      in
      List.iter Domain.join clients;
      Service.shutdown svc;
      let m = Service.metrics svc in
      if Sys.getenv_opt "CHAOS_DEBUG" <> None then begin
        Printf.eprintf "%s\n" (Service.report svc);
        Printf.eprintf "%s\n" (Lq_fault.Inject.report ())
      end;
      check_int "no hung futures" 0 (Atomic.get hung);
      check_int "every submission seen" (submitters * per_submitter)
        (Svc_metrics.submitted m);
      check_bool "conservation holds under chaos" true (Svc_metrics.conserved m);
      check_bool "injection actually fired" true
        (List.exists (fun (_, n) -> n > 0) (Lq_fault.Inject.fired ()));
      check_bool "at least one breaker opened" true (Svc_metrics.breaker_opened m >= 1);
      check_bool "at least one breaker reclosed after a probe" true
        (Svc_metrics.breaker_reclosed m >= 1);
      check_bool "faults were absorbed or typed, never dropped" true
        (Svc_metrics.completed m + Svc_metrics.failed m > 0))

(* Guarded-JIT chaos storm: a seeded closed loop against compiled-c-jit
   with the validation sandbox crashing under it (jit/validate armed) and
   then, on a second wave over the same disk cache, artifacts being
   poisoned on every hit (jit/cache armed). A crashing or divergent
   artifact may never take the service down or fail a request — affected
   plans park at Failed and serve interpreted; corrupted cache entries
   are evicted and recompiled transparently. *)
let jit_storm_env = [ ("LQ_JIT_MODE", "sync"); ("LQ_JIT", "on") ]

let with_env pairs f =
  let saved = List.map (fun (k, _) -> (k, Sys.getenv_opt k)) pairs in
  List.iter (fun (k, v) -> Unix.putenv k v) pairs;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (k, old) -> Unix.putenv k (Option.value old ~default:"")) saved)
    f

let jit_storm_wave ~spec ~seed_base cat =
  with_injection spec (fun () ->
    let prov = Provider.create cat in
    let config = { Service.default_config with domains = 4; queue_capacity = 64 } in
    let svc = Service.create ~config prov in
    let queries = Array.of_list (List.map q_qty [ 5; 15; 25; 35 ]) in
    let submitters = 4 and per_submitter = 40 in
    let hung = Atomic.make 0 in
    let clients =
      List.init submitters (fun s ->
        Domain.spawn (fun () ->
          let rng = Lq_exec.Prng.create (seed_base + s) in
          for _ = 1 to per_submitter do
            let q = queries.(Lq_exec.Prng.int rng (Array.length queries)) in
            match Service.submit svc ~engine:Lq_core.Engines.compiled_c_jit q with
            | Ok fut -> (
              match Future.await_for ~timeout_ms:30_000.0 fut with
              | None -> Atomic.incr hung
              | Some _ -> ())
            | Error (Service.Overloaded _) -> ()
            | Error Service.Shutting_down -> Alcotest.fail "premature shutdown"
          done))
    in
    List.iter Domain.join clients;
    Service.shutdown svc;
    let m = Service.metrics svc in
    check_int "no hung futures" 0 (Atomic.get hung);
    check_int "every submission seen" (submitters * per_submitter) (Svc_metrics.submitted m);
    check_bool "conservation holds under jit chaos" true (Svc_metrics.conserved m);
    check_int "zero failed requests: bad artifacts serve interpreted" 0 (Svc_metrics.failed m);
    check_int "every request completed" (submitters * per_submitter) (Svc_metrics.completed m))

let test_jit_guarded_chaos_storm () =
  if not (Lq_jit.Backend.cc_available ()) then print_endline "SKIPPED: no C compiler on PATH"
  else begin
    let dir = Filename.temp_file "lq_svc_jit" ".cache" in
    Sys.remove dir;
    with_env (("LQ_JIT_CACHE_DIR", dir) :: jit_storm_env) (fun () ->
      Lq_jit.Backend.reset_for_tests ();
      let count name = Lq_metrics.Counters.count Lq_jit.Backend.counters name in
      let cat = Lq_testkit.sales_catalog ~n:300 () in
      (* Wave 1: most validations crash the sandbox. *)
      let fails0 = count "service/jit/validation_failures" in
      jit_storm_wave ~spec:"seed=2026;jit/validate=0.6:internal" ~seed_base:7100 cat;
      check_bool "sandbox crashes were recorded" true
        (count "service/jit/validation_failures" > fails0);
      (* Wave 2: drop the in-memory tier so prepares hit the disk cache,
         and poison a fraction of those hits. *)
      Lq_jit.Backend.reset_for_tests ();
      let corrupt0 = count "service/jit/cache_corrupt" in
      jit_storm_wave ~spec:"seed=2027;jit/cache=0.5:internal" ~seed_base:7200 cat;
      check_bool "poisoned cache entries were detected and recovered" true
        (count "service/jit/cache_corrupt" > corrupt0))
  end

(* Traced chaos: with every request sampled, the breaker's state
   transitions are visible twice — once as service/breaker/* counters,
   once as Breaker_event spans inside whichever request triggered them.
   The two views must agree exactly: a span without a counter (or vice
   versa) would mean an event was attributed to the wrong request or
   dropped. *)
let test_breaker_spans_match_counters () =
  with_injection
    "seed=4242;provider/prepare=0.10:internal;provider/execute=0.05:internal"
    (fun () ->
      let cat = Lq_testkit.sales_catalog ~n:200 () in
      let prov = Provider.create cat in
      let config =
        {
          Service.default_config with
          domains = 2;
          queue_capacity = 64;
          breaker =
            Some
              { Lq_fault.Breaker.failure_threshold = 2; window = 16; cooldown_ms = 2.0 };
        }
      in
      let svc = Service.create ~config prov in
      let queries = Array.of_list (List.map q_qty [ 5; 15; 25; 35 ]) in
      let submitters = 2 and per_submitter = 60 in
      let responses = Array.make submitters [] in
      let clients =
        List.init submitters (fun s ->
            Domain.spawn (fun () ->
                let rng = Lq_exec.Prng.create (4300 + s) in
                for _ = 1 to per_submitter do
                  let q = queries.(Lq_exec.Prng.int rng (Array.length queries)) in
                  match
                    Service.submit svc ~engine:Lq_core.Engines.compiled_csharp
                      ~trace:true q
                  with
                  | Ok fut -> responses.(s) <- Future.await fut :: responses.(s)
                  | Error _ -> Alcotest.fail "closed-loop submission rejected"
                done))
      in
      List.iter Domain.join clients;
      Service.shutdown svc;
      let m = Service.metrics svc in
      check_bool "conserved under traced chaos" true (Svc_metrics.conserved m);
      let all = Array.to_list responses |> List.concat in
      check_int "every request traced" (submitters * per_submitter) (List.length all);
      let count_events what =
        List.fold_left
          (fun acc (resp : Request.response) ->
            match resp.Request.trace with
            | None -> Alcotest.fail "sampled request lost its trace"
            | Some tr ->
              (match Lq_trace.Wellformed.check tr with
              | Ok () -> ()
              | Error problems ->
                Alcotest.failf "ill-formed chaos trace: %s"
                  (String.concat "; " problems));
              acc
              + List.length
                  (List.filter
                     (fun (sp : Lq_trace.Trace.span) ->
                       sp.Lq_trace.Trace.kind = Lq_trace.Trace.Breaker_event
                       && sp.Lq_trace.Trace.name = what)
                     (Lq_trace.Trace.spans tr)))
          0 all
      in
      check_bool "injection opened at least one breaker" true
        (Svc_metrics.breaker_opened m >= 1);
      check_int "opened spans = opened counter" (Svc_metrics.breaker_opened m)
        (count_events "opened");
      check_int "reclosed spans = reclosed counter" (Svc_metrics.breaker_reclosed m)
        (count_events "reclosed");
      check_int "fast-fail spans = fast-fail counter"
        (Svc_metrics.breaker_fast_fails m) (count_events "fast-fail"))

let () =
  Alcotest.run "service"
    [
      ( "building blocks",
        [
          Alcotest.test_case "future" `Quick test_future;
          Alcotest.test_case "future across domains" `Quick test_future_cross_domain;
          Alcotest.test_case "deadline" `Quick test_deadline;
          Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "queue bounds and priority" `Quick
            test_queue_bounds_and_priority;
          Alcotest.test_case "queue drain" `Quick test_queue_drain;
        ] );
      ( "service",
        [
          Alcotest.test_case "admission control sheds typed" `Quick
            test_admission_rejects_when_full;
          Alcotest.test_case "deadline expiry" `Quick test_deadline_expiry;
          Alcotest.test_case "default deadline" `Quick test_default_deadline_applies;
          Alcotest.test_case "engine fallback accounting" `Quick
            test_engine_fallback_accounting;
          Alcotest.test_case "capability routing skips codegen" `Quick
            test_capability_routing_skips_codegen;
          Alcotest.test_case "decorrelated routing counted" `Quick
            test_decorrelated_routing_counted;
          Alcotest.test_case "fallback disabled fails typed" `Quick
            test_fallback_disabled_fails_typed;
        ] );
      ( "faults",
        [
          Alcotest.test_case "taxonomy and classifier" `Quick test_fault_classify;
          Alcotest.test_case "seeded injection determinism" `Quick
            test_inject_determinism;
          Alcotest.test_case "breaker state machine" `Quick test_breaker_state_machine;
          Alcotest.test_case "governor budgets" `Quick test_governor_budgets;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "retry recovers transient" `Quick
            test_retry_recovers_transient;
          Alcotest.test_case "breaker opens and fast-fails" `Quick
            test_breaker_opens_and_fast_fails;
          Alcotest.test_case "governor budget fails typed" `Quick
            test_governor_budget_fails_typed;
          Alcotest.test_case "worker supervision" `Quick test_worker_supervision;
        ] );
      ( "storm",
        [
          Alcotest.test_case "multi-domain conservation" `Quick
            test_multi_domain_storm_conservation;
          Alcotest.test_case "loadgen closed loop" `Quick test_loadgen_closed_loop;
          Alcotest.test_case "loadgen open loop counts lateness" `Quick
            test_loadgen_open_loop_counts_lateness;
          Alcotest.test_case "seeded chaos" `Quick test_chaos_storm;
          Alcotest.test_case "guarded jit chaos" `Quick test_jit_guarded_chaos_storm;
          Alcotest.test_case "breaker spans match counters" `Quick
            test_breaker_spans_match_counters;
        ] );
    ]
