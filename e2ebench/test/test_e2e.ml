(* Unit tests of the end-to-end benchmark's own logic: the percentile
   rule, outcome accounting, the row comparator, the ad-hoc shape
   generator, and the agreement between the metrics the harness prints
   and the ones BENCHMARK.json declares. *)

open Lq_value
module Pct = Lq_e2e.Pct
module Rows = Lq_e2e.Rows
module Tally = Lq_e2e.Tally
module Adhoc = Lq_e2e.Adhoc
module Metric = Lq_e2e.Metric
module Request = Lq_service.Request
module Json = Lq_trace.Json

(* --- percentiles ------------------------------------------------------- *)

let ramp n = Array.init n (fun i -> float_of_int (n - i))

let test_nearest_rank () =
  Alcotest.(check (float 0.)) "p50 of 1..100" 50. (Pct.quantile 0.5 (ramp 100));
  Alcotest.(check (float 0.)) "p99 of 1..1000" 990. (Pct.quantile 0.99 (ramp 1000));
  Alcotest.(check (float 0.)) "p99 of 1..1001" 991. (Pct.quantile 0.99 (ramp 1001));
  Alcotest.(check (float 0.)) "p0 is the minimum" 1. (Pct.nearest_rank 0. (ramp 7));
  Alcotest.(check (float 0.)) "a measured value, no interpolation" 2.
    (Pct.nearest_rank 0.5 [| 1.; 2.; 3.; 4. |])

let test_sample_guard () =
  Alcotest.(check int) "p99 needs 1000" 1000 (Pct.min_samples 0.99);
  Alcotest.(check int) "p50 needs 20" 20 (Pct.min_samples 0.5);
  (match Pct.quantile 0.99 (ramp 999) with
  | _ -> Alcotest.fail "p99 of 999 samples must be refused"
  | exception Pct.Too_few { samples = 999; needed = 1000; _ } -> ());
  match Pct.quantile 0.5 [||] with
  | _ -> Alcotest.fail "no samples must be refused"
  | exception Pct.Too_few _ -> ()

(* --- outcome accounting -------------------------------------------------- *)

let response outcome =
  Ok
    {
      Request.request_id = 0;
      label = "t";
      outcome;
      queue_ms = 0.;
      exec_ms = 0.;
      total_ms = 0.;
      trace = None;
    }

let test_error_rate_conservation () =
  let t = Tally.create () in
  let completed degraded = Request.Completed { rows = []; engine = "e"; degraded } in
  List.iter (Tally.note t)
    [
      response (completed false);
      response (completed false);
      response (completed true);
      response (Request.Timed_out { stage = "queued" });
      response (Request.Shed { reason = "shutdown" });
      response (Request.Failed { engine = "e"; fault = Lq_fault.make Lq_fault.Internal "boom" });
      Error (Lq_service.Service.Overloaded { depth = 64; capacity = 64 });
    ];
  Tally.note_write t;
  Alcotest.(check int) "every operation lands in one bucket" 8 (Tally.attempted t);
  Alcotest.(check int) "errors: degraded, timed-out, shed, failed, rejected" 5 (Tally.errors t);
  Alcotest.(check (float 1e-12)) "error_rate = errors / attempted" (5. /. 8.) (Tally.error_rate t);
  let merged = Tally.merge [ t; t ] in
  Alcotest.(check int) "merge keeps the sum" 16 (Tally.attempted merged);
  Alcotest.(check int) "merge keeps the errors" 10 (Tally.errors merged);
  Alcotest.(check (float 0.)) "no attempts, no errors" 0. (Tally.error_rate (Tally.create ()))

(* --- the row comparator -------------------------------------------------- *)

let row k x = Value.record [ ("k", Value.Str k); ("x", Value.Float x) ]
let unsorted = Lq_expr.Dsl.source "t"
let sorted = Lq_expr.Dsl.(source "t" |> order_by [ ("r", v "r" $. "x", asc) ] |> take 5)

let test_rows () =
  let a = [ row "a" 1.; row "b" 2. ] in
  Alcotest.(check bool) "equal" true (Rows.agree_for unsorted ~expected:a a);
  Alcotest.(check bool) "1e-7 relative is within tolerance" true
    (Rows.agree_for unsorted ~expected:a [ row "a" (1. +. 1e-7); row "b" 2. ]);
  Alcotest.(check bool) "1e-5 relative is not" false
    (Rows.agree_for unsorted ~expected:a [ row "a" (1. +. 1e-5); row "b" 2. ]);
  Alcotest.(check bool) "unsorted output is a multiset" true
    (Rows.agree_for unsorted ~expected:a (List.rev a));
  Alcotest.(check bool) "sorted output compares in order" false
    (Rows.agree_for sorted ~expected:a (List.rev a));
  Alcotest.(check bool) "a missing row" false (Rows.agree_for unsorted ~expected:a [ row "a" 1. ]);
  Alcotest.(check bool) "a duplicated row is not the same multiset" false
    (Rows.agree_for unsorted ~expected:(row "a" 1. :: a) (row "b" 2. :: a));
  Alcotest.(check bool) "strings compare exactly" false
    (Rows.agree_for unsorted ~expected:a [ row "a" 1.; row "c" 2. ])

(* --- ad-hoc shapes ---------------------------------------------------------- *)

let catalog = lazy (Lq_tpch.Dbgen.load ~seed:42 ~sf:0.001 ())

let test_walk_is_a_permutation () =
  let walk = Adhoc.walk ~seed:7 in
  let seen = Hashtbl.create 4096 in
  for i = 0 to 99_999 do
    let k = walk i in
    if k < 0 || k >= Adhoc.space_size then Alcotest.failf "index %d out of range" k;
    if Hashtbl.mem seen k then Alcotest.failf "shape %d repeats at request %d" k i;
    Hashtbl.replace seen k ()
  done

let test_shapes_distinct_and_accepted () =
  let cat = Lazy.force catalog in
  let prov = Lq_core.Provider.create cat in
  let request = Adhoc.request ~seed:42 in
  let keys = Hashtbl.create 4096 in
  for i = 0 to 1999 do
    let q = request i in
    let plan =
      Lq_plan.Lower.lower cat
        (fst (Lq_expr.Shape.parameterize (Lq_core.Provider.optimized prov q)))
    in
    let key = Lq_plan.Plan.shape_key plan in
    (match Hashtbl.find_opt keys key with
    | Some j -> Alcotest.failf "requests %d and %d share a plan shape" j i
    | None -> Hashtbl.replace keys key i);
    Array.iter
      (fun (e : Lq_catalog.Engine_intf.t) ->
        match Lq_core.Provider.plan_check prov ~engine:e q with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "request %d refused by %s: %s" i e.name msg)
      Lq_e2e.Workload.adhoc_engines
  done

(* The window checks a sample of answers; here every adhoc engine answers
   a run of shapes and each answer must equal the reference. *)
let test_shapes_answer_correctly () =
  let cat = Lazy.force catalog in
  let prov = Lq_core.Provider.create cat in
  let request = Adhoc.request ~seed:3 in
  for i = 0 to 39 do
    let q = request i in
    let expected = Lq_core.Provider.reference prov q in
    Array.iter
      (fun (e : Lq_catalog.Engine_intf.t) ->
        let got = Lq_core.Provider.run prov ~engine:e q in
        if not (Rows.agree_for q ~expected got) then
          Alcotest.failf "request %d: %s disagrees with the reference" i e.name)
      Lq_e2e.Workload.adhoc_engines
  done

(* --- printed metrics against BENCHMARK.json ------------------------------- *)

let benchmark_json =
  lazy
    (let ic = open_in_bin "../../BENCHMARK.json" in
     let s = really_input_string ic (in_channel_length ic) in
     close_in ic;
     match Json.parse s with Ok v -> v | Error e -> Alcotest.failf "BENCHMARK.json: %s" e)

let declared_in_json section =
  match Option.bind (Json.member section (Lazy.force benchmark_json)) Json.to_list with
  | None -> Alcotest.failf "BENCHMARK.json has no %s list" section
  | Some items ->
    List.map
      (fun m ->
        let field f =
          match Option.bind (Json.member f m) Json.to_str with
          | Some s -> s
          | None -> Alcotest.failf "a %s metric lacks %s" section f
        in
        (field "name", field "unit", field "better"))
      items

let printed ~trace =
  let values = List.map (fun (m : Metric.decl) -> (m.name, 1.5)) (Metric.declared ~trace) in
  let line = Metric.result_line ~trace ~correct:true ~attempted:1 ~failed:0 values in
  match Json.parse line with
  | Error e -> Alcotest.failf "result line is not JSON: %s" e
  | Ok v -> (
    match Json.member "metrics" v with
    | Some (Json.Obj fields) ->
      List.map
        (fun (name, m) ->
          let unit = Option.bind (Json.member "unit" m) Json.to_str |> Option.value ~default:"" in
          let decl = List.find_opt (fun (d : Metric.decl) -> d.name = name) (Metric.declared ~trace) in
          let better =
            match decl with
            | Some { better = Metric.Lower; _ } -> "lower"
            | Some { better = Metric.Higher; _ } -> "higher"
            | None -> "undeclared"
          in
          (name, unit, better))
        fields
    | _ -> Alcotest.fail "result line has no metrics object")

let metric_t = Alcotest.(triple string string string)

let test_metrics_match_benchmark_json () =
  List.iter
    (fun (trace, section) ->
      let shown = printed ~trace in
      List.iter
        (fun (name, _, _) ->
          if not (Metric.valid_name name) then Alcotest.failf "bad metric name %S" name)
        shown;
      Alcotest.check (Alcotest.list metric_t)
        (section ^ " printed = declared")
        (List.sort compare (declared_in_json section))
        (List.sort compare shown))
    [ (false, "end_to_end"); (true, "per_layer") ];
  let engines =
    List.filter_map
      (fun (name, _, _) ->
        match String.split_on_char '.' name with
        | [ "execute"; engine; _ ] -> Some engine
        | _ -> None)
      (printed ~trace:true)
  in
  List.iter
    (fun (e : Lq_catalog.Engine_intf.t) ->
      if e.name <> "sqlserver-native" && not (List.mem (Metric.slug e.name) engines) then
        Alcotest.failf "engine %s has no execute metric" e.name)
    Lq_core.Engines.all

let test_result_line_refuses_gaps () =
  let refused values =
    match Metric.result_line ~trace:false ~correct:true ~attempted:1 ~failed:0 values with
    | _ -> false
    | exception Metric.Bad_metrics _ -> true
  in
  let full = List.map (fun (m : Metric.decl) -> (m.name, 1.)) Metric.end_to_end in
  Alcotest.(check bool) "complete" false (refused full);
  Alcotest.(check bool) "missing" true (refused (List.tl full));
  Alcotest.(check bool) "undeclared" true (refused (("bogus", 1.) :: full));
  Alcotest.(check bool) "not finite" true
    (refused (List.map (fun (n, _) -> (n, Float.nan)) full))

let () =
  Unix.putenv "LQ_JIT" "off";
  Alcotest.run "e2e"
    [
      ( "pct",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "ten-beyond guard" `Quick test_sample_guard;
        ] );
      ( "tally",
        [ Alcotest.test_case "error_rate conservation" `Quick test_error_rate_conservation ] );
      ("rows", [ Alcotest.test_case "comparator" `Quick test_rows ]);
      ( "adhoc",
        [
          Alcotest.test_case "walk is a permutation" `Quick test_walk_is_a_permutation;
          Alcotest.test_case "2000 shapes distinct and accepted" `Quick
            test_shapes_distinct_and_accepted;
          Alcotest.test_case "engines agree with the reference" `Quick test_shapes_answer_correctly;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "printed = BENCHMARK.json" `Quick test_metrics_match_benchmark_json;
          Alcotest.test_case "result line refuses gaps" `Quick test_result_line_refuses_gaps;
        ] );
    ]
