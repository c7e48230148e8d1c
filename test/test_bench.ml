(* Tests for the perf-CI machinery (bench/bench_lib): the cachegrind
   output parser, the weighted-score formula, the BENCH_*.json schema
   round-trip, the regression gate's verdict paths, and the determinism
   guarantees the whole gate rests on — all pure OCaml, no valgrind. *)

module Suite = Lq_bench.Suite
module Sim = Lq_bench.Sim
module Cachegrind = Lq_bench.Cachegrind
module Score = Lq_bench.Score
module Gate = Lq_bench.Gate
module Stats = Lq_metrics.Stats

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-9))

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* order statistics (the bench harness's median fix) *)

let test_stats () =
  check_float "odd median" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check_float "even median is mean of middles" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  check_float "singleton" 7.0 (Stats.median [ 7.0 ]);
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "minimum" 1.0 (Stats.minimum [ 3.0; 1.0; 2.0 ]);
  Alcotest.check_raises "empty median" (Invalid_argument "Stats.median: empty list")
    (fun () -> ignore (Stats.median []))

(* ------------------------------------------------------------------ *)
(* cachegrind output parsing *)

(* A faithful miniature of a cachegrind out-file: header, per-function
   body lines (ignored), totals. *)
let golden_output =
  "version: 1\n\
   creator: callgrind-3.19.0\n\
   pid: 12345\n\
   cmd: ./perf_ci.exe --child\n\
   part: 1\n\
   desc: I1 cache: 32768 B, 64 B, 8-way associative\n\
   desc: D1 cache: 32768 B, 64 B, 8-way associative\n\
   desc: LL cache: 8388608 B, 64 B, 16-way associative\n\
   events: Ir I1mr ILmr Dr D1mr DLmr Dw D1mw DLmw\n\
   fl=???\n\
   fn=main\n\
   0 1000 1 1 300 10 5 200 4 2\n\
   summary: 642745287 1337 1199 207243391 744836 94696 128427753 374168 97202\n"

let test_parser_golden () =
  match Cachegrind.parse golden_output with
  | Error msg -> Alcotest.failf "golden parse failed: %s" msg
  | Ok events ->
    check_int "Ir" 642745287 (List.assoc "Ir" events);
    check_int "D1mr" 744836 (List.assoc "D1mr" events);
    check_int "DLmw" 97202 (List.assoc "DLmw" events);
    check_int "nine events" 9 (List.length events)

let expect_error name input =
  match Cachegrind.parse input with
  | Ok _ -> Alcotest.failf "%s: expected a parse error" name
  | Error _ -> ()

let test_parser_malformed () =
  expect_error "empty" "";
  expect_error "no summary" "events: Ir Dr\nbody\n";
  expect_error "no events" "summary: 1 2\n";
  expect_error "arity mismatch" "events: Ir Dr\nsummary: 1 2 3\n";
  expect_error "non-integer count" "events: Ir Dr\nsummary: 1 two\n";
  (* junk around the two meaningful lines is fine *)
  match Cachegrind.parse "junk\nevents:  Ir   Dr \nmore junk\nsummary:  5   6 \n" with
  | Ok [ ("Ir", 5); ("Dr", 6) ] -> ()
  | Ok other -> Alcotest.failf "unexpected events (%d)" (List.length other)
  | Error msg -> Alcotest.failf "tolerant parse failed: %s" msg

(* ------------------------------------------------------------------ *)
(* the weighted score *)

let test_score_formula () =
  check_int "zero" 0 (Score.score Score.zero_counts);
  check_int "instructions weigh 1" 7 (Score.score { Score.zero_counts with ir = 7 });
  check_int "L1 misses weigh 10" 30
    (Score.score { Score.zero_counts with i1mr = 1; d1mr = 1; d1mw = 1 });
  check_int "LL misses weigh 100" 300
    (Score.score { Score.zero_counts with ilmr = 1; dlmr = 1; dlmw = 1 });
  check_int "combined" (1000 + (10 * 20) + (100 * 3))
    (Score.score { Score.zero_counts with ir = 1000; d1mr = 20; dlmr = 3 })

let test_counts_of_events () =
  let c = Score.counts_of_events [ ("Ir", 42); ("DLmr", 7); ("Bc", 999) ] in
  check_int "Ir picked up" 42 c.Score.ir;
  check_int "DLmr picked up" 7 c.Score.dlmr;
  check_int "absent events are zero" 0 c.Score.d1mr

(* ------------------------------------------------------------------ *)
(* BENCH_*.json round-trip *)

let sample_file () =
  let r1 =
    Score.make_record ~query:"Q1" ~engine:"compiled-c" ~rows:4
      { Score.zero_counts with ir = 1000; dr = 1000; d1mr = 50; dlmr = 5 }
  in
  let r2 =
    Score.make_record ~query:"Q3" ~engine:"vectorwise" ~rows:10
      { Score.zero_counts with ir = 2000; dr = 2000; d1mr = 80; dlmr = 8 }
  in
  {
    Score.version = 1;
    suite = "tpch";
    backend = "sim";
    sf = 0.005;
    seed = 42;
    tool = "lq_cachesim/1";
    geometry_id = Sim.geometry_id;
    records = [ r1; r2 ];
  }

let test_json_roundtrip () =
  let f = sample_file () in
  let json = Score.to_json f in
  match Score.of_json json with
  | Error msg -> Alcotest.failf "round-trip parse failed: %s" msg
  | Ok f' ->
    check_bool "round-trips" true (f = f');
    (* a second print is byte-identical (committed baselines diff cleanly) *)
    check_str "printer deterministic" json (Score.to_json f')

let test_json_rejects () =
  let reject name s =
    match Score.of_json s with
    | Ok _ -> Alcotest.failf "%s: expected rejection" name
    | Error _ -> ()
  in
  reject "garbage" "not json";
  reject "wrong version" "{\"version\": 99}";
  reject "missing records" "{\"version\":1,\"suite\":\"tpch\",\"backend\":\"sim\",\"sf\":0.005,\"seed\":42,\"tool\":\"t\",\"geometry\":\"g\"}";
  (* a stored score inconsistent with its counts is data corruption *)
  let f = sample_file () in
  let json = Score.to_json f in
  let r1_score = Score.score (List.hd f.Score.records).Score.counts in
  let needle = Printf.sprintf "\"score\":%d" r1_score in
  check_bool "sample json carries the score" true (contains ~sub:needle json);
  let tampered =
    (* bump the first record's stored score by one *)
    let buf = Buffer.create (String.length json) in
    let n = String.length json and m = String.length needle in
    let rec go i replaced =
      if i >= n then ()
      else if (not replaced) && i + m <= n && String.sub json i m = needle then begin
        Buffer.add_string buf (Printf.sprintf "\"score\":%d" (r1_score + 1));
        go (i + m) true
      end
      else begin
        Buffer.add_char buf json.[i];
        go (i + 1) replaced
      end
    in
    go 0 false;
    Buffer.contents buf
  in
  reject "score/counts mismatch" tampered

(* ------------------------------------------------------------------ *)
(* gate verdict paths (pure comparator, no measurement) *)

let rec_of ~query ~engine score =
  Score.make_record ~query ~engine ~rows:1 { Score.zero_counts with ir = score }

let pair_verdict report ~query ~engine =
  match
    List.find_opt
      (fun (r : Gate.row) -> r.Gate.query = query && r.Gate.engine = engine)
      report.Gate.rows
  with
  | Some r -> r.Gate.verdict
  | None -> Alcotest.failf "no row for %s/%s" query engine

let test_gate_pass () =
  let base = [ rec_of ~query:"Q1" ~engine:"e" 1000 ] in
  let fresh = [ rec_of ~query:"Q1" ~engine:"e" 1030 ] in
  let report = Gate.compare_records ~baseline:base ~fresh () in
  check_bool "within threshold passes" true (Gate.ok report);
  check_bool "verdict pass" true (pair_verdict report ~query:"Q1" ~engine:"e" = Gate.Pass)

let test_gate_regression () =
  let base = [ rec_of ~query:"Q1" ~engine:"e" 1000; rec_of ~query:"Q3" ~engine:"e" 500 ] in
  let fresh = [ rec_of ~query:"Q1" ~engine:"e" 1100; rec_of ~query:"Q3" ~engine:"e" 500 ] in
  let report = Gate.compare_records ~baseline:base ~fresh () in
  check_bool "10% regression fails" false (Gate.ok report);
  check_int "one failure" 1 (List.length (Gate.failures report));
  check_bool "regressed pair flagged" true
    (pair_verdict report ~query:"Q1" ~engine:"e" = Gate.Regression);
  check_bool "other pair passes" true
    (pair_verdict report ~query:"Q3" ~engine:"e" = Gate.Pass);
  (* the delta table names the pair and the direction *)
  let table = Gate.render report in
  check_bool "table mentions REGRESSION" true (contains ~sub:"REGRESSION" table)

let test_gate_threshold_boundary () =
  let base = [ rec_of ~query:"Q1" ~engine:"e" 1000 ] in
  let at_5 = [ rec_of ~query:"Q1" ~engine:"e" 1050 ] in
  let above_5 = [ rec_of ~query:"Q1" ~engine:"e" 1051 ] in
  check_bool "exactly +5% passes" true
    (Gate.ok (Gate.compare_records ~baseline:base ~fresh:at_5 ()));
  check_bool "+5.1% fails" false
    (Gate.ok (Gate.compare_records ~baseline:base ~fresh:above_5 ()));
  check_bool "custom threshold honoured" true
    (Gate.ok (Gate.compare_records ~threshold_pct:10.0 ~baseline:base ~fresh:above_5 ()))

let test_gate_improvement () =
  let base = [ rec_of ~query:"Q1" ~engine:"e" 1000 ] in
  let fresh = [ rec_of ~query:"Q1" ~engine:"e" 500 ] in
  let report = Gate.compare_records ~baseline:base ~fresh () in
  check_bool "improvement passes" true (Gate.ok report);
  check_bool "but is surfaced" true
    (pair_verdict report ~query:"Q1" ~engine:"e" = Gate.Improved)

let test_gate_added () =
  let base = [ rec_of ~query:"Q1" ~engine:"e" 1000 ] in
  let fresh = [ rec_of ~query:"Q1" ~engine:"e" 1000; rec_of ~query:"Q5" ~engine:"e" 700 ] in
  let report = Gate.compare_records ~baseline:base ~fresh () in
  check_bool "new benchmark passes" true (Gate.ok report);
  check_bool "flagged added" true (pair_verdict report ~query:"Q5" ~engine:"e" = Gate.Added)

let test_gate_removed () =
  let base = [ rec_of ~query:"Q1" ~engine:"e" 1000; rec_of ~query:"Q5" ~engine:"e" 700 ] in
  let fresh = [ rec_of ~query:"Q1" ~engine:"e" 1000 ] in
  let report = Gate.compare_records ~baseline:base ~fresh () in
  check_bool "vanished benchmark fails" false (Gate.ok report);
  check_bool "flagged removed" true
    (pair_verdict report ~query:"Q5" ~engine:"e" = Gate.Removed)

let test_gate_config_mismatch () =
  let f = sample_file () in
  let check_mismatch name g =
    match Gate.check_config ~baseline:f ~fresh:g with
    | Ok () -> Alcotest.failf "%s: expected config mismatch" name
    | Error _ -> ()
  in
  check_mismatch "backend" { f with Score.backend = "cachegrind" };
  check_mismatch "seed" { f with Score.seed = 7 };
  check_mismatch "sf" { f with Score.sf = 0.01 };
  check_mismatch "geometry" { f with Score.geometry_id = "other" };
  match Gate.check_config ~baseline:f ~fresh:f with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "same config rejected: %s" msg

(* ------------------------------------------------------------------ *)
(* determinism: the gate is meaningless if inputs drift *)

let test_dbgen_deterministic () =
  let gen () = Lq_tpch.Dbgen.generate ~seed:Suite.default_seed ~sf:0.001 () in
  let a = gen () and b = gen () in
  check_bool "same seed, identical relations" true (a = b);
  let c = Lq_tpch.Dbgen.generate ~seed:7 ~sf:0.001 () in
  check_bool "different seed, different data" true (a <> c)

let test_shape_key_stable () =
  (* the compiled-plan cache and the perf baseline both key on the lowered
     plan's shape: two independent catalog loads must produce the same
     bytes for every suite query *)
  List.iter
    (fun (name, q) ->
      let k1 = Suite.shape_key ~sf:0.001 q in
      let k2 = Suite.shape_key ~sf:0.001 q in
      check_str (name ^ " shape key byte-stable") k1 k2)
    Suite.queries

let test_sim_deterministic () =
  let q =
    match Suite.find_query "Q6" with
    | Some q -> ("Q6", q)
    | None -> Alcotest.fail "Q6 missing from suite"
  in
  let engine = Lq_core.Engines.compiled_c in
  let m () =
    match Sim.measure ~sf:0.001 ~engine q with
    | Some r -> r
    | None -> Alcotest.fail "compiled-c refused Q6"
  in
  let a = m () and b = m () in
  check_bool "identical records across runs" true (a = b);
  check_bool "non-trivial score" true (a.Score.record_score > 0);
  check_int "Q6 is a scalar aggregate" 1 a.Score.rows;
  (* the measurement is hermetic: running another engine in between must
     not shift the counts (the gate runs pairs in suite order, tests
     don't) *)
  ignore (Sim.measure ~sf:0.001 ~engine:Lq_core.Engines.linq_to_objects q);
  let c = m () in
  check_bool "hermetic wrt process history" true (a = c)

(* ------------------------------------------------------------------ *)
(* the Figs. 8/10/12 path: phases folded from a traced run *)

let test_figure_phases () =
  let prov = Suite.provider ~sf:0.002 () in
  let params = Lq_tpch.Workloads.params ~sel:0.5 in
  List.iter
    (fun (name, (fig : Suite.breakdown)) ->
      match Suite.profile_engine prov ~engine:fig.Suite.engine ~params fig.Suite.workload with
      | None -> Alcotest.failf "%s: engine refused the workload" name
      | Some phases ->
        List.iter
          (fun label ->
            match List.assoc_opt label phases with
            | Some ms -> check_bool (Printf.sprintf "%s: %s >= 0" name label) true (ms >= 0.0)
            | None -> Alcotest.failf "%s: no %S phase" name label)
          fig.Suite.phases)
    [ ("fig8", Suite.fig8); ("fig10", Suite.fig10); ("fig12", Suite.fig12) ]

(* The promoted JIT tier reports its execute phase like every engine. *)
let test_jit_execute_phase () =
  let module Backend = Lq_jit.Backend in
  if not (Backend.cc_available ()) then print_endline "SKIPPED: no C compiler on PATH"
  else begin
    let env = [ ("LQ_JIT_MODE", "sync"); ("LQ_JIT", "on") ] in
    let saved = List.map (fun (k, _) -> (k, Sys.getenv_opt k)) env in
    let dir = Filename.temp_file "lq_bench_jit" ".cache" in
    Sys.remove dir;
    Unix.putenv "LQ_JIT_CACHE_DIR" dir;
    Backend.reset_for_tests ();
    List.iter (fun (k, v) -> Unix.putenv k v) env;
    Fun.protect ~finally:(fun () ->
        List.iter (fun (k, old) -> Unix.putenv k (Option.value old ~default:"")) saved)
    @@ fun () ->
    let engine = Lq_core.Engines.compiled_c_jit in
    let exec_jit () = Lq_metrics.Counters.count Backend.counters "service/jit/exec_jit" in
    let before = exec_jit () in
    match
      Suite.profile_engine (Suite.provider ~sf:0.002 ()) ~engine
        ~params:(Lq_tpch.Workloads.params ~sel:0.5) Lq_tpch.Workloads.aggregation
    with
    | None -> Alcotest.fail "compiled-c-jit refused the aggregation workload"
    | Some phases ->
      check_bool "the traced run was served by the jit tier" true (exec_jit () > before);
      check_bool "execute phase reported" true
        (match List.assoc_opt engine.Lq_catalog.Engine_intf.name phases with
        | Some ms -> ms >= 0.0
        | None -> false)
  end

let () =
  Alcotest.run "bench"
    [
      ("stats", [ Alcotest.test_case "median/mean/min" `Quick test_stats ]);
      ( "cachegrind parser",
        [
          Alcotest.test_case "golden output" `Quick test_parser_golden;
          Alcotest.test_case "malformed inputs" `Quick test_parser_malformed;
        ] );
      ( "score",
        [
          Alcotest.test_case "weighted formula" `Quick test_score_formula;
          Alcotest.test_case "events mapping" `Quick test_counts_of_events;
        ] );
      ( "bench json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects bad files" `Quick test_json_rejects;
        ] );
      ( "gate",
        [
          Alcotest.test_case "pass" `Quick test_gate_pass;
          Alcotest.test_case "regression fails" `Quick test_gate_regression;
          Alcotest.test_case "threshold boundary" `Quick test_gate_threshold_boundary;
          Alcotest.test_case "improvement surfaces" `Quick test_gate_improvement;
          Alcotest.test_case "benchmark added" `Quick test_gate_added;
          Alcotest.test_case "benchmark removed" `Quick test_gate_removed;
          Alcotest.test_case "config mismatch" `Quick test_gate_config_mismatch;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "dbgen seed-stable" `Quick test_dbgen_deterministic;
          Alcotest.test_case "shape keys byte-stable" `Quick test_shape_key_stable;
          Alcotest.test_case "sim backend bit-stable" `Quick test_sim_deterministic;
        ] );
      ( "breakdown",
        [
          Alcotest.test_case "figs 8/10/12 phases" `Quick test_figure_phases;
          Alcotest.test_case "jit execute phase" `Quick test_jit_execute_phase;
        ] );
    ]
