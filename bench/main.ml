(* Benchmark harness: regenerates every table and figure of §7 of
   "Code Generation for Efficient Query Processing in Managed Runtimes"
   (Nagel, Bierman, Viglas, VLDB 2014), plus the in-text microbenchmarks.

   Usage:
     bench/main.exe                     all experiments, default scale
     bench/main.exe fig7 fig13 table1   a subset
     bench/main.exe --sf 0.05           bigger dataset
     bench/main.exe --quick             coarse sweeps, single timed run

   Absolute numbers depend on the machine and on OCaml-vs-CLR/C
   differences; the figures' *shapes* (who wins, by what factor, where
   crossovers happen) are what this harness reproduces. *)

open Lq_value
module Engine_intf = Lq_catalog.Engine_intf
module Provider = Lq_core.Provider
module Profile = Lq_metrics.Profile
module Args = Lq_bench.Args
module Suite = Lq_bench.Suite

(* ------------------------------------------------------------------ *)
(* configuration *)

let sf = ref 0.02
let quick = ref false
let targets = ref []

let arg_specs =
  [
    Args.Value
      ("--sf", "F", (fun v -> sf := Args.float_value v), "TPC-H scale factor (default 0.02)");
    Args.Flag ("--quick", (fun () -> quick := true), "coarse sweeps, single timed run");
  ]

let parse_args () =
  Args.parse ~prog:"bench/main.exe"
    ~positional:(fun t -> targets := t :: !targets)
    ~positional_doc:" [experiment...]" arg_specs
    (List.tl (Array.to_list Sys.argv))

let selectivities () =
  if !quick then [ 0.1; 0.5; 1.0 ]
  else [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]

let timed_runs () = if !quick then 1 else 3

(* ------------------------------------------------------------------ *)
(* timing helpers (shared with the scorer and the load generator) *)

let now_ms = Profile.now_ms
let time_engine prov ~engine = Suite.time_engine ~runs:(timed_runs ()) prov ~engine
let profile_engine = Suite.profile_engine

(* ------------------------------------------------------------------ *)
(* output helpers *)

let header title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n%!"

let note fmt = Printf.printf (fmt ^^ "\n%!")

let print_series ~xlabel ~xs ~series =
  Printf.printf "%-12s" xlabel;
  List.iter (fun (name, _) -> Printf.printf " %16s" name) series;
  print_newline ();
  List.iter
    (fun x ->
      Printf.printf "%-12s" x;
      List.iter (fun (_, cell) -> Printf.printf " %16s" (cell x)) series;
      print_newline ())
    xs;
  flush stdout

let fmt_ms = function
  | Some (ms, _) -> Printf.sprintf "%.1f" ms
  | None -> "unsupported"

(* ------------------------------------------------------------------ *)
(* shared state *)

let catalog = lazy (Lq_tpch.Dbgen.load ~sf:!sf ())
let provider = lazy (Provider.create (Lazy.force catalog))

let engines_fig =
  lazy
    [
      ("LINQ-to-Obj", Lq_core.Engines.linq_to_objects);
      ("C# Code", Lq_core.Engines.compiled_csharp);
      ("C Code", Lq_core.Engines.compiled_c);
      ("C#/C", Lq_core.Engines.hybrid);
      ("C#/C(Buf)", Lq_core.Engines.hybrid_buffered);
    ]

let run_sweep ~workload ~engines =
  let prov = Lazy.force provider in
  List.map
    (fun (name, engine) ->
      ( name,
        List.map
          (fun sel ->
            ( sel,
              time_engine prov ~engine ~params:(Lq_tpch.Workloads.params ~sel) workload ))
          (selectivities ()) ))
    engines

let print_sweep sweep =
  let xs = List.map (fun s -> Printf.sprintf "%.1f" s) (selectivities ()) in
  let series =
    List.map
      (fun (name, points) ->
        ( name,
          fun x ->
            let sel = float_of_string x in
            fmt_ms (List.assoc sel points) ))
      sweep
  in
  print_series ~xlabel:"selectivity" ~xs ~series

(* ------------------------------------------------------------------ *)
(* Fig. 7 / 9 / 11: evaluation time vs selectivity *)

let fig7 () =
  header "Figure 7: aggregation over selection (Q1 aggregates), time [ms] vs selectivity";
  note "expected shape: C < C#/C(Buf) <= C#/C < C# < LINQ-to-objects; gap widens with selectivity";
  print_sweep
    (run_sweep ~workload:Lq_tpch.Workloads.aggregation ~engines:(Lazy.force engines_fig))

let fig9 () =
  header "Figure 9: sorting over selection (order lineitem by extendedprice), time [ms]";
  note "expected shape: LINQ tracks C# (same quicksort); C and C#/C(Min) similar and fastest";
  let engines =
    [
      ("LINQ-to-Obj", Lq_core.Engines.linq_to_objects);
      ("C# Code", Lq_core.Engines.compiled_csharp);
      ("C Code", Lq_core.Engines.compiled_c);
      ("C#/C(Min)", Lq_core.Engines.hybrid_min);
    ]
  in
  print_sweep (run_sweep ~workload:Lq_tpch.Workloads.sorting ~engines)

let fig11 () =
  header "Figure 11: join over selections (Q3 joins), time [ms] vs selectivity";
  note "expected shape: C fastest; the four hybrid variants close together; LINQ slowest";
  let engines =
    Lazy.force engines_fig
    @ [
        ("C#/C(Min)", Lq_core.Engines.hybrid_min);
        ("C#/C(MinBuf)", Lq_core.Engines.hybrid_min_buffered);
      ]
  in
  print_sweep (run_sweep ~workload:Lq_tpch.Workloads.join ~engines)

(* ------------------------------------------------------------------ *)
(* Fig. 8 / 10 / 12: hybrid cost breakdown *)

let breakdown ~title (fig : Suite.breakdown) =
  header title;
  let prov = Lazy.force provider in
  let data =
    List.map
      (fun sel ->
        let phases =
          match
            profile_engine prov ~engine:fig.Suite.engine
              ~params:(Lq_tpch.Workloads.params ~sel) fig.Suite.workload
          with
          | Some phases -> phases
          | None -> []
        in
        (Printf.sprintf "%.1f" sel, phases))
      (selectivities ())
  in
  let xs = List.map fst data in
  let series =
    List.map
      (fun phase ->
        ( phase,
          fun x ->
            match List.assoc_opt phase (List.assoc x data) with
            | Some ms -> Printf.sprintf "%.1f" ms
            | None -> "-" ))
      fig.Suite.phases
  in
  print_series ~xlabel:"selectivity" ~xs ~series;
  note
    "(managed phases are timed per element in traced runs; totals are inflated, the split is the signal)"

let fig8 () =
  breakdown
    ~title:
      "Figure 8: aggregation cost breakdown for compiled C#/C (full materialization) [ms]"
    Suite.fig8

let fig10 () =
  breakdown ~title:"Figure 10: sorting cost breakdown for compiled C#/C (Min) [ms]"
    Suite.fig10

let fig12 () =
  breakdown ~title:"Figure 12: join cost breakdown for compiled C#/C (Max) [ms]" Suite.fig12

(* ------------------------------------------------------------------ *)
(* Fig. 13: TPC-H queries, % of LINQ-to-objects *)

let tpch_params = Lq_tpch.Queries.default_params

let fig13 () =
  header "Figure 13: TPC-H Q1/Q2/Q3 evaluation time, % of LINQ-to-objects";
  note "expected shape: C < C#/C(Buf) ~ C#/C < C# < 100%%";
  let prov = Lazy.force provider in
  let results =
    List.map
      (fun (qname, q) ->
        ( qname,
          List.map
            (fun (ename, engine) -> (ename, time_engine prov ~engine ~params:tpch_params q))
            (Lazy.force engines_fig) ))
      Lq_tpch.Queries.all
  in
  let series =
    List.map
      (fun (ename, _) ->
        ( ename,
          fun qname ->
            let row = List.assoc qname results in
            match (List.assoc "LINQ-to-Obj" row, List.assoc ename row) with
            | Some (base, _), Some (ms, _) -> Printf.sprintf "%.1f%%" (100.0 *. ms /. base)
            | _ -> "unsupported" ))
      (Lazy.force engines_fig)
  in
  print_series ~xlabel:"query" ~xs:(List.map fst Lq_tpch.Queries.all) ~series;
  note "absolute times [ms]:";
  List.iter
    (fun (qname, row) ->
      Printf.printf "  %-4s" qname;
      List.iter (fun (ename, r) -> Printf.printf " %s=%s" ename (fmt_ms r)) row;
      print_newline ())
    results

(* ------------------------------------------------------------------ *)
(* Fig. 14: LLC misses, % of LINQ-to-objects *)

let fig14 () =
  header "Figure 14: simulated last-level-cache misses, % of LINQ-to-objects";
  note "trace-driven 3-level cache model (32K/256K/3M, 64B lines); reduced scale";
  let small_sf = Float.min !sf 0.008 in
  let cat = Lq_tpch.Dbgen.load ~sf:small_sf () in
  let prov = Provider.create cat in
  let misses engine q =
    let h = Lq_cachesim.Hierarchy.default () in
    match Provider.run_instrumented prov ~engine ~params:tpch_params h q with
    | _ -> Some (Lq_cachesim.Hierarchy.llc_misses h)
    | exception Engine_intf.Unsupported _ -> None
  in
  let results =
    List.map
      (fun (qname, q) ->
        (qname, List.map (fun (ename, engine) -> (ename, misses engine q)) (Lazy.force engines_fig)))
      Lq_tpch.Queries.all
  in
  let series =
    List.map
      (fun (ename, _) ->
        ( ename,
          fun qname ->
            let row = List.assoc qname results in
            match (List.assoc "LINQ-to-Obj" row, List.assoc ename row) with
            | Some base, Some m ->
              Printf.sprintf "%.1f%%" (100.0 *. float_of_int m /. float_of_int (max 1 base))
            | _ -> "unsupported" ))
      (Lazy.force engines_fig)
  in
  print_series ~xlabel:"query" ~xs:(List.map fst Lq_tpch.Queries.all) ~series;
  note "expected shape: all compiled variants < 100%%; C lowest on Q1/Q2 (compact rows);";
  note "on Q3 the hybrids' small staged hash tables keep them competitive with C"

(* ------------------------------------------------------------------ *)
(* Table 1: comparison to DBMS stand-ins *)

let table1 () =
  header "Table 1: TPC-H queries against the DBMS stand-ins [ms]";
  note "SQL Server (interpreted) -> Volcano; SQL Server native -> compiled-c (Hekaton-style)";
  note "(receives the *correlated* Q2, which it refuses, as in the paper); VectorWise ->";
  note "vectorized columnar engine. LINQ-to-objects uses the hand-optimized Q2 plan.";
  let prov = Lazy.force provider in
  let rows =
    [
      ("SQLServer-interp", Lq_core.Engines.sqlserver_interpreted, `Decorrelated);
      ("SQLServer-native", Lq_core.Engines.compiled_c, `Correlated);
      ("VectorWise", Lq_core.Engines.vectorwise, `Decorrelated);
      ("LINQ-to-objects", Lq_core.Engines.linq_to_objects, `Decorrelated);
      ("Compiled C#/C", Lq_core.Engines.hybrid, `Decorrelated);
    ]
  in
  Printf.printf "%-18s %12s %12s %12s\n" "system" "Q1" "Q2" "Q3";
  List.iter
    (fun (name, engine, q2_form) ->
      let q2 =
        match q2_form with
        | `Decorrelated -> Lq_tpch.Queries.q2
        | `Correlated -> Lq_tpch.Queries.q2_correlated
      in
      let cell q =
        match time_engine prov ~engine ~params:tpch_params q with
        | Some (ms, _) -> Printf.sprintf "%.1f" ms
        | None -> "-"
      in
      Printf.printf "%-18s %12s %12s %12s\n%!" name (cell Lq_tpch.Queries.q1) (cell q2)
        (cell Lq_tpch.Queries.q3))
    rows;
  note "expected shape: compiled C#/C ~ VectorWise, well below both LINQ and Volcano;";
  note "native refuses Q2 (nested sub-query); Volcano slowest on the aggregation-heavy Q1"

(* ------------------------------------------------------------------ *)
(* §2.3 / §7 microbenchmarks *)

let time_query prov engine q params =
  match time_engine prov ~engine ~params q with
  | Some (ms, _) -> ms
  | None -> nan

let micro () =
  header "Microbenchmarks (§2.3 and §7 in-text numbers)";
  let prov = Lazy.force provider in
  let q1 = Lq_tpch.Queries.q1 in

  note "\n-- aggregation fusion (paper: single loop 38%%, +dedup 12%%, +collapse 10%%) --";
  (* Q1 written the way LINQ users write it: averages spelled out as
     Sum/Count, so the same Sum and Count appear several times — the
     "overlaps in the aggregation computations" §2.3 calls out. *)
  let q1_with_overlaps =
    let open Lq_expr.Dsl in
    let sum_qty g = sum (v g) "x" (v "x" $. "l_quantity") in
    let sum_price g = sum (v g) "x" (v "x" $. "l_extendedprice") in
    source "lineitem"
    |> where "l"
         (v "l" $. "l_shipdate" <=: add_days (date "1998-12-01") (neg (p "q1_delta")))
    |> group_by
         ~key:("l", v "l" $. "l_returnflag")
         ~result:
           ( "g",
             record
               [
                 ("flag", v "g" $. "Key");
                 ("sum_qty", sum_qty "g");
                 ("sum_price", sum_price "g");
                 ("avg_qty", sum_qty "g" /: count (v "g"));
                 ("avg_price", sum_price "g" /: count (v "g"));
                 ("count_order", count (v "g"));
               ] )
  in
  ignore q1;
  let open Lq_plan.Options in
  let variants =
    [
      ( "per-aggregate passes (naive)",
        { default with fuse_aggregates = false; dedup_aggregates = false } );
      ("fused, no dedup", { default with dedup_aggregates = false });
      ("fused + dedup (default)", default);
    ]
  in
  let timings =
    List.map
      (fun (name, opts) ->
        let engine = Lq_compiled.Csharp_engine.engine_with opts in
        (name, time_query prov engine q1_with_overlaps tpch_params))
      variants
  in
  let naive_ms = snd (List.hd timings) in
  List.iter
    (fun (name, ms) ->
      Printf.printf "  %-34s %8.1f ms   (%.0f%% of naive)\n%!" name ms
        (100.0 *. ms /. naive_ms))
    timings;

  note "\n-- selection push-down on a Q3-style query (paper: 35%% improvement) --";
  let open Lq_expr.Dsl in
  (* filters written *above* the joins, as a naive user would declare them *)
  let q3_filterable =
    let co =
      join
        ~on:(("c", v "c" $. "c_custkey"), ("o", v "o" $. "o_custkey"))
        ~result:
          ( "c",
            "o",
            record
              [
                ("c_mktsegment", v "c" $. "c_mktsegment");
                ("o_orderkey", v "o" $. "o_orderkey");
                ("o_orderdate", v "o" $. "o_orderdate");
              ] )
        (source "customer") (source "orders")
    in
    join
      ~on:(("co", v "co" $. "o_orderkey"), ("l", v "l" $. "l_orderkey"))
      ~result:
        ( "co",
          "l",
          record
            [
              ("c_mktsegment", v "co" $. "c_mktsegment");
              ("o_orderdate", v "co" $. "o_orderdate");
              ("l_shipdate", v "l" $. "l_shipdate");
              ( "rev",
                (v "l" $. "l_extendedprice") *: (float 1.0 -: (v "l" $. "l_discount")) );
            ] )
      co (source "lineitem")
    |> where "x"
         ((v "x" $. "c_mktsegment" =: p "q3_segment")
         &&: (v "x" $. "o_orderdate" <: p "q3_date")
         &&: (v "x" $. "l_shipdate" >: p "q3_date"))
    |> group_by
         ~key:("x", v "x" $. "o_orderdate")
         ~result:
           ("g", record [ ("d", v "g" $. "Key"); ("r", sum (v "g") "e" (v "e" $. "rev")) ])
  in
  let engine = Lq_core.Engines.compiled_csharp in
  let prov_off = Provider.create ~optimizer:Lq_core.Optimizer.none (Lazy.force catalog) in
  let declared = time_query prov_off engine q3_filterable tpch_params in
  let optimized = time_query prov engine q3_filterable tpch_params in
  Printf.printf "  filters above joins (declared order)  %8.1f ms\n" declared;
  Printf.printf "  after selection push-down             %8.1f ms   (%.0f%% faster)\n%!"
    optimized
    (100.0 *. (declared -. optimized) /. declared);

  note "\n-- OrderBy+Take fusion (§2.3 'independent operators': heap vs full sort) --";
  let topk_q =
    source "lineitem" |> order_by [ ("s", v "s" $. "l_extendedprice", desc) ] |> take 10
  in
  let fused = time_query prov engine topk_q [] in
  let unfused =
    time_query prov
      (Lq_compiled.Csharp_engine.engine_with { default with fuse_topk = false })
      topk_q []
  in
  Printf.printf "  full sort then Take(10)               %8.1f ms\n" unfused;
  Printf.printf "  fused top-K heap                      %8.1f ms   (%.1fx)\n%!" fused
    (unfused /. fused);

  note "\n-- hash join vs nested loops (vs Steno-style codegen, §8) --";
  let join_q =
    join
      ~on:(("l", v "l" $. "l_orderkey"), ("o", v "o" $. "o_orderkey"))
      ~result:("l", "o", record [ ("k", v "l" $. "l_orderkey") ])
      (source "lineitem" |> take 2000)
      (source "orders" |> take 2000)
  in
  let hash = time_query prov engine join_q [] in
  let nested =
    time_query prov
      (Lq_compiled.Csharp_engine.engine_with { default with hash_join = false })
      join_q []
  in
  Printf.printf "  nested-loops join (2000x2000)         %8.1f ms\n" nested;
  Printf.printf "  hash join                             %8.1f ms   (%.0fx)\n%!" hash
    (nested /. hash);

  note "\n-- quicksort on unboxed vs boxed data (paper: same algorithm, C 58%% faster) --";
  let n = 200_000 in
  let rng = Lq_exec.Prng.create 17 in
  let floats = Array.init n (fun _ -> Lq_exec.Prng.float rng 1e6) in
  let boxed = Array.map (fun f -> Value.Float f) floats in
  let t_unboxed =
    let a = Array.copy floats in
    let t0 = now_ms () in
    Lq_exec.Quicksort.floats a;
    now_ms () -. t0
  in
  let t_boxed =
    let idx = Array.init n Fun.id in
    let t0 = now_ms () in
    Lq_exec.Quicksort.indices_by
      ~cmp:(fun i j -> Lq_expr.Scalar.cmp boxed.(i) boxed.(j))
      idx;
    now_ms () -. t0
  in
  Printf.printf "  quicksort %d floats, flat array    %8.1f ms\n" n t_unboxed;
  Printf.printf "  same sort through boxed values       %8.1f ms   (flat is %.0f%% faster)\n%!"
    t_boxed
    (100.0 *. (t_boxed -. t_unboxed) /. t_boxed);

  note "\n-- varying the number of aggregates (§7.1) --";
  List.iter
    (fun nagg ->
      let w = Lq_tpch.Workloads.aggregation_n nagg in
      let params = Lq_tpch.Workloads.params ~sel:0.5 in
      let linq = time_query prov Lq_core.Engines.linq_to_objects w params in
      let hybrid = time_query prov Lq_core.Engines.hybrid w params in
      Printf.printf "  %d aggregates: LINQ %8.1f ms   C#/C %8.1f ms   (%.1fx)\n%!" nagg linq
        hybrid (linq /. hybrid))
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* codegen cost (§7.4 in-text) *)

let codegen () =
  header "Code generation and compilation cost (§7.4 in-text; plan-build times)";
  let cat = Lazy.force catalog in
  let prov = Provider.create ~use_cache:false cat in
  Printf.printf "%-6s %-22s %12s %10s\n" "query" "engine" "codegen[ms]" "source[B]";
  List.iter
    (fun (qname, q) ->
      (* The shared lowering runs once per request, in the front end; its
         cost is printed apart from each engine's prepare. *)
      let optimized = Provider.optimized prov q in
      let t0 = Lq_metrics.Profile.now_ms () in
      ignore (Lq_plan.Lower.lower cat optimized);
      Printf.printf "%-6s %-22s %12.2f %10s\n%!" qname "(shared lowering)"
        (Lq_metrics.Profile.now_ms () -. t0)
        "-";
      List.iter
        (fun (ename, engine) ->
          match Provider.prepare_only prov ~engine q with
          | prepared, _ ->
            Printf.printf "%-6s %-22s %12.2f %10d\n%!" qname ename
              prepared.Engine_intf.codegen_ms
              (match prepared.Engine_intf.source with
              | Some s -> String.length s
              | None -> 0)
          | exception Engine_intf.Unsupported _ ->
            Printf.printf "%-6s %-22s %12s %10s\n%!" qname ename "-" "-")
        (Lazy.force engines_fig))
    Lq_tpch.Queries.all;
  (* the cache amortization story *)
  let prov = Lazy.force provider in
  Provider.clear_cache prov;
  let deltas = [ 30; 60; 90; 120; 150 ] in
  List.iter
    (fun d ->
      let params = ("q1_delta", Value.Int d) :: List.remove_assoc "q1_delta" tpch_params in
      ignore (Provider.run prov ~engine:Lq_core.Engines.compiled_c ~params Lq_tpch.Queries.q1))
    deltas;
  let stats = Provider.cache_stats prov in
  note "\nquery cache across %d parameter variants of Q1: %d compilation(s), %d hit(s)"
    (List.length deltas) stats.Lq_core.Query_cache.misses stats.Lq_core.Query_cache.hits;
  note "\ncache observability (per-engine hit/miss/compile-time counters):";
  note "%s" (Provider.report prov)

(* ------------------------------------------------------------------ *)
(* bechamel micro: per-element operator overhead *)

let bechamel_micro () =
  header "Bechamel micro: per-element cost of the enumerator pipeline vs a fused loop";
  let open Bechamel in
  let n = 10_000 in
  let arr = Array.init n (fun i -> i) in
  let pipeline_test =
    Test.make ~name:"enumerator pipeline (where+select+sum)"
      (Staged.stage (fun () ->
           let open Lq_enum.Enumerable in
           sum_int Fun.id
             (select (fun x -> x * 2) (where (fun x -> x land 1 = 0) (of_array arr)))))
  in
  let fused_test =
    Test.make ~name:"fused loop (generated-code shape)"
      (Staged.stage (fun () ->
           let acc = ref 0 in
           for i = 0 to n - 1 do
             let x = Array.unsafe_get arr i in
             if x land 1 = 0 then acc := !acc + (x * 2)
           done;
           !acc))
  in
  let benchmark test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
    let raw = Benchmark.all cfg instances test in
    let results =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |])
        Toolkit.Instance.monotonic_clock raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "  %-45s %12.1f ns/call\n%!" name est
        | _ -> Printf.printf "  %-45s (no estimate)\n%!" name)
      results
  in
  benchmark pipeline_test;
  benchmark fused_test;
  note "(the ratio is the §2.3 per-element interpretation/virtual-call overhead)"

(* ------------------------------------------------------------------ *)
(* extensions beyond the paper (§9 future work) *)

let extensions () =
  header "Extensions (§9 future work): indexes, result recycling, parallel scans";
  let open Lq_expr.Dsl in
  let cat = Lazy.force catalog in
  let prov = Lazy.force provider in

  note "\n-- hash index on a point predicate (native backend) --";
  let point = source "lineitem" |> where "l" (v "l" $. "l_orderkey" =: p "k") in
  (* time a batch of lookups with varying keys (one plan, rebound) *)
  let batch prov =
    match Provider.prepare_only prov ~engine:Lq_core.Engines.compiled_c point with
    | exception Engine_intf.Unsupported _ -> nan
    | prepared, _ ->
      let run k =
        ignore (prepared.Engine_intf.execute ~params:[ ("k", Value.Int k) ] ())
      in
      run 1;
      let t0 = now_ms () in
      for k = 1 to 500 do
        run (k * 17)
      done;
      (now_ms () -. t0) /. 500.0
  in
  let scan_ms = batch prov in
  Lq_catalog.Catalog.create_index cat ~table:"lineitem" ~column:"l_orderkey";
  let index_ms = batch (Provider.create cat) in
  Printf.printf "  full scan  (per point lookup)          %8.4f ms\n" scan_ms;
  Printf.printf "  index probe (per point lookup)         %8.4f ms   (%.0fx)\n%!" index_ms
    (scan_ms /. index_ms);

  note "\n-- result recycling (repeated dashboard query) --";
  let recycling = Provider.create ~recycle_results:true cat in
  let q = Lq_tpch.Queries.q3 in
  let timed () =
    let t0 = now_ms () in
    ignore (Provider.run recycling ~engine:Lq_core.Engines.hybrid ~params:tpch_params q);
    now_ms () -. t0
  in
  let cold = timed () in
  let warm = timed () in
  Printf.printf "  first execution (compiles + runs)      %8.3f ms\n" cold;
  Printf.printf "  repeated execution (recycled result)   %8.3f ms   (%.0fx)\n%!" warm
    (cold /. warm);
  (match Provider.result_cache_stats recycling with
  | Some s ->
    Printf.printf "  result cache: %d entr%s, %d rows held, %d hit(s), %d miss(es)\n%!"
      s.Lq_core.Result_cache.entries
      (if s.Lq_core.Result_cache.entries = 1 then "y" else "ies")
      s.Lq_core.Result_cache.cached_rows s.Lq_core.Result_cache.hits
      s.Lq_core.Result_cache.misses
  | None -> ());

  note "\n-- parallel native scans (OCaml domains) --";
  let w = Lq_tpch.Workloads.aggregation in
  let params = Lq_tpch.Workloads.params ~sel:1.0 in
  let seq = time_query prov Lq_core.Engines.compiled_c w params in
  List.iter
    (fun domains ->
      let engine = Lq_parallel.Parallel_engine.engine_with ~domains in
      let ms = time_query prov engine w params in
      Printf.printf "  %d domain(s)                            %8.1f ms   (%.2fx vs sequential C)\n%!"
        domains ms (seq /. ms))
    [ 1; 2; 4 ];
  Printf.printf "  (sequential C: %.1f ms; this host reports %d recommended domains)\n%!"
    seq (Domain.recommended_domain_count ());

  note "\n-- extended TPC-H queries (beyond the paper's Q1-Q3) --";
  let eparams = Lq_tpch.Queries.extended_params in
  Printf.printf "%-6s" "query";
  List.iter (fun (n, _) -> Printf.printf " %14s" n) (Lazy.force engines_fig);
  print_newline ();
  List.iter
    (fun (qname, q) ->
      Printf.printf "%-6s" qname;
      List.iter
        (fun (_, engine) ->
          Printf.printf " %14s" (fmt_ms (time_engine prov ~engine ~params:eparams q)))
        (Lazy.force engines_fig);
      print_newline ())
    Lq_tpch.Queries.extended

(* ------------------------------------------------------------------ *)
(* tracing overhead: the off-path must stay one atomic load *)

let trace_overhead () =
  header "Tracing overhead: span-point cost with tracing off vs on";
  let module Trace = Lq_trace.Trace in
  let span_point () =
    Trace.with_span Trace.Execute "bench" (fun () -> Sys.opaque_identity ())
  in
  let time_loop n f =
    let t0 = now_ms () in
    for _ = 1 to n do
      f ()
    done;
    (now_ms () -. t0) *. 1e6 /. float_of_int n
  in
  (* warm up, then measure the disabled fast path (no live trace in the
     whole process: one atomic load and a branch per span point) *)
  ignore (time_loop 10_000 span_point);
  let off_ns = time_loop 1_000_000 span_point in
  let tr = Trace.start ~label:"bench" () in
  let on_ns = Trace.with_trace tr (fun () -> time_loop 200_000 span_point) in
  Trace.finish tr;
  Printf.printf "  span point, tracing off %10.1f ns\n" off_ns;
  Printf.printf "  span point, tracing on  %10.1f ns   (%d spans recorded)\n%!" on_ns
    (List.length (Trace.spans tr));
  (* end-to-end: a warm compiled query untraced vs traced *)
  let prov = Lazy.force provider in
  let w = Lq_tpch.Workloads.aggregation in
  let params = Lq_tpch.Workloads.params ~sel:1.0 in
  let untraced = time_query prov Lq_core.Engines.compiled_c w params in
  let tr = Trace.start ~label:"bench-e2e" () in
  let traced =
    Trace.with_trace tr (fun () -> time_query prov Lq_core.Engines.compiled_c w params)
  in
  Trace.finish tr;
  Printf.printf "  warm query, untraced    %10.3f ms\n" untraced;
  Printf.printf "  warm query, traced      %10.3f ms\n%!" traced

(* ------------------------------------------------------------------ *)
(* native JIT: wall-clock only (excluded from the deterministic scored
   suite — see Lq_bench.Suite.scored_engines) *)

let jit () =
  header "Native JIT: emitted C compiled by cc, dlopened (wall-clock)";
  if not (Lq_jit.Backend.cc_available ()) then begin
    note "SKIPPED: no C compiler on PATH (set LQ_CC to override)";
    note "the compiled-c-jit engine serves its interpreted tier on this host"
  end
  else begin
    (* Sync mode: the first prepare pays the cc run, so the jit tier is
       measurable deterministically. *)
    Unix.putenv "LQ_JIT_MODE" "sync";
    let prov = Lazy.force provider in
    let params = tpch_params @ Lq_tpch.Queries.extended_params in
    note "\n-- interpreted native tier vs dlopened object (warm, per query) --";
    List.iter
      (fun (name, q) ->
        let interp = time_query prov Lq_core.Engines.compiled_c q params in
        let jitted = time_query prov Lq_core.Engines.compiled_c_jit q params in
        Printf.printf "  %-8s interpreted %8.3f ms   jit %8.3f ms   (%.2fx)\n%!" name interp
          jitted (interp /. jitted))
      (Lq_tpch.Queries.all @ Lq_tpch.Queries.extended);
    let c = Lq_metrics.Counters.count Lq_jit.Backend.counters in
    note "\n-- tier counters --";
    Printf.printf "  compiles %d, mem hits %d, disk hits %d, jit execs %d, interpreted execs %d\n%!"
      (c "service/jit/compiles")
      (c "service/jit/cache_hit_mem")
      (c "service/jit/cache_hit_disk")
      (c "service/jit/exec_jit")
      (c "service/jit/exec_interpreted")
  end

(* ------------------------------------------------------------------ *)
(* morsel scheduling across Domain counts (wall-clock) *)

let morsel () =
  header "Morsel-driven scheduling across Domain counts (wall-clock)";
  let prov = Lazy.force provider in
  let w = Lq_tpch.Workloads.aggregation in
  let params = Lq_tpch.Workloads.params ~sel:1.0 in
  let seq = time_query prov Lq_core.Engines.compiled_c w params in
  Printf.printf "  sequential C                           %8.1f ms\n" seq;
  Printf.printf "  (morsel size: %s rows; override with LQ_MORSEL_SIZE)\n%!"
    (match Sys.getenv_opt "LQ_MORSEL_SIZE" with
    | Some s when s <> "" -> s
    | _ -> string_of_int Lq_parallel.Parallel_engine.default_morsel_size);
  List.iter
    (fun domains ->
      let ms = time_query prov (Lq_parallel.Parallel_engine.engine_with ~domains) w params in
      Printf.printf "  %d domain(s)   morsel %8.1f ms   (%.2fx vs seq)\n%!" domains ms
        (seq /. ms))
    [ 1; 2; 4 ]

let all_experiments =
  [
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("table1", table1);
    ("micro", micro);
    ("codegen", codegen);
    ("extensions", extensions);
    ("bechamel", bechamel_micro);
    ("trace", trace_overhead);
    ("jit", jit);
    ("morsel", morsel);
  ]

let () =
  parse_args ();
  let chosen =
    match !targets with
    | [] -> List.map fst all_experiments
    | ts -> List.rev ts
  in
  let sz = Lq_tpch.Dbgen.sizes ~sf:!sf in
  Printf.printf
    "TPC-H scale factor %.3f (%d lineitems expected), %d timed run(s) per point\n%!" !sf
    sz.Lq_tpch.Dbgen.lineitems (timed_runs ());
  List.iter
    (fun name ->
      match List.assoc_opt name all_experiments with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown experiment %S; available: %s\n" name
          (String.concat ", " (List.map fst all_experiments));
        exit 2)
    chosen
