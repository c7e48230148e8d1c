(* Tests for the query provider: canonicalization, the compiled-query
   cache (hits, parameter rebinding), code-generation cost reporting, and
   instrumented (cache-simulated) execution. *)

open Lq_expr.Dsl
module Engine_intf = Lq_catalog.Engine_intf
module Provider = Lq_core.Provider

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let cat = Lq_testkit.sales_catalog ()

let q_with_const n =
  source "sales" |> where "s" (v "s" $. "qty" >: int n) |> select "s" (v "s" $. "id")

(* --- cache behaviour --- *)

let test_cache_hit_on_same_shape () =
  let prov = Provider.create cat in
  let engine = Lq_core.Engines.compiled_csharp in
  ignore (Provider.run prov ~engine (q_with_const 10));
  let stats = Provider.cache_stats prov in
  check_int "first is a miss" 1 stats.Lq_core.Query_cache.misses;
  ignore (Provider.run prov ~engine (q_with_const 20));
  ignore (Provider.run prov ~engine (q_with_const 30));
  let stats = Provider.cache_stats prov in
  check_int "same shape hits" 2 stats.Lq_core.Query_cache.hits;
  check_int "still one entry" 1 stats.Lq_core.Query_cache.entries;
  (* different structure misses *)
  ignore (Provider.run prov ~engine (source "sales" |> take 3));
  check_int "new shape misses" 2 (Provider.cache_stats prov).Lq_core.Query_cache.misses

let test_cache_canonicalization_merges_shapes () =
  (* after constant folding, computed constants share the shape of literal
     ones *)
  let prov = Provider.create cat in
  let engine = Lq_core.Engines.compiled_csharp in
  let literal = source "sales" |> where "s" (v "s" $. "qty" >: int 6) in
  let computed = source "sales" |> where "s" (v "s" $. "qty" >: (int 2 *: int 3)) in
  ignore (Provider.run prov ~engine literal);
  ignore (Provider.run prov ~engine computed);
  let stats = Provider.cache_stats prov in
  check_int "canonical forms share a plan" 1 stats.Lq_core.Query_cache.entries;
  check_int "second was a hit" 1 stats.Lq_core.Query_cache.hits

let test_cache_rebinding_correct () =
  let prov = Provider.create cat in
  List.iter
    (fun (engine : Engine_intf.t) ->
      match Provider.run prov ~engine (q_with_const 5) with
      | exception Engine_intf.Unsupported _ -> ()
      | _ ->
        List.iter
          (fun n ->
            let expected = Provider.reference prov (q_with_const n) in
            let got = Provider.run prov ~engine (q_with_const n) in
            check_bool
              (Printf.sprintf "rebound const %d / %s" n engine.name)
              true
              (Lq_testkit.rows_equal expected got))
          [ 0; 17; 42; 100 ])
    Lq_core.Engines.all

let test_cache_per_engine () =
  let prov = Provider.create cat in
  ignore (Provider.run prov ~engine:Lq_core.Engines.compiled_csharp (q_with_const 1));
  ignore (Provider.run prov ~engine:Lq_core.Engines.compiled_c (q_with_const 1));
  check_int "plans cached per engine" 2
    (Provider.cache_stats prov).Lq_core.Query_cache.entries

let test_cache_disabled () =
  let prov = Provider.create ~use_cache:false cat in
  let engine = Lq_core.Engines.compiled_csharp in
  ignore (Provider.run prov ~engine (q_with_const 1));
  ignore (Provider.run prov ~engine (q_with_const 1));
  check_int "no hits without cache" 0 (Provider.cache_stats prov).Lq_core.Query_cache.hits

let test_clear_cache () =
  let prov = Provider.create cat in
  ignore (Provider.run prov ~engine:Lq_core.Engines.compiled_csharp (q_with_const 1));
  Provider.clear_cache prov;
  check_int "cleared" 0 (Provider.cache_stats prov).Lq_core.Query_cache.entries

(* --- codegen cost reporting --- *)

let test_codegen_cost_reported () =
  let prov = Provider.create cat in
  List.iter
    (fun (engine : Engine_intf.t) ->
      match Provider.prepare_only prov ~engine (q_with_const 9) with
      | prepared, _ ->
        check_bool
          ("codegen_ms non-negative / " ^ engine.name)
          true
          (prepared.Engine_intf.codegen_ms >= 0.0)
      | exception Engine_intf.Unsupported _ -> ())
    Lq_core.Engines.all;
  (* code-generating engines report a source listing, interpreted ones
     don't *)
  let prov = Provider.create cat in
  let has_source engine =
    match Provider.prepare_only prov ~engine (q_with_const 9) with
    | prepared, _ -> prepared.Engine_intf.source <> None
    | exception Engine_intf.Unsupported _ -> false
  in
  check_bool "compiled C# has source" true (has_source Lq_core.Engines.compiled_csharp);
  check_bool "compiled C has source" true (has_source Lq_core.Engines.compiled_c);
  check_bool "hybrid has source" true (has_source Lq_core.Engines.hybrid);
  check_bool "baseline has none" false (has_source Lq_core.Engines.linq_to_objects);
  check_bool "volcano has none" false (has_source Lq_core.Engines.sqlserver_interpreted)

(* --- differential cache consistency --- *)

(* Caching must be semantically invisible: for a random query and random
   parameters, every engine must return the same rows on a cold run, a
   warm (plan- and result-cache hit) run, a run after clearing both
   caches, and a run on a provider whose caches are disabled outright. *)
let prop_cache_consistency =
  Lq_testkit.qtest ~count:30 "cache consistency: cold = warm = cleared = disabled"
    Lq_testkit.gen_query_with_params (fun (q, params) ->
      let cat = Lq_testkit.sales_catalog () in
      let cached = Provider.create ~recycle_results:true cat in
      let uncached = Provider.create ~query_cache_entries:0 cat in
      List.for_all
        (fun engine ->
          let runs =
            [
              ("cold", lazy (Lq_testkit.engine_agrees_with_reference ~params ~provider:cached cat engine q));
              ("warm", lazy (Lq_testkit.engine_agrees_with_reference ~params ~provider:cached cat engine q));
              ( "cleared",
                lazy
                  (Provider.clear_cache cached;
                   Provider.clear_result_cache cached;
                   Lq_testkit.engine_agrees_with_reference ~params ~provider:cached cat engine q) );
              ("disabled", lazy (Lq_testkit.engine_agrees_with_reference ~params ~provider:uncached cat engine q));
            ]
          in
          List.for_all
            (fun (label, outcome) ->
              match Lazy.force outcome with
              | `Agree | `Unsupported -> true
              | `Disagree _ ->
                QCheck2.Test.fail_reportf "%s run disagrees on %s:@.%s" label
                  engine.Engine_intf.name
                  (Lq_testkit.query_print q))
            runs)
        [
          Lq_core.Engines.linq_to_objects;
          Lq_core.Engines.compiled_csharp;
          Lq_core.Engines.compiled_c;
          Lq_core.Engines.hybrid;
          Lq_core.Engines.hybrid_buffered;
          Lq_core.Engines.hybrid_min;
          Lq_core.Engines.sqlserver_interpreted;
          Lq_core.Engines.vectorwise;
        ])

let test_disabled_cache_counts_misses () =
  let prov = Provider.create ~query_cache_entries:0 cat in
  let engine = Lq_core.Engines.compiled_csharp in
  ignore (Provider.run prov ~engine (q_with_const 1));
  ignore (Provider.run prov ~engine (q_with_const 1));
  let stats = Provider.cache_stats prov in
  check_int "no hits" 0 stats.Lq_core.Query_cache.hits;
  check_int "every run compiles" 2 stats.Lq_core.Query_cache.misses;
  check_int "nothing retained" 0 stats.Lq_core.Query_cache.entries

(* --- instrumented runs (Fig. 14 machinery) --- *)

let test_instrumented_runs () =
  let big = Lq_testkit.sales_catalog ~n:5000 () in
  let prov = Provider.create big in
  let q =
    source "sales"
    |> where "s" (v "s" $. "qty" >: int 5)
    |> group_by ~key:("s", v "s" $. "city")
         ~result:("g", record [ ("c", v "g" $. "Key"); ("t", sum (v "g") "x" (v "x" $. "price")) ])
  in
  let misses engine =
    let h = Lq_cachesim.Hierarchy.default () in
    let got = Provider.run_instrumented prov ~engine h q in
    let expected = Provider.reference prov q in
    check_bool "instrumented result correct" true (Lq_testkit.rows_equal expected got);
    (Lq_cachesim.Hierarchy.reads h, Lq_cachesim.Hierarchy.llc_misses h)
  in
  let reads_linq, _ = misses Lq_core.Engines.linq_to_objects in
  let reads_c, _ = misses Lq_core.Engines.compiled_c in
  check_bool "baseline models reads" true (reads_linq > 0);
  check_bool "native models reads" true (reads_c > 0)

(* --- the catalog does not own its providers --- *)

(* Every provider subscribes to its catalog's invalidation hooks, and a
   discarded provider's finaliser unsubscribes it: a thousand discarded
   providers, each with a compiled plan and a recycled result, leave no
   live words behind, while a live provider's hook still fires. *)
let test_discarded_providers_are_freed () =
  let cat = Lq_testkit.sales_catalog () in
  let q = q_with_const 3 in
  let run prov = ignore (Provider.run prov ~engine:Lq_core.Engines.compiled_c q : Lq_value.Value.t list) in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  run (Provider.create ~recycle_results:true cat);
  let before = live_words () in
  for _ = 1 to 1000 do
    run (Provider.create ~recycle_results:true cat)
  done;
  let grown = live_words () - before in
  check_bool (Printf.sprintf "1000 providers kept %d live words (< 1 Mw)" grown) true
    (grown < 1_000_000);
  let prov = Provider.create ~recycle_results:true cat in
  run prov;
  Lq_catalog.Catalog.replace cat ~name:"sales" ~schema:Lq_testkit.sales_schema
    (Lq_testkit.sales_rows ());
  check_int "a live provider's hook fired" 1
    (match Provider.result_cache_stats prov with
    | Some s -> s.Lq_core.Result_cache.invalidations
    | None -> 0)

let () =
  Alcotest.run "provider"
    [
      ( "cache",
        [
          Alcotest.test_case "hit on same shape" `Quick test_cache_hit_on_same_shape;
          Alcotest.test_case "canonicalization merges" `Quick
            test_cache_canonicalization_merges_shapes;
          Alcotest.test_case "rebinding correctness" `Quick test_cache_rebinding_correct;
          Alcotest.test_case "per engine" `Quick test_cache_per_engine;
          Alcotest.test_case "disabled" `Quick test_cache_disabled;
          Alcotest.test_case "clear" `Quick test_clear_cache;
        ] );
      ( "differential",
        [
          prop_cache_consistency;
          Alcotest.test_case "disabled cache counts misses" `Quick
            test_disabled_cache_counts_misses;
        ] );
      ("codegen", [ Alcotest.test_case "cost + listings" `Quick test_codegen_cost_reported ]);
      ("instrumented", [ Alcotest.test_case "cache-simulated runs" `Quick test_instrumented_runs ]);
      ( "lifetime",
        [ Alcotest.test_case "discarded providers are freed" `Quick test_discarded_providers_are_freed ] );
    ]
