(* Unit tests for the caching layer: the weighted LRU substrate, the
   bounded compiled-query cache (eviction order, cost-aware admission,
   exact counters), the doubly-bounded result cache with table
   invalidation, the counters registry, and the monotonic clock. *)

open Lq_value
open Lq_expr.Dsl
module Counters = Lq_metrics.Counters
module Lru = Lq_lru.Lru
module Query_cache = Lq_core.Query_cache
module Result_cache = Lq_core.Result_cache
module Provider = Lq_core.Provider

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- the LRU substrate --- *)

let test_lru_order () =
  let l = Lru.create ~max_entries:3 () in
  let put k = ignore (Lru.add l ~key:k k) in
  put "a";
  put "b";
  put "c";
  check_int "full" 3 (Lru.length l);
  (* touching "a" promotes it; "b" becomes the victim *)
  check_bool "find promotes" true (Lru.find l "a" = Some "a");
  (match Lru.add l ~key:"d" "d" with
  | Some [ ("b", "b") ] -> ()
  | _ -> Alcotest.fail "expected exactly b to be evicted");
  check_bool "a survives" true (Lru.mem l "a");
  check_bool "b gone" false (Lru.mem l "b");
  check_bool "MRU first" true (List.map fst (Lru.to_alist l) = [ "d"; "a"; "c" ])

let test_lru_peek_does_not_promote () =
  let l = Lru.create ~max_entries:2 () in
  ignore (Lru.add l ~key:"a" 1);
  ignore (Lru.add l ~key:"b" 2);
  check_bool "peek sees a" true (Lru.peek l "a" = Some 1);
  (* "a" is still LRU despite the peek *)
  check_bool "a is victim" true (fst (Option.get (Lru.peek_lru l)) = "a");
  ignore (Lru.add l ~key:"c" 3);
  check_bool "a evicted" false (Lru.mem l "a")

let test_lru_weight_bound () =
  let l = Lru.create ~max_weight:10 () in
  check_bool "admitted" true (Lru.add l ~key:"a" ~weight:4 "a" = Some []);
  ignore (Lru.add l ~key:"b" ~weight:4 "b");
  check_int "weight tracked" 8 (Lru.total_weight l);
  (* pushing past the weight budget evicts LRU entries until it fits *)
  (match Lru.add l ~key:"c" ~weight:6 "c" with
  | Some [ ("a", _) ] -> ()
  | _ -> Alcotest.fail "expected a evicted by weight pressure");
  check_int "within budget" 10 (Lru.total_weight l);
  (* an entry that alone exceeds the budget is refused, cache untouched *)
  check_bool "oversized refused" true (Lru.add l ~key:"huge" ~weight:11 "x" = None);
  check_int "untouched" 2 (Lru.length l)

let test_lru_disabled_and_replace () =
  let off = Lru.create ~max_entries:0 () in
  check_bool "disabled admits nothing" true (Lru.add off ~key:"a" 1 = None);
  check_bool "disabled finds nothing" true (Lru.find off "a" = None);
  let l = Lru.create ~max_entries:4 ~max_weight:100 () in
  ignore (Lru.add l ~key:"k" ~weight:10 1);
  ignore (Lru.add l ~key:"k" ~weight:3 2);
  check_int "replace keeps one entry" 1 (Lru.length l);
  check_int "replace updates weight" 3 (Lru.total_weight l);
  check_bool "replace updates value" true (Lru.find l "k" = Some 2);
  check_bool "remove returns value" true (Lru.remove l "k" = Some 2);
  check_int "empty" 0 (Lru.length l);
  check_int "no weight" 0 (Lru.total_weight l)

let test_lru_drop_where () =
  let l = Lru.create () in
  List.iter (fun k -> ignore (Lru.add l ~key:k (String.length k))) [ "x"; "yy"; "zzz"; "w" ];
  check_int "two dropped" 2 (Lru.drop_where l (fun _ n -> n = 1));
  check_bool "others kept" true (Lru.mem l "yy" && Lru.mem l "zzz")

(* --- the compiled-query cache --- *)

let fake_prepared ?(cost = 1.0) tag =
  {
    Lq_catalog.Engine_intf.execute =
      (fun ~params () ->
        ignore params;
        [ Value.Str tag ]);
    codegen_ms = cost;
    source = None;
  }

let compile_counting calls ?(cost = 1.0) tag () =
  incr calls;
  fake_prepared ~cost tag

let test_query_cache_eviction_and_stats () =
  let qc = Query_cache.create ~max_entries:2 () in
  let calls = ref 0 in
  let touch shape =
    ignore (Query_cache.find_or_compile qc ~engine:"e" ~shape ~compile:(compile_counting calls shape) ())
  in
  touch "s1";
  touch "s2";
  touch "s1";
  (* s2 is now LRU; s3 must evict it *)
  touch "s3";
  touch "s2";
  let stats = Query_cache.stats qc in
  check_int "compiles" 4 !calls;
  check_int "hits" 1 stats.Query_cache.hits;
  check_int "misses" 4 stats.Query_cache.misses;
  check_int "entries bounded" 2 stats.Query_cache.entries;
  check_int "evictions" 2 stats.Query_cache.evictions;
  check_int "nothing rejected" 0 stats.Query_cache.rejected;
  check_bool "compile time accumulated" true (stats.Query_cache.compile_ms = 4.0);
  check_bool "conservation" true
    (stats.Query_cache.hits + stats.Query_cache.misses = 5)

let test_query_cache_per_engine_counters () =
  let qc = Query_cache.create () in
  let calls = ref 0 in
  let touch engine shape cost =
    ignore
      (Query_cache.find_or_compile qc ~engine ~shape
         ~compile:(compile_counting calls ~cost shape) ())
  in
  touch "interp" "s" 0.5;
  touch "interp" "s" 0.5;
  touch "native" "s" 40.0;
  let c = Query_cache.counters qc in
  check_int "interp hits" 1 (Counters.count c "hits/interp");
  check_int "interp misses" 1 (Counters.count c "misses/interp");
  check_int "native misses" 1 (Counters.count c "misses/native");
  check_bool "native compile time" true (Counters.value c "compile_ms/native" = 40.0);
  check_bool "both engines listed" true (Query_cache.engines qc = [ "interp"; "native" ]);
  Query_cache.clear qc;
  check_int "clear resets counters" 0 (Counters.count c "hits/interp");
  check_int "clear drops plans" 0 (Query_cache.stats qc).Query_cache.entries

let test_query_cache_cost_aware_admission () =
  let qc = Query_cache.create ~max_entries:1 ~admission:(Query_cache.Cost_aware 4.0) () in
  let calls = ref 0 in
  let touch shape cost =
    ignore
      (Query_cache.find_or_compile qc ~engine:"e" ~shape
         ~compile:(compile_counting calls ~cost shape) ())
  in
  touch "expensive" 100.0;
  (* a much cheaper plan must not displace the expensive one... *)
  touch "cheap" 1.0;
  let stats = Query_cache.stats qc in
  check_int "cheap rejected" 1 stats.Query_cache.rejected;
  check_int "no eviction" 0 stats.Query_cache.evictions;
  touch "expensive" 100.0;
  check_int "expensive still cached" 1 (Query_cache.stats qc).Query_cache.hits;
  (* ...but a comparably expensive plan displaces it normally *)
  touch "peer" 50.0;
  let stats = Query_cache.stats qc in
  check_int "peer admitted" 1 stats.Query_cache.evictions;
  touch "peer" 50.0;
  check_int "peer cached" 2 (Query_cache.stats qc).Query_cache.hits

(* --- the result cache --- *)

let rows n = List.init n (fun i -> Value.Int i)

let test_result_cache_bounds () =
  let rc = Result_cache.create ~max_entries:10 ~max_rows:100 () in
  Result_cache.store rc "a" ~tables:[ "t1" ] (rows 60);
  Result_cache.store rc "b" ~tables:[ "t2" ] (rows 30);
  let stats = Result_cache.stats rc in
  check_int "rows accounted" 90 stats.Result_cache.cached_rows;
  (* 50 more rows exceed the budget: LRU entry "a" must go *)
  Result_cache.store rc "c" ~tables:[ "t1"; "t2" ] (rows 50);
  let stats = Result_cache.stats rc in
  check_int "within budget" 80 stats.Result_cache.cached_rows;
  check_int "one eviction" 1 stats.Result_cache.evictions;
  check_bool "a evicted" true (Result_cache.find rc "a" = None);
  check_bool "b kept" true (Result_cache.find rc "b" <> None);
  (* an oversized result is never admitted *)
  Result_cache.store rc "huge" (rows 101);
  check_int "oversized not admitted" 2 (Result_cache.stats rc).Result_cache.entries

let test_result_cache_invalidation_scoped () =
  let rc = Result_cache.create () in
  Result_cache.store rc "a" ~tables:[ "sales" ] (rows 5);
  Result_cache.store rc "b" ~tables:[ "shops" ] (rows 5);
  Result_cache.store rc "c" ~tables:[ "sales"; "shops" ] (rows 5);
  Result_cache.invalidate rc ~table:"sales";
  let stats = Result_cache.stats rc in
  check_int "only sales-dependent entries dropped" 1 stats.Result_cache.entries;
  check_int "two invalidations" 2 stats.Result_cache.invalidations;
  check_bool "shops-only entry survives" true (Result_cache.find rc "b" <> None);
  Result_cache.invalidate rc ~table:"never_heard_of_it";
  check_int "unknown table is a no-op" 2
    (Result_cache.stats rc).Result_cache.invalidations

let test_result_cache_exact_counters () =
  let rc = Result_cache.create ~max_entries:2 () in
  ignore (Result_cache.find rc "a");
  Result_cache.store rc "a" (rows 3);
  ignore (Result_cache.find rc "a");
  ignore (Result_cache.find rc "a");
  let stats = Result_cache.stats rc in
  check_int "hits" 2 stats.Result_cache.hits;
  check_int "misses" 1 stats.Result_cache.misses;
  check_int "entries" 1 stats.Result_cache.entries;
  check_int "rows" 3 stats.Result_cache.cached_rows;
  Result_cache.clear rc;
  let stats = Result_cache.stats rc in
  check_int "cleared entries" 0 stats.Result_cache.entries;
  check_int "cleared hits" 0 stats.Result_cache.hits

(* Two executions may share a recycled result only when every constant
   and parameter is identical, type included: a key that printed values
   with 6 significant digits and no type would let 1234567. answer for
   1234568. and [Int 1] for [Float 1.0]. *)
let test_result_cache_keys_exact () =
  let schema = Schema.make [ ("id", Vtype.Int) ] in
  let cat = Lq_catalog.Catalog.create () in
  Lq_catalog.Catalog.add cat ~name:"t" ~schema [ Schema.row schema [ Value.Int 0 ] ];
  let prov = Provider.create ~recycle_results:true cat in
  let run ?params q = Provider.run prov ~engine:Lq_core.Engines.linq_to_objects ?params q in
  let const x = source "t" |> select "s" (float x) in
  check_bool "first float" true (run (const 1234567.) = [ Value.Float 1234567. ]);
  check_bool "nearby float is not a hit" true (run (const 1234568.) = [ Value.Float 1234568. ]);
  let param = source "t" |> select "s" (p "x") in
  check_bool "int param" true (run ~params:[ ("x", Value.Int 1) ] param = [ Value.Int 1 ]);
  check_bool "float param keeps its type" true
    (run ~params:[ ("x", Value.Float 1.0) ] param = [ Value.Float 1.0 ]);
  let stats = Option.get (Provider.result_cache_stats prov) in
  check_int "no false hits" 0 stats.Result_cache.hits;
  check_int "four entries" 4 stats.Result_cache.entries;
  check_bool "a repeat still hits" true
    (run ~params:[ ("x", Value.Float 1.0) ] param = [ Value.Float 1.0 ]);
  check_int "one hit" 1 (Option.get (Provider.result_cache_stats prov)).Result_cache.hits

(* --- catalog-driven invalidation through the provider --- *)

let test_catalog_invalidation_hook () =
  let schema = Schema.make [ ("id", Vtype.Int) ] in
  let mk n = List.init n (fun i -> Schema.row schema [ Value.Int i ]) in
  let cat = Lq_catalog.Catalog.create () in
  Lq_catalog.Catalog.add cat ~name:"t" ~schema (mk 4);
  Lq_catalog.Catalog.add cat ~name:"u" ~schema (mk 2);
  let prov = Provider.create ~recycle_results:true cat in
  let engine = Lq_core.Engines.linq_to_objects in
  let q_t = source "t" |> where "s" (v "s" $. "id" >=: int 0) in
  let q_u = source "u" |> where "s" (v "s" $. "id" >=: int 0) in
  check_int "t cold" 4 (List.length (Provider.run prov ~engine q_t));
  check_int "u cold" 2 (List.length (Provider.run prov ~engine q_u));
  (* reload table t with more rows: its recycled result must be dropped,
     u's must survive *)
  Lq_catalog.Catalog.replace cat ~name:"t" ~schema (mk 7);
  let stats = Option.get (Provider.result_cache_stats prov) in
  check_int "t's entry invalidated" 1 stats.Result_cache.entries;
  check_int "invalidation counted" 1 stats.Result_cache.invalidations;
  check_int "t reflects the reload" 7 (List.length (Provider.run prov ~engine q_t));
  check_int "u untouched" 2 (List.length (Provider.run prov ~engine q_u));
  let stats = Option.get (Provider.result_cache_stats prov) in
  check_int "u's entry survived (hit)" 1 stats.Result_cache.hits

(* [row_count] is counted when a table is built, not on every call: a
   replacement with more or fewer rows must show through both the count
   and the scan estimate lowering derives from it. *)
let test_row_count_follows_replace () =
  let schema = Schema.make [ ("id", Vtype.Int) ] in
  let mk n = List.init n (fun i -> Schema.row schema [ Value.Int i ]) in
  let cat = Lq_catalog.Catalog.create () in
  Lq_catalog.Catalog.add cat ~name:"t" ~schema (mk 4);
  let prov = Provider.create cat in
  let q = source "t" |> where "s" (v "s" $. "id" >=: int 0) in
  let follows n =
    check_int "row_count" n (Lq_catalog.Catalog.row_count (Lq_catalog.Catalog.table cat "t"));
    let rendered, _ = Provider.explain prov ~engine:Lq_core.Engines.linq_to_objects q in
    let scan =
      List.find
        (fun l -> String.starts_with ~prefix:"scan t" (String.trim l))
        (String.split_on_char '\n' rendered)
    in
    check_bool
      (Printf.sprintf "scan estimate follows (%s)" scan)
      true
      (String.ends_with ~suffix:(Printf.sprintf "(~%d rows)" n) scan)
  in
  follows 4;
  Lq_catalog.Catalog.replace cat ~name:"t" ~schema (mk 9);
  follows 9;
  Lq_catalog.Catalog.replace cat ~name:"t" ~schema (mk 2);
  follows 2

(* A table read *only* through a nested sub-query must still invalidate
   the recycled result when it is reloaded (the access model used to stop
   at [Ast.Subquery], leaving such tables invisible). *)
let test_subquery_table_invalidation () =
  let schema_t = Schema.make [ ("id", Vtype.Int) ] in
  let schema_u = Schema.make [ ("uid", Vtype.Int) ] in
  let mk schema n = List.init n (fun i -> Schema.row schema [ Value.Int i ]) in
  let cat = Lq_catalog.Catalog.create () in
  Lq_catalog.Catalog.add cat ~name:"t" ~schema:schema_t (mk schema_t 4);
  Lq_catalog.Catalog.add cat ~name:"u" ~schema:schema_u (mk schema_u 2);
  let prov = Provider.create ~recycle_results:true cat in
  let engine = Lq_core.Engines.linq_to_objects in
  (* t rows pass while id < count(u): u is touched only inside the
     sub-query *)
  let q =
    source "t"
    |> where "s"
         (v "s" $. "id"
         <: count (subquery (source "u" |> where "x" (v "x" $. "uid" >=: int 0))))
  in
  let names = Lq_catalog.Access_model.used_member_names q in
  check_bool "sub-query field visible to the access model" true
    (Hashtbl.mem names "uid");
  check_int "cold" 2 (List.length (Provider.run prov ~engine q));
  check_int "warm" 2 (List.length (Provider.run prov ~engine q));
  let stats = Option.get (Provider.result_cache_stats prov) in
  check_int "one hit before reload" 1 stats.Result_cache.hits;
  (* grow u: the cached result depends on it only through the sub-query *)
  Lq_catalog.Catalog.replace cat ~name:"u" ~schema:schema_u (mk schema_u 4);
  let stats = Option.get (Provider.result_cache_stats prov) in
  check_int "stale entry dropped" 0 stats.Result_cache.entries;
  check_int "invalidation counted" 1 stats.Result_cache.invalidations;
  check_int "reload visible through the sub-query" 4
    (List.length (Provider.run prov ~engine q))

(* --- counters registry --- *)

let test_counters () =
  let c = Counters.create () in
  Counters.incr c "a";
  Counters.incr ~by:4 c "a";
  Counters.add_ms c "phase_ms" 1.25;
  check_int "sum" 5 (Counters.count c "a");
  check_bool "ms" true (Counters.value c "phase_ms" = 1.25);
  check_int "absent is zero" 0 (Counters.count c "nope");
  check_bool "sorted snapshot" true
    (List.map fst (Counters.to_alist c) = [ "a"; "phase_ms" ]);
  check_bool "renders both" true
    (String.length (Counters.to_string c) > 0);
  Counters.reset c;
  check_int "reset" 0 (Counters.count c "a")

(* --- monotonic clock --- *)

let test_now_ms_monotonic () =
  let prev = ref (Lq_metrics.Profile.now_ms ()) in
  for _ = 1 to 10_000 do
    let t = Lq_metrics.Profile.now_ms () in
    if t < !prev then Alcotest.fail "clock went backwards";
    prev := t
  done;
  (* and it actually advances *)
  let t0 = Lq_metrics.Profile.now_ms () in
  Unix.sleepf 0.002;
  check_bool "advances" true (Lq_metrics.Profile.now_ms () -. t0 >= 1.0)

let () =
  Alcotest.run "cache"
    [
      ( "lru",
        [
          Alcotest.test_case "recency order" `Quick test_lru_order;
          Alcotest.test_case "peek does not promote" `Quick test_lru_peek_does_not_promote;
          Alcotest.test_case "weight bound" `Quick test_lru_weight_bound;
          Alcotest.test_case "disabled + replace" `Quick test_lru_disabled_and_replace;
          Alcotest.test_case "drop_where" `Quick test_lru_drop_where;
        ] );
      ( "query cache",
        [
          Alcotest.test_case "eviction + exact stats" `Quick
            test_query_cache_eviction_and_stats;
          Alcotest.test_case "per-engine counters" `Quick
            test_query_cache_per_engine_counters;
          Alcotest.test_case "cost-aware admission" `Quick
            test_query_cache_cost_aware_admission;
        ] );
      ( "result cache",
        [
          Alcotest.test_case "entry + row bounds" `Quick test_result_cache_bounds;
          Alcotest.test_case "scoped invalidation" `Quick
            test_result_cache_invalidation_scoped;
          Alcotest.test_case "exact counters" `Quick test_result_cache_exact_counters;
          Alcotest.test_case "keys are exact and typed" `Quick test_result_cache_keys_exact;
        ] );
      ( "invalidation hooks",
        [
          Alcotest.test_case "catalog reload" `Quick test_catalog_invalidation_hook;
          Alcotest.test_case "sub-query-only table reload" `Quick
            test_subquery_table_invalidation;
          Alcotest.test_case "row count follows replace" `Quick
            test_row_count_follows_replace;
        ] );
      ("counters", [ Alcotest.test_case "registry" `Quick test_counters ]);
      ("clock", [ Alcotest.test_case "monotonic now_ms" `Quick test_now_ms_monotonic ]);
    ]
