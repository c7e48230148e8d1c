(* Tests for the §9 future-work extensions: result recycling, hash
   indexes, and domain-parallel execution. *)

open Lq_value
open Lq_expr.Dsl
module Engine_intf = Lq_catalog.Engine_intf
module Provider = Lq_core.Provider

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- result recycling --- *)

let test_result_recycling () =
  let cat = Lq_testkit.sales_catalog () in
  let prov = Provider.create ~recycle_results:true cat in
  let q n = source "sales" |> where "s" (v "s" $. "qty" >: int n) in
  let engine = Lq_core.Engines.compiled_csharp in
  let first = Provider.run prov ~engine (q 10) in
  let second = Provider.run prov ~engine (q 10) in
  check_bool "identical rows" true (Lq_testkit.rows_equal first second);
  let stats = Option.get (Provider.result_cache_stats prov) in
  check_int "one hit" 1 stats.Lq_core.Result_cache.hits;
  (* a different constant is a different result-cache entry *)
  ignore (Provider.run prov ~engine (q 20));
  let stats = Option.get (Provider.result_cache_stats prov) in
  check_int "two entries" 2 stats.Lq_core.Result_cache.entries;
  check_bool "rows accounted" true (stats.Lq_core.Result_cache.cached_rows > 0);
  (* parameters are part of the key *)
  let qp = source "sales" |> where "s" (v "s" $. "city" =: p "c") in
  let london = Provider.run prov ~engine ~params:[ ("c", Value.Str "London") ] qp in
  let paris = Provider.run prov ~engine ~params:[ ("c", Value.Str "Paris") ] qp in
  check_bool "distinct params distinct results" true
    (not (Lq_testkit.rows_equal london paris));
  Provider.clear_result_cache prov;
  let stats = Option.get (Provider.result_cache_stats prov) in
  check_int "cleared" 0 stats.Lq_core.Result_cache.entries;
  (* providers without recycling report None *)
  check_bool "disabled by default" true
    (Provider.result_cache_stats (Provider.create cat) = None)

let test_result_cache_lru () =
  let rc = Lq_core.Result_cache.create ~max_entries:2 () in
  let key i =
    Lq_core.Result_cache.key ~engine:"e" ~shape:(string_of_int i) ~consts:[] ~params:[]
  in
  Lq_core.Result_cache.store rc (key 1) [ Value.Int 1 ];
  Lq_core.Result_cache.store rc (key 2) [ Value.Int 2 ];
  ignore (Lq_core.Result_cache.find rc (key 1));
  (* 2 is now LRU and must be evicted *)
  Lq_core.Result_cache.store rc (key 3) [ Value.Int 3 ];
  check_bool "1 survives" true (Lq_core.Result_cache.find rc (key 1) <> None);
  check_bool "2 evicted" true (Lq_core.Result_cache.find rc (key 2) = None);
  check_bool "3 present" true (Lq_core.Result_cache.find rc (key 3) <> None)

(* --- hash indexes --- *)

let test_index_point_lookup () =
  let cat = Lq_testkit.sales_catalog ~n:500 () in
  Lq_catalog.Catalog.create_index cat ~table:"sales" ~column:"city";
  Lq_catalog.Catalog.create_index cat ~table:"sales" ~column:"id";
  let prov = Provider.create cat in
  let engine = Lq_core.Engines.compiled_c in
  let cases =
    [
      (* string-key equality *)
      source "sales" |> where "s" (v "s" $. "city" =: str "Paris");
      (* parameterized key (the cached-plan path: constants become params) *)
      source "sales" |> where "s" (v "s" $. "city" =: p "c");
      (* key on the right-hand side *)
      source "sales" |> where "s" (int 123 =: (v "s" $. "id"));
      (* residual conjunct stays as a filter *)
      source "sales"
      |> where "s" ((v "s" $. "city" =: str "Rome") &&: (v "s" $. "qty" >: int 25));
      (* miss: unknown constant *)
      source "sales" |> where "s" (v "s" $. "city" =: str "Atlantis");
      (* downstream operators over an index scan *)
      source "sales"
      |> where "s" (v "s" $. "city" =: str "Berlin")
      |> order_by [ ("x", v "x" $. "price", desc) ]
      |> take 5;
    ]
  in
  List.iter
    (fun q ->
      let params = [ ("c", Value.Str "Madrid") ] in
      let expected = Provider.reference prov ~params q in
      let got = Provider.run prov ~engine ~params q in
      check_bool "index scan agrees (and preserves order)" true
        (Lq_testkit.rows_equal expected got))
    cases

let test_index_errors () =
  let cat = Lq_testkit.sales_catalog () in
  check_bool "float column rejected" true
    (match Lq_catalog.Catalog.create_index cat ~table:"sales" ~column:"price" with
    | exception Invalid_argument _ -> true
    | () -> false);
  check_bool "unknown column rejected" true
    (match Lq_catalog.Catalog.create_index cat ~table:"sales" ~column:"nope" with
    | exception Invalid_argument _ -> true
    | () -> false);
  Lq_catalog.Catalog.create_index cat ~table:"sales" ~column:"id";
  Lq_catalog.Catalog.create_index cat ~table:"sales" ~column:"id";
  check_int "idempotent" 1
    (List.length (Lq_catalog.Catalog.indexed_columns (Lq_catalog.Catalog.table cat "sales")))

(* A write keeps the table's declared indexes, rebuilt over the new rows:
   a plan prepared after it still probes, and answers from the new rows. *)
let test_index_survives_replace () =
  let cat = Lq_testkit.sales_catalog ~n:500 () in
  Lq_catalog.Catalog.create_index cat ~table:"sales" ~column:"city";
  let prov = Provider.create cat in
  let engine = Lq_core.Engines.compiled_c in
  let q = source "sales" |> where "s" (v "s" $. "city" =: str "Paris") in
  ignore (Provider.run prov ~engine q);
  Lq_catalog.Catalog.replace cat ~name:"sales" ~schema:Lq_testkit.sales_schema
    (Lq_testkit.sales_rows ~n:300 ~seed:99 ());
  let table = Lq_catalog.Catalog.table cat "sales" in
  check_bool "index kept" true (Lq_catalog.Catalog.index table "city" <> None);
  check_bool "indexed-equality rows after the write" true
    (Lq_testkit.rows_equal (Provider.reference prov q) (Provider.run prov ~engine q))

(* --- parallel execution --- *)

let parallel4 = Lq_parallel.Parallel_engine.engine_with ~domains:4

let test_parallel_pipeline () =
  let cat = Lq_testkit.sales_catalog ~n:1000 () in
  let prov = Provider.create cat in
  (* non-grouping pipeline: chunk concatenation preserves order exactly *)
  let q =
    source "sales"
    |> where "s" (v "s" $. "qty" >: int 20)
    |> select "s" (record [ ("id", v "s" $. "id"); ("c", v "s" $. "city") ])
  in
  let expected = Provider.reference prov q in
  check_bool "pipeline exact" true
    (Lq_testkit.rows_equal expected (Provider.run prov ~engine:parallel4 q))

let test_parallel_aggregation () =
  let cat = Lq_testkit.sales_catalog ~n:2000 () in
  let prov = Provider.create cat in
  let q =
    source "sales"
    |> where "s" (v "s" $. "vip")
    |> group_by
         ~key:("s", v "s" $. "city")
         ~result:
           ( "g",
             record
               [
                 ("city", v "g" $. "Key");
                 ("n", count (v "g"));
                 ("total", sum (v "g") "x" (v "x" $. "qty"));
                 ("revenue", sum (v "g") "x" (v "x" $. "price"));
                 ("avg_qty", avg (v "g") "x" (v "x" $. "qty"));
                 ("lo", min_of (v "g") "x" (v "x" $. "price"));
                 ("hi", max_of (v "g") "x" (v "x" $. "price"));
               ] )
    |> order_by [ ("r", v "r" $. "city", asc) ]
  in
  let expected = Provider.reference prov q in
  let got = Provider.run prov ~engine:parallel4 q in
  check_bool "grouped aggregation merges correctly" true
    (Lq_testkit.rows_close expected got)

let test_parallel_q1 () =
  let cat = Lq_tpch.Dbgen.load ~sf:0.002 () in
  let prov = Provider.create cat in
  let params = Lq_tpch.Queries.default_params in
  let expected = Provider.reference prov ~params Lq_tpch.Queries.q1 in
  let got = Provider.run prov ~engine:parallel4 ~params Lq_tpch.Queries.q1 in
  check_bool "Q1 parallel" true (Lq_testkit.rows_close expected got)

let test_parallel_unsupported () =
  let cat = Lq_testkit.sales_catalog () in
  let prov = Provider.create cat in
  let join_q =
    join
      ~on:(("l", v "l" $. "city"), ("r", v "r" $. "city"))
      ~result:("l", "r", record [ ("id", v "l" $. "id") ])
      (source "sales") (source "shops")
  in
  check_bool "joins refused" true
    (match Provider.run prov ~engine:parallel4 join_q with
    | exception Engine_intf.Unsupported _ -> true
    | _ -> false);
  let upper_q = source "sales" |> select "s" (upper (v "s" $. "city")) in
  check_bool "runtime interning refused" true
    (match Provider.run prov ~engine:parallel4 upper_q with
    | exception Engine_intf.Unsupported _ -> true
    | _ -> false)

(* Morsel-scheduler determinism: results are reassembled in morsel order,
   so with a fixed morsel size the rows — float partial sums included —
   are bit-identical whatever the Domain count. Which Domain ran which
   morsel must not show. *)
let test_morsel_determinism () =
  Unix.putenv "LQ_MORSEL_SIZE" "7";
  Fun.protect ~finally:(fun () -> Unix.putenv "LQ_MORSEL_SIZE" "") @@ fun () ->
  let cat = Lq_testkit.sales_catalog ~n:500 ~seed:3 () in
  let prov = Provider.create cat in
  let pipeline =
    source "sales"
    |> where "s" (v "s" $. "qty" >: int 15)
    |> select "s" (record [ ("id", v "s" $. "id"); ("p", v "s" $. "price") ])
  in
  let aggregate =
    source "sales"
    |> group_by
         ~key:("s", v "s" $. "city")
         ~result:
           ( "g",
             record
               [
                 ("city", v "g" $. "Key");
                 ("revenue", sum (v "g") "x" (v "x" $. "price"));
                 ("avg_price", avg (v "g") "x" (v "x" $. "price"));
               ] )
  in
  List.iter
    (fun (qname, q) ->
      let run engine = Provider.run prov ~engine q in
      let base = run (Lq_parallel.Parallel_engine.engine_with ~domains:1) in
      List.iter
        (fun d ->
          check_bool
            (Printf.sprintf "%s: %d domains bit-identical to 1" qname d)
            true
            (Lq_testkit.rows_equal base
               (run (Lq_parallel.Parallel_engine.engine_with ~domains:d))))
        [ 2; 4 ])
    [ ("pipeline", pipeline); ("aggregate", aggregate) ];
  (* the scheduler actually ran morsels, and counted them *)
  check_bool "morsel counter moved" true
    (Lq_metrics.Counters.count Lq_parallel.Parallel_engine.counters "parallel/morsels"
    > 0)

let prop_parallel_differential =
  Lq_testkit.qtest ~count:80 "parallel: agrees with reference (tolerant)"
    Lq_testkit.gen_query (fun q ->
      let cat = Lq_testkit.sales_catalog () in
      match Lq_testkit.engine_agrees_with_reference cat parallel4 q with
      | `Agree | `Unsupported -> true
      | `Disagree _ -> false)

let () =
  Alcotest.run "extensions"
    [
      ( "result recycling",
        [
          Alcotest.test_case "provider integration" `Quick test_result_recycling;
          Alcotest.test_case "LRU eviction" `Quick test_result_cache_lru;
        ] );
      ( "indexes",
        [
          Alcotest.test_case "point lookups" `Quick test_index_point_lookup;
          Alcotest.test_case "errors" `Quick test_index_errors;
          Alcotest.test_case "kept across replace" `Quick test_index_survives_replace;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "pipeline" `Quick test_parallel_pipeline;
          Alcotest.test_case "aggregation" `Quick test_parallel_aggregation;
          Alcotest.test_case "TPC-H Q1" `Quick test_parallel_q1;
          Alcotest.test_case "morsel determinism" `Quick test_morsel_determinism;
          Alcotest.test_case "unsupported" `Quick test_parallel_unsupported;
          prop_parallel_differential;
        ] );
    ]
