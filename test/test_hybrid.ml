(* Tests for the hybrid backend: query splitting analysis, staging
   behaviour (full vs buffered footprint), Min vs Max construction,
   nested-object staging through mappings. *)

open Lq_value
open Lq_expr.Dsl
module Split = Lq_plan.Staging
module H = Lq_hybrid.Hybrid_engine
module Engine_intf = Lq_catalog.Engine_intf

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let cat = Lq_testkit.sales_catalog ()
let prov = Lq_core.Provider.create cat

(* --- split analysis --- *)

(* The split the engine makes: from the shared lowering of the query. *)
let nested = Lq_testkit.nested_catalog ()
let split cat q = Split.strip_plan (Lq_plan.Lower.lower cat q)

let test_strip_filters () =
  let q =
    source "sales"
    |> where "a" (v "a" $. "vip")
    |> where "b" (v "b" $. "qty" >: int 3)
    |> select "s" (v "s" $. "id")
  in
  let stripped, specs = split cat q in
  check_int "one source" 1 (List.length specs);
  let spec = List.hd specs in
  check_int "both filters move to managed" 2 (List.length spec.Split.preds);
  Alcotest.(check string) "source kept" "sales" spec.Split.source;
  check_bool "wheres removed from offloaded query" true
    (match stripped with
    | Lq_expr.Ast.Select (Lq_expr.Ast.Source _, _) -> true
    | _ -> false)

let test_strip_filters_self_join () =
  let q =
    join
      ~on:(("l", v "l" $. "city"), ("r", v "r" $. "city"))
      ~result:("l", "r", record [ ("a", v "l" $. "id"); ("b", v "r" $. "id") ])
      (source "sales" |> where "x" (v "x" $. "vip"))
      (source "sales")
  in
  let _, specs = split cat q in
  check_int "two occurrences of one table" 2 (List.length specs);
  check_bool "distinct occurrence names" true
    (match specs with [ a; b ] -> a.Split.occ <> b.Split.occ | _ -> false)

let test_used_paths () =
  let q =
    source "orders"
    |> where "w" (v "w" $. "shop" $. "city" =: str "London")
    |> select "s" (record [ ("p", v "s" $. "item" $. "price") ])
  in
  let stripped, specs = split nested q in
  let occ = (List.hd specs).Split.occ in
  (* only the paths of the *offloaded* part count (the filter runs
     managed) *)
  Alcotest.(check (list (list string)))
    "offloaded paths"
    [ [ "item"; "price" ] ]
    (Split.used_paths stripped ~occ)

let test_used_paths_group_and_sort () =
  let q =
    source "sales"
    |> group_by ~key:("k", v "k" $. "city")
         ~result:("g", record [ ("c", v "g" $. "Key"); ("t", sum (v "g") "e" (v "e" $. "qty")) ])
  in
  let stripped, specs = split cat q in
  Alcotest.(check (list (list string)))
    "key + aggregate selector paths"
    [ [ "city" ]; [ "qty" ] ]
    (Split.used_paths stripped ~occ:(List.hd specs).Split.occ);
  let q2 = source "sales" |> order_by [ ("s", v "s" $. "price", desc) ] |> take 3 in
  let stripped2, specs2 = split cat q2 in
  check_bool "sort result needs whole elements" true
    (List.mem [] (Split.used_paths stripped2 ~occ:(List.hd specs2).Split.occ));
  check_bool "results are the source's elements (sort-style Min)" true
    (Lq_plan.Plan.min_construction (Lq_plan.Lower.lower cat q2) = Some Lq_plan.Plan.Sort_min)

let test_rewrite_paths () =
  let q =
    source "orders" |> select "s" (record [ ("p", v "s" $. "item" $. "price") ])
  in
  let stripped, specs = split nested q in
  let rewritten =
    Split.rewrite_paths stripped ~occ:(List.hd specs).Split.occ
      ~rename:(String.concat "_")
  in
  check_bool "chain flattened" true
    (match rewritten with
    | Lq_expr.Ast.Select (_, sel) ->
      Lq_expr.Pretty.expr_to_string sel.Lq_expr.Ast.body = "new {p = s.item_price}"
    | _ -> false)

let test_all_leaf_paths () =
  Alcotest.(check (list (list string)))
    "nested leaves"
    [ [ "oid" ]; [ "item"; "name" ]; [ "item"; "price" ]; [ "item"; "weight" ];
      [ "shop"; "city" ]; [ "shop"; "zip" ] ]
    (Split.all_leaf_paths (Schema.to_vtype Lq_testkit.nested_schema))

(* --- staging footprint: buffered stays one page --- *)

let test_staging_footprint () =
  let q =
    source "sales"
    |> group_by ~key:("s", v "s" $. "city")
         ~result:("g", record [ ("c", v "g" $. "Key"); ("n", count (v "g")) ])
  in
  let run engine =
    ignore (Lq_core.Provider.run prov ~engine q);
    H.staged_bytes ()
  in
  let full = run H.engine in
  let buffered = run H.engine_buffered in
  check_bool "full materialization grows with data" true (full > 0);
  check_bool "buffered footprint bounded by one page" true (buffered <= 64 * 1024);
  (* with 200 input rows and a small staged row, full staging is smaller
     than a page here; what matters is that buffered never exceeds it at
     scale — force a bigger input to see the difference *)
  let big = Lq_testkit.sales_catalog ~n:20000 () in
  let bigprov = Lq_core.Provider.create big in
  ignore (Lq_core.Provider.run bigprov ~engine:H.engine q);
  let full_big = H.staged_bytes () in
  ignore (Lq_core.Provider.run bigprov ~engine:H.engine_buffered q);
  let buf_big = H.staged_bytes () in
  check_bool "at scale: full > buffered" true (full_big > buf_big)

(* --- Min construction --- *)

let test_min_sort_returns_source_objects () =
  let q =
    source "sales"
    |> where "s" (v "s" $. "vip")
    |> order_by [ ("s", v "s" $. "price", desc) ]
    |> take 5
  in
  let engine = H.make ~construction:H.Min () in
  let expected = Lq_core.Provider.reference prov q in
  let got = Lq_core.Provider.run prov ~engine q in
  check_bool "min sort agrees" true (Lq_testkit.rows_equal expected got);
  (* Min must also work on nested elements, which Max cannot reconstruct *)
  let ncat = Lq_testkit.nested_catalog () in
  let nprov = Lq_core.Provider.create ncat in
  let nq =
    source "orders"
    |> where "o" (v "o" $. "shop" $. "city" =: str "London")
    |> order_by [ ("o", v "o" $. "item" $. "price", desc) ]
    |> take 4
  in
  let nexpected = Lq_core.Provider.reference nprov nq in
  let ngot = Lq_core.Provider.run nprov ~engine nq in
  check_bool "min sort over nested objects" true (Lq_testkit.rows_equal nexpected ngot);
  check_bool "max refuses nested whole-element results" true
    (match Lq_core.Provider.run nprov ~engine:H.engine nq with
    | exception Engine_intf.Unsupported _ -> true
    | _ -> false)

let test_min_join () =
  let q =
    join
      ~on:(("l", v "l" $. "city"), ("r", v "r" $. "city"))
      ~result:
        ("l", "r", record [ ("id", v "l" $. "id"); ("country", v "r" $. "country") ])
      (source "sales" |> where "x" (v "x" $. "qty" >: int 10))
      (source "shops")
  in
  List.iter
    (fun buffered ->
      let engine = H.make ~buffered ~construction:H.Min () in
      let expected = Lq_core.Provider.reference prov q in
      let got = Lq_core.Provider.run prov ~engine q in
      check_bool
        (Printf.sprintf "min join agrees (buffered=%b)" buffered)
        true
        (Lq_testkit.rows_equal expected got))
    [ false; true ]

let test_min_refuses_complex () =
  let q =
    source "sales"
    |> group_by ~key:("s", v "s" $. "city")
         ~result:("g", record [ ("n", count (v "g")) ])
  in
  check_bool "min refuses aggregation" true
    (match Lq_core.Provider.run prov ~engine:(H.make ~construction:H.Min ()) q with
    | exception Engine_intf.Unsupported _ -> true
    | _ -> false)

(* --- a traced run exposes the paper's phases --- *)

let test_phase_breakdown () =
  let q =
    source "sales"
    |> where "s" (v "s" $. "qty" >: int 5)
    |> group_by ~key:("s", v "s" $. "city")
         ~result:("g", record [ ("c", v "g" $. "Key"); ("n", count (v "g")) ])
  in
  let trace = Lq_trace.Trace.start () in
  Lq_trace.Trace.with_trace trace (fun () ->
      ignore (Lq_core.Provider.run prov ~engine:H.engine q));
  Lq_trace.Trace.finish trace;
  let names = List.map fst (Lq_trace.Trace.phases trace) in
  List.iter
    (fun phase -> check_bool ("phase " ^ phase) true (List.mem phase names))
    [ "Iterate data (C#)"; "Apply predicates (C#)"; "Data staging (C#)";
      "Aggregation (C)"; "Return result (C/C#)" ]

let () =
  Alcotest.run "hybrid"
    [
      ( "split",
        [
          Alcotest.test_case "strip filters" `Quick test_strip_filters;
          Alcotest.test_case "self join occurrences" `Quick test_strip_filters_self_join;
          Alcotest.test_case "used paths" `Quick test_used_paths;
          Alcotest.test_case "paths via group/sort" `Quick test_used_paths_group_and_sort;
          Alcotest.test_case "rewrite paths" `Quick test_rewrite_paths;
          Alcotest.test_case "leaf paths" `Quick test_all_leaf_paths;
        ] );
      ( "staging",
        [ Alcotest.test_case "full vs buffered footprint" `Quick test_staging_footprint ] );
      ( "construction",
        [
          Alcotest.test_case "Min sort" `Quick test_min_sort_returns_source_objects;
          Alcotest.test_case "Min join" `Quick test_min_join;
          Alcotest.test_case "Min refuses complex" `Quick test_min_refuses_complex;
        ] );
      ("profiling", [ Alcotest.test_case "phases" `Quick test_phase_breakdown ]);
    ]
