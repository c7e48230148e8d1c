(* Tests for the TPC-H substrate: generator shape and determinism, the
   three queries across every engine, correlated-vs-decorrelated Q2
   equivalence, workload selectivity behaviour. *)

open Lq_value
module Engine_intf = Lq_catalog.Engine_intf

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let sf = 0.002
let cat = Lq_tpch.Dbgen.load ~sf ()
let prov = Lq_core.Provider.create cat
let params = Lq_tpch.Queries.default_params

let test_sizes () =
  let sz = Lq_tpch.Dbgen.sizes ~sf:1.0 in
  check_int "customers at SF1" 150_000 sz.Lq_tpch.Dbgen.customers;
  check_int "orders at SF1" 1_500_000 sz.Lq_tpch.Dbgen.orders;
  check_int "regions fixed" 5 sz.Lq_tpch.Dbgen.regions;
  check_int "nations fixed" 25 sz.Lq_tpch.Dbgen.nations;
  let t = Lq_catalog.Catalog.table cat in
  check_int "region rows" 5 (Lq_catalog.Catalog.row_count (t "region"));
  check_int "nation rows" 25 (Lq_catalog.Catalog.row_count (t "nation"));
  check_bool "lineitem biggest" true
    (Lq_catalog.Catalog.row_count (t "lineitem")
    > Lq_catalog.Catalog.row_count (t "orders"))

let test_determinism () =
  let a = Lq_tpch.Dbgen.generate ~sf:0.001 () in
  let b = Lq_tpch.Dbgen.generate ~sf:0.001 () in
  List.iter2
    (fun (na, _, rows_a) (nb, _, rows_b) ->
      check_bool ("table " ^ na) true (na = nb && Lq_testkit.rows_equal rows_a rows_b))
    a b;
  let c = Lq_tpch.Dbgen.generate ~seed:99 ~sf:0.001 () in
  let rows name gen = List.find (fun (n, _, _) -> n = name) gen |> fun (_, _, r) -> r in
  check_bool "different seed differs" true
    (not (Lq_testkit.rows_equal (rows "lineitem" a) (rows "lineitem" c)))

let test_distributions () =
  let t = Lq_catalog.Catalog.table cat "lineitem" in
  let rows = Lq_catalog.Catalog.rows t in
  check_bool "ship after order window start" true
    (List.for_all
       (fun r -> Value.to_date (Value.field r "l_shipdate") > Lq_tpch.Dbgen.date_lo)
       rows);
  check_bool "ship before global bound" true
    (List.for_all
       (fun r -> Value.to_date (Value.field r "l_shipdate") <= Lq_tpch.Dbgen.date_hi)
       rows);
  check_bool "discount in [0,0.1]" true
    (List.for_all
       (fun r ->
         let d = Value.to_float (Value.field r "l_discount") in
         d >= 0.0 && d <= 0.1)
       rows);
  (* Q2's predicate needs some BRASS parts *)
  let parts = Lq_catalog.Catalog.rows (Lq_catalog.Catalog.table cat "part") in
  check_bool "some BRASS parts" true
    (List.exists
       (fun r ->
         Lq_expr.Scalar.like_match ~pattern:"%BRASS" (Value.to_str (Value.field r "p_type")))
       parts)

let test_cutoffs_monotone () =
  check_bool "shipdate cutoffs increase" true
    (Lq_tpch.Dbgen.shipdate_cutoff 0.1 < Lq_tpch.Dbgen.shipdate_cutoff 0.9);
  check_bool "cutoff at 1.0 covers everything" true
    (Lq_tpch.Dbgen.shipdate_cutoff 1.0 >= Lq_tpch.Dbgen.date_hi)

(* --- queries across engines --- *)

let run_all ?(params = params) name q =
  let expected = Lq_core.Provider.reference prov ~params q in
  check_bool (name ^ " nonempty") true (expected <> []);
  List.iter
    (fun (engine : Engine_intf.t) ->
      match Lq_core.Provider.run prov ~engine ~params q with
      | got ->
        check_bool (name ^ " / " ^ engine.name) true (Lq_testkit.rows_close expected got)
      | exception Engine_intf.Unsupported _ -> ())
    Lq_core.Engines.all

let test_q1 () = run_all "Q1" Lq_tpch.Queries.q1
let test_q2 () = run_all "Q2" Lq_tpch.Queries.q2
let test_q3 () = run_all "Q3" Lq_tpch.Queries.q3

let test_q2_decorrelation_equivalence () =
  (* the hand-optimized plan must return exactly what the naive correlated
     formulation returns *)
  let a = Lq_core.Provider.reference prov ~params Lq_tpch.Queries.q2 in
  let b = Lq_core.Provider.reference prov ~params Lq_tpch.Queries.q2_correlated in
  check_bool "decorrelated == correlated" true (Lq_testkit.rows_equal a b)

let test_q2_correlated_runs_compiled () =
  (* The paper refuses correlated Q2 on every compiled backend (§7.5); the
     automatic decorrelation pass beats it: the naive formulation now runs
     compiled and matches both the interpreted oracle and hand-written Q2. *)
  let expected = Lq_core.Provider.reference prov ~params Lq_tpch.Queries.q2_correlated in
  List.iter
    (fun (engine : Engine_intf.t) ->
      check_bool
        ("decorrelated on " ^ engine.Engine_intf.name)
        true
        (Lq_testkit.rows_close expected
           (Lq_core.Provider.run prov ~engine ~params Lq_tpch.Queries.q2_correlated)))
    [
      Lq_core.Engines.linq_to_objects;
      Lq_core.Engines.compiled_csharp;
      Lq_core.Engines.compiled_c;
    ]

let test_q1_parameter_variants () =
  (* the delta parameter changes results without recompiling *)
  List.iter
    (fun delta ->
      let params = ("q1_delta", Value.Int delta) :: List.remove_assoc "q1_delta" params in
      run_all ~params (Printf.sprintf "Q1 delta=%d" delta) Lq_tpch.Queries.q1)
    [ 1; 90; 1200 ]

(* --- workloads --- *)

let count_at workload sel =
  List.length
    (Lq_core.Provider.reference prov ~params:(Lq_tpch.Workloads.params ~sel)
       workload)

let test_workload_selectivity () =
  (* sorting emits exactly the selected lineitems: row counts must grow
     with the selectivity knob and reach the full table at 1.0 *)
  let counts = List.map (count_at Lq_tpch.Workloads.sorting) [ 0.1; 0.5; 1.0 ] in
  check_bool "monotone" true (List.sort compare counts = counts);
  check_int "all rows at sel 1.0"
    (Lq_catalog.Catalog.row_count (Lq_catalog.Catalog.table cat "lineitem"))
    (List.nth counts 2);
  let n10 = count_at Lq_tpch.Workloads.sorting 0.1 in
  let total = Lq_catalog.Catalog.row_count (Lq_catalog.Catalog.table cat "lineitem") in
  check_bool "sel 0.1 within tolerance" true
    (let frac = float_of_int n10 /. float_of_int total in
     frac > 0.02 && frac < 0.25)

let test_workloads_all_engines () =
  List.iter
    (fun (name, w) ->
      let params = Lq_tpch.Workloads.params ~sel:0.4 in
      let expected = Lq_core.Provider.reference prov ~params w in
      List.iter
        (fun (engine : Engine_intf.t) ->
          match Lq_core.Provider.run prov ~engine ~params w with
          | got ->
            check_bool (name ^ "/" ^ engine.name) true (Lq_testkit.rows_close expected got)
          | exception Engine_intf.Unsupported _ -> ())
        Lq_core.Engines.all)
    [
      ("aggregation", Lq_tpch.Workloads.aggregation);
      ("sorting", Lq_tpch.Workloads.sorting);
      ("join", Lq_tpch.Workloads.join);
      ("agg_n 1", Lq_tpch.Workloads.aggregation_n 1);
      ("agg_n 8", Lq_tpch.Workloads.aggregation_n 8);
    ]

let test_min_variant_on_paper_workloads () =
  (* Fig. 9's hybrid series is the Min variant; Fig. 11 has Min and Max *)
  let engines = [ Lq_core.Engines.hybrid_min; Lq_core.Engines.hybrid_min_buffered ] in
  List.iter
    (fun w ->
      let params = Lq_tpch.Workloads.params ~sel:0.3 in
      let expected = Lq_core.Provider.reference prov ~params w in
      List.iter
        (fun engine ->
          check_bool "min variant agrees" true
            (Lq_testkit.rows_close expected (Lq_core.Provider.run prov ~engine ~params w)))
        engines)
    [ Lq_tpch.Workloads.sorting; Lq_tpch.Workloads.join ]

let base_suites =
    [
      ( "dbgen",
        [
          Alcotest.test_case "sizes" `Quick test_sizes;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "distributions" `Quick test_distributions;
          Alcotest.test_case "cutoffs" `Quick test_cutoffs_monotone;
        ] );
      ( "queries",
        [
          Alcotest.test_case "Q1 all engines" `Quick test_q1;
          Alcotest.test_case "Q2 all engines" `Quick test_q2;
          Alcotest.test_case "Q3 all engines" `Quick test_q3;
          Alcotest.test_case "Q2 decorrelation equivalence" `Quick
            test_q2_decorrelation_equivalence;
          Alcotest.test_case "Q2 correlated runs compiled" `Quick
            test_q2_correlated_runs_compiled;
          Alcotest.test_case "Q1 parameter variants" `Quick test_q1_parameter_variants;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "selectivity knob" `Quick test_workload_selectivity;
          Alcotest.test_case "all engines" `Quick test_workloads_all_engines;
          Alcotest.test_case "Min variants" `Quick test_min_variant_on_paper_workloads;
        ] );
    ]

(* --- extended query set (beyond the paper's Q1-Q3) --- *)

let test_extended_queries () =
  let params = Lq_tpch.Queries.extended_params in
  List.iter
    (fun (name, q) ->
      let expected = Lq_core.Provider.reference prov ~params q in
      List.iter
        (fun (engine : Engine_intf.t) ->
          match Lq_core.Provider.run prov ~engine ~params q with
          | got ->
            check_bool (name ^ " / " ^ engine.name) true
              (Lq_testkit.rows_close expected got)
          | exception Engine_intf.Unsupported _ -> ())
        Lq_core.Engines.all)
    Lq_tpch.Queries.extended

let test_extended_sanity () =
  let params = Lq_tpch.Queries.extended_params in
  let rows _name q = Lq_core.Provider.reference prov ~params q in
  (* Q6 and Q14 produce exactly one scalar row *)
  check_int "Q6 one row" 1 (List.length (rows "Q6" Lq_tpch.Queries.q6));
  check_int "Q14 one row" 1 (List.length (rows "Q14" Lq_tpch.Queries.q14));
  (* Q14's promo percentage is a percentage *)
  (match rows "Q14" Lq_tpch.Queries.q14 with
  | [ r ] ->
    let pct = Value.to_float (Value.field r "promo_revenue") in
    check_bool "Q14 in [0,100]" true (pct >= 0.0 && pct <= 100.0)
  | _ -> Alcotest.fail "Q14 shape");
  (* Q10 returns at most 20 customers, revenue-descending *)
  let q10 = rows "Q10" Lq_tpch.Queries.q10 in
  check_bool "Q10 at most 20" true (List.length q10 <= 20);
  let revs = List.map (fun r -> Value.to_float (Value.field r "revenue")) q10 in
  check_bool "Q10 descending" true (List.sort (fun a b -> compare b a) revs = revs);
  (* Q12's high+low counts partition the group *)
  List.iter
    (fun r ->
      let hi = Value.to_int (Value.field r "high_line_count") in
      let lo = Value.to_int (Value.field r "low_line_count") in
      check_bool "Q12 non-negative" true (hi >= 0 && lo >= 0))
    (rows "Q12" Lq_tpch.Queries.q12)

(* --- .tbl interchange --- *)

let test_tbl_roundtrip () =
  let dir = Filename.temp_file "tpch" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Lq_tpch.Tbl_io.dump ~dir cat;
  let reloaded = Lq_tpch.Tbl_io.load_dir ~dir Lq_tpch.Schemas.all in
  List.iter
    (fun name ->
      let a = Lq_catalog.Catalog.rows (Lq_catalog.Catalog.table cat name) in
      let b = Lq_catalog.Catalog.rows (Lq_catalog.Catalog.table reloaded name) in
      (* floats are written with 2 decimals, which is exact for money
         columns generated at cent precision *)
      check_bool ("roundtrip " ^ name) true (Lq_testkit.rows_close a b))
    [ "region"; "nation"; "supplier"; "customer"; "part"; "partsupp"; "orders" ];
  (* queries over the reloaded catalog agree with the original *)
  let p1 = Lq_core.Provider.create cat in
  let p2 = Lq_core.Provider.create reloaded in
  check_bool "Q3 agrees on reloaded data" true
    (Lq_testkit.rows_close
       (Lq_core.Provider.reference p1 ~params Lq_tpch.Queries.q3)
       (Lq_core.Provider.reference p2 ~params Lq_tpch.Queries.q3))

let test_tbl_format () =
  let schema = Lq_tpch.Schemas.region in
  let row =
    Schema.row schema [ Value.Int 0; Value.Str "AFRICA"; Value.Str "dusty wake" ]
  in
  Alcotest.(check string) "dbgen line format" "0|AFRICA|dusty wake|"
    (Lq_tpch.Tbl_io.row_to_line schema row);
  check_bool "parse back" true
    (Value.equal row (Lq_tpch.Tbl_io.line_to_row schema "0|AFRICA|dusty wake|"));
  check_bool "malformed rejected" true
    (match Lq_tpch.Tbl_io.line_to_row schema "0|AFRICA|" with
    | exception Failure _ -> true
    | _ -> false)


let () =
  Alcotest.run "tpch"
    (base_suites
    @ [
        ( "extended",
          [
            Alcotest.test_case "Q5/Q6/Q10/Q12/Q14 all engines" `Quick
              test_extended_queries;
            Alcotest.test_case "result sanity" `Quick test_extended_sanity;
          ] );
        ( "tbl files",
          [
            Alcotest.test_case "roundtrip" `Quick test_tbl_roundtrip;
            Alcotest.test_case "line format" `Quick test_tbl_format;
          ] );
      ])
