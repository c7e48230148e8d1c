(* Differential tests: every engine must agree with the reference
   interpreter on random queries, on edge cases, and under every codegen
   option; engines must also re-execute correctly (plan reuse) and refuse
   what they cannot compile. *)

open Lq_value
open Lq_expr.Dsl
module Engine_intf = Lq_catalog.Engine_intf

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let cat = Lq_testkit.sales_catalog ()
let prov = Lq_core.Provider.create cat

let all_engines = Lq_core.Engines.all

let agree ?params q (engine : Engine_intf.t) =
  match Lq_testkit.engine_agrees_with_reference ?params cat engine q with
  | `Agree | `Unsupported -> true
  | `Disagree _ -> false

(* --- random differential --- *)

let prop_engine name engine =
  Lq_testkit.qtest ~count:120
    (Printf.sprintf "differential: %s agrees with reference" name)
    Lq_testkit.gen_query
    (fun q -> agree q engine)

(* --- edge cases every engine must handle --- *)

let edge_cases =
  [
    ("empty result", source "sales" |> where "s" (v "s" $. "id" <: int 0));
    ("take 0", source "sales" |> take 0);
    ("take beyond end", source "sales" |> take 100000);
    ("skip beyond end", source "sales" |> skip 100000);
    ( "group of everything",
      source "sales"
      |> group_by ~key:("s", int 0 =: int 0)
           ~result:("g", record [ ("n", count (v "g")) ]) );
    ( "sort ties stable",
      source "sales" |> order_by [ ("s", v "s" $. "vip", asc) ] |> take 7 );
    ( "empty join side",
      join
        ~on:(("l", v "l" $. "city"), ("r", v "r" $. "country"))
        ~result:("l", "r", record [ ("id", v "l" $. "id") ])
        (source "sales") (source "shops" |> where "x" (v "x" $. "rank" >: int 99)) );
    ( "duplicate join matches",
      join
        ~on:(("l", v "l" $. "city"), ("r", v "r" $. "city"))
        ~result:("l", "r", record [ ("id", v "l" $. "id"); ("c", v "r" $. "country") ])
        (source "sales" |> take 10)
        (source "shops") );
    ("distinct strings", source "sales" |> select "s" (v "s" $. "city") |> distinct);
    ( "min/max of strings",
      source "sales"
      |> group_by ~key:("s", v "s" $. "vip")
           ~result:
             ( "g",
               record
                 [
                   ("k", v "g" $. "Key");
                   ("lo", min_of (v "g") "x" (v "x" $. "city"));
                   ("hi", max_of (v "g") "x" (v "x" $. "city"));
                 ] ) );
    ( "uncorrelated subquery threshold",
      source "sales"
      |> where "s" (v "s" $. "price" >=: avg (subquery (source "sales")) "x" (v "x" $. "price"))
      |> select "s" (v "s" $. "id") );
    ( "identity select",
      source "sales" |> where "s" (v "s" $. "qty" >: int 30) |> select "s" (v "s") );
    ( "computed group key",
      source "sales"
      |> group_by
           ~key:("s", (v "s" $. "qty") /: int 10)
           ~result:("g", record [ ("bucket", v "g" $. "Key"); ("n", count (v "g")) ]) );
    ( "float group key (sign bits)",
      source "sales"
      |> select "s" (record [ ("k", (v "s" $. "price") -: float 50.0) ])
      |> group_by ~key:("x", v "x" $. "k")
           ~result:("g", record [ ("k", v "g" $. "Key"); ("n", count (v "g")) ]) );
    ( "date key via year",
      source "sales"
      |> group_by ~key:("s", year (v "s" $. "day"))
           ~result:("g", record [ ("y", v "g" $. "Key"); ("n", count (v "g")) ]) );
    ( "where over group results",
      source "sales"
      |> group_by ~key:("s", v "s" $. "city")
           ~result:("g", record [ ("c", v "g" $. "Key"); ("n", count (v "g")) ])
      |> where "r" (v "r" $. "n" >: int 30) );
    ( "take inside group input",
      source "sales" |> take 25
      |> group_by ~key:("s", v "s" $. "vip")
           ~result:("g", record [ ("k", v "g" $. "Key"); ("n", count (v "g")) ]) );
    ( "skip then take",
      source "sales" |> order_by [ ("s", v "s" $. "id", asc) ] |> skip 10 |> take 5 );
    ( "self join",
      join
        ~on:(("a", v "a" $. "city"), ("b", v "b" $. "city"))
        ~result:("a", "b", record [ ("x", v "a" $. "id"); ("y", v "b" $. "id") ])
        (source "sales" |> take 8)
        (source "sales" |> take 8) );
    ( "distinct records",
      source "sales"
      |> select "s" (record [ ("c", v "s" $. "city"); ("v", v "s" $. "vip") ])
      |> distinct );
    ( "top-k with parameter",
      source "sales" |> order_by [ ("s", v "s" $. "price", desc) ] |> take_param "k" );
  ]

let test_edge_cases () =
  List.iter
    (fun (name, q) ->
      List.iter
        (fun (engine : Engine_intf.t) ->
          check_bool
            (name ^ " / " ^ engine.name)
            true
            (agree ~params:[ ("k", Lq_value.Value.Int 6) ] q engine))
        all_engines)
    edge_cases

(* --- parameters --- *)

let test_params_across_engines () =
  let q =
    source "sales"
    |> where "s" ((v "s" $. "city" =: p "c") &&: (v "s" $. "qty" >=: p "n"))
    |> select "s" (v "s" $. "id")
  in
  List.iter
    (fun params ->
      List.iter
        (fun (engine : Engine_intf.t) ->
          check_bool ("params / " ^ engine.name) true (agree ~params q engine))
        all_engines)
    [
      [ ("c", Value.Str "London"); ("n", Value.Int 10) ];
      [ ("c", Value.Str "Paris"); ("n", Value.Int 40) ];
      [ ("c", Value.Str "Nowhere"); ("n", Value.Int 0) ];
    ]

(* --- plan reuse: prepared queries re-execute and rebind --- *)

let test_prepared_reuse () =
  let q n = source "sales" |> where "s" (v "s" $. "qty" >: int n) |> select "s" (v "s" $. "id") in
  List.iter
    (fun (engine : Engine_intf.t) ->
      match Lq_core.Provider.run prov ~engine (q 10) with
      | exception Engine_intf.Unsupported _ -> ()
      | first ->
        (* same shape, different constant: must hit the cache and still be
           correct *)
        let second = Lq_core.Provider.run prov ~engine (q 45) in
        let expected10 = Lq_core.Provider.reference prov (q 10) in
        let expected45 = Lq_core.Provider.reference prov (q 45) in
        check_bool ("reuse first " ^ engine.name) true (Lq_testkit.rows_equal expected10 first);
        check_bool ("reuse second " ^ engine.name) true (Lq_testkit.rows_equal expected45 second))
    all_engines

(* --- codegen options (the §2.3 ablations) --- *)

let ablation_engines =
  let open Lq_plan.Options in
  [
    Lq_compiled.Csharp_engine.engine_with naive;
    Lq_compiled.Csharp_engine.engine_with { default with fuse_aggregates = false };
    Lq_compiled.Csharp_engine.engine_with { default with dedup_aggregates = false };
    Lq_compiled.Csharp_engine.engine_with { default with fuse_topk = false };
    Lq_compiled.Csharp_engine.engine_with { default with hash_join = false };
  ]

let prop_ablations =
  Lq_testkit.qtest ~count:100 "differential: all codegen options agree"
    Lq_testkit.gen_query (fun q -> List.for_all (agree q) ablation_engines)

(* --- fusion actually fuses --- *)

let test_loop_segments () =
  let plan q = Lq_compiled.Plan.compile cat (Lq_plan.Lower.lower cat q) in
  check_int "scan+filter+project is one segment" 1
    (Lq_compiled.Plan.loop_segments
       (plan (source "sales" |> where "s" (v "s" $. "vip") |> select "s" (v "s" $. "id"))));
  check_int "group adds a segment" 2
    (Lq_compiled.Plan.loop_segments
       (plan
          (source "sales"
          |> group_by ~key:("s", v "s" $. "city")
               ~result:("g", record [ ("n", count (v "g")) ]))));
  check_int "join adds the build segment" 2
    (Lq_compiled.Plan.loop_segments
       (plan
          (join
             ~on:(("l", v "l" $. "city"), ("r", v "r" $. "city"))
             ~result:("l", "r", record [ ("id", v "l" $. "id") ])
             (source "sales") (source "shops"))))

(* --- unsupported boundaries --- *)

let test_unsupported () =
  (* An inequality against a correlated aggregate is outside the
     decorrelation pass's rewritable subset (DESIGN.md §12), so the plan
     stays correlated and compiled engines must still refuse it. *)
  let correlated =
    source "sales"
    |> where "s"
         (v "s" $. "qty"
         <: max_of
              (subquery (source "sales" |> where "t" (v "t" $. "city" =: (v "s" $. "city"))))
              "z" (v "z" $. "qty"))
  in
  let expect_unsupported (engine : Engine_intf.t) =
    match Lq_core.Provider.run prov ~engine correlated with
    | exception Engine_intf.Unsupported _ -> true
    | _ -> false
  in
  check_bool "compiled refuses correlated" true
    (expect_unsupported Lq_core.Engines.compiled_csharp);
  check_bool "native refuses correlated" true
    (expect_unsupported Lq_core.Engines.compiled_c);
  check_bool "baseline accepts correlated" true
    (agree correlated Lq_core.Engines.linq_to_objects
    &&
    match Lq_core.Provider.run prov ~engine:Lq_core.Engines.linq_to_objects correlated with
    | _ -> true);
  (* nested data is not an array of structs (§5) *)
  let nested_cat = Lq_testkit.nested_catalog () in
  let nested_prov = Lq_core.Provider.create nested_cat in
  let nq = source "orders" |> select "o" (v "o" $. "oid") in
  check_bool "native refuses nested source" true
    (match Lq_core.Provider.run nested_prov ~engine:Lq_core.Engines.compiled_c nq with
    | exception Engine_intf.Unsupported _ -> true
    | _ -> false);
  check_bool "baseline handles nested source" true
    (Lq_testkit.rows_equal
       (Lq_core.Provider.reference nested_prov nq)
       (Lq_core.Provider.run nested_prov ~engine:Lq_core.Engines.linq_to_objects nq))

(* --- generated source listings --- *)

let test_generated_sources () =
  let q =
    source "sales" |> where "s" (v "s" $. "vip") |> select "s" (v "s" $. "qty")
  in
  let contains hay needle = Lq_expr.Scalar.like_match ~pattern:("%" ^ needle ^ "%") hay in
  let prepared, _ = Lq_core.Provider.prepare_only prov ~engine:Lq_core.Engines.compiled_csharp q in
  (match prepared.Engine_intf.source with
  | Some src ->
    check_bool "C# listing has foreach" true (contains src "foreach");
    check_bool "C# listing yields" true (contains src "yield return")
  | None -> Alcotest.fail "no C# source");
  let prepared_c, _ = Lq_core.Provider.prepare_only prov ~engine:Lq_core.Engines.compiled_c q in
  match prepared_c.Engine_intf.source with
  | Some src ->
    check_bool "C listing exports the ABI entry point" true
      (contains src "lq_query(");
    check_bool "C listing names its scans" true (contains src "scans [sales]");
    check_bool "C listing declares structs" true (contains src "typedef struct")
  | None -> Alcotest.fail "no C source"

let () =
  Alcotest.run "engines"
    [
      ( "differential",
        List.map
          (fun (e : Engine_intf.t) -> prop_engine e.name e)
          all_engines );
      ( "edge cases",
        [
          Alcotest.test_case "corpus" `Quick test_edge_cases;
          Alcotest.test_case "parameters" `Quick test_params_across_engines;
          Alcotest.test_case "prepared reuse" `Quick test_prepared_reuse;
        ] );
      ("ablations", [ prop_ablations; Alcotest.test_case "loop segments" `Quick test_loop_segments ]);
      ( "boundaries",
        [
          Alcotest.test_case "unsupported queries" `Quick test_unsupported;
          Alcotest.test_case "generated sources" `Quick test_generated_sources;
        ] );
    ]
