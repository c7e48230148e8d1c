(* The shared lowering layer (lib/plan): every engine lowers every
   extended TPC-H query from the same physical plan and must agree with
   the reference oracle — a typed capability refusal is an acceptable
   skip, a wrong answer or an untyped crash is not. Plus: the capability
   verdict holds both ways (a predicted refusal really refuses, and a
   passed check is not refused at prepare), explain
   renders for every query x engine, and the plan shape-key is stable
   under parameter rebinding (the query-cache key invariant). *)

open Lq_value
module Ast = Lq_expr.Ast
module Engine_intf = Lq_catalog.Engine_intf
module Plan = Lq_plan.Plan
module Lower = Lq_plan.Lower
module Shape = Lq_expr.Shape

let check_bool = Alcotest.(check bool)
let sf = 0.002
let cat = Lq_tpch.Dbgen.load ~sf ()
let prov = Lq_core.Provider.create cat
let params = Lq_tpch.Queries.extended_params

(* EXISTS as naively written: parts with at least one cheap supply offer.
   The decorrelation pass turns this into a filtered semijoin on the part
   key (DESIGN.md §12, case 2), so the compiled engines run it too. *)
let q_exists =
  let open Lq_expr.Dsl in
  source "part"
  |> where "p"
       (count
          (subquery
             (source "partsupp"
             |> where "ps"
                  ((v "ps" $. "ps_partkey" =: (v "p" $. "p_partkey"))
                  &&: (v "ps" $. "ps_supplycost" <: float 500.0))))
       >: int 0)
  |> select "p" (record [ ("p_partkey", v "p" $. "p_partkey") ])
  |> order_by [ ("r", v "r" $. "p_partkey", asc) ]

let queries =
  Lq_tpch.Queries.all
  @ [ ("Q2corr", Lq_tpch.Queries.q2_correlated); ("Qexists", q_exists) ]
  @ Lq_tpch.Queries.extended

let engines = Lq_core.Engines.all
let test_cat = Lq_testkit.sales_catalog ()

(* --- differential: all engines, one lowering, one oracle ------------ *)

let differential_case (qname, q) =
  Alcotest.test_case (qname ^ " on all engines") `Quick (fun () ->
      let expected = Lq_core.Provider.reference prov ~params q in
      List.iter
        (fun (engine : Engine_intf.t) ->
          let verdict = Lq_core.Provider.plan_check prov ~engine q in
          match Lq_core.Provider.run prov ~engine ~params q with
          | got ->
            (* The capability check is conservative: had it predicted a
               refusal, preparation would have raised. *)
            check_bool
              (Printf.sprintf "%s/%s: verdict permits what ran" qname engine.name)
              true (Result.is_ok verdict);
            check_bool
              (Printf.sprintf "%s/%s agrees with the oracle" qname engine.name)
              true
              (Lq_testkit.rows_close expected got)
          | exception Engine_intf.Unsupported _ ->
            (* Typed skip; any other exception fails the test. A check
               that passed is a promise: only a refused verdict may end
               here. *)
            check_bool
              (Printf.sprintf "%s/%s: a refusal was declared" qname engine.name)
              true (Result.is_error verdict))
        engines)

(* --- a passed capability check is a promise ------------------------ *)

(* Over random queries of the three generators, every engine either
   refuses a query by its declared capabilities or prepares it: prepare
   never refuses what the check passed. The JIT is off, so the native
   engines prepare without a compiler. *)
let promise_holds q =
  let prov = Lq_core.Provider.create ~use_cache:false test_cat in
  List.for_all
    (fun (engine : Engine_intf.t) ->
      match Lq_core.Provider.plan_check prov ~engine q with
      | Error _ -> true
      | Ok () -> (
        match Lq_core.Provider.prepare_only prov ~engine q with
        | _ -> true
        | exception Engine_intf.Unsupported msg ->
          QCheck2.Test.fail_reportf "%s: the check passed, prepare refused: %s" engine.name
            msg))
    engines

let prop_promise name gen to_query =
  Lq_testkit.qtest ~count:50 ~rand:(Random.State.make [| 11 |])
    ("check passed => prepare accepts: " ^ name)
    gen
    (fun sample ->
      Unix.putenv "LQ_JIT" "off";
      promise_holds (to_query sample))

(* --- explain: renders or refuses with a reason, never crashes ------- *)

let test_explain_total () =
  List.iter
    (fun (qname, q) ->
      List.iter
        (fun (engine : Engine_intf.t) ->
          let rendered, verdict = Lq_core.Provider.explain prov ~engine q in
          check_bool
            (Printf.sprintf "%s/%s: explain renders" qname engine.name)
            true
            (String.length rendered > 0);
          match verdict with
          | Ok () -> ()
          | Error reason ->
            check_bool
              (Printf.sprintf "%s/%s: refusal carries a reason" qname engine.name)
              true
              (String.length reason > 0))
        engines)
    queries

(* --- fusion annotations surface in the plan ------------------------- *)

let test_lowering_annotations () =
  let lower name = Lower.lower cat (Lq_core.Provider.optimized prov name) in
  (* Q1 fuses its aggregates into one registry with deduplication:
     sum(qty), sum(price), avg(qty), avg(price), count — with the two
     averages sharing sums/counts where the selectors coincide. *)
  let q1 = lower (List.assoc "Q1" Lq_tpch.Queries.all) in
  let rec find_agg (p : Plan.t) =
    match p.Plan.op with
    | Plan.Aggregate a -> Some a
    | _ -> List.find_map find_agg (Plan.children p)
  in
  (match find_agg q1 with
  | None -> Alcotest.fail "Q1 lowers without an aggregate"
  | Some a ->
    check_bool "Q1 aggregate is fused" true a.Plan.fused;
    check_bool "Q1 drops item lists" false a.Plan.keep_items;
    check_bool "Q1 registry has one slot per occurrence" true
      (List.length a.Plan.aggs = List.length a.Plan.occ_slots));
  (* A result selector mentioning the same aggregate twice shares one
     accumulator: the registry is smaller than the occurrence map. *)
  let dup =
    let open Lq_expr.Dsl in
    source "sales"
    |> group_by ~key:("s", v "s" $. "vip")
         ~result:
           ( "g",
             record
               [
                 ("total", sum (v "g") "x" (v "x" $. "qty"));
                 ("again", sum (v "g") "x" (v "x" $. "qty"));
               ] )
  in
  (match find_agg (Lower.lower test_cat dup) with
  | None -> Alcotest.fail "dup query lowers without an aggregate"
  | Some a ->
    check_bool "duplicate aggregates share a registry slot" true
      (List.length a.Plan.aggs = 1 && List.length a.Plan.occ_slots = 2));
  (* Q3 ends in OrderBy+Take: the lowering must fuse them to top-k. *)
  let q3 = lower (List.assoc "Q3" Lq_tpch.Queries.all) in
  let rec has_topk (p : Plan.t) =
    match p.Plan.op with
    | Plan.Top_k _ -> true
    | _ -> List.exists has_topk (Plan.children p)
  in
  check_bool "Q3 fuses sort+take to top-k" true (has_topk q3);
  let naive = Lower.lower ~options:Lq_plan.Options.naive cat
      (Lq_core.Provider.optimized prov (List.assoc "Q3" Lq_tpch.Queries.all))
  in
  check_bool "naive options disable top-k fusion" false (has_topk naive);
  (* Group-key accesses ([g.Key.field]) are structural reads of the
     synthetic group record, not paths into nested column data: the
     single-level-column engine must still pass the capability check on
     Q1 (it ran Q1 before the capability layer existed). *)
  let vectorwise =
    List.find (fun (e : Engine_intf.t) -> String.equal e.name "vectorwise") engines
  in
  check_bool "vectorwise capability check accepts Q1" true
    (Result.is_ok
       (Lq_core.Provider.plan_check prov ~engine:vectorwise
          (List.assoc "Q1" Lq_tpch.Queries.all)))

(* --- storage routing surfaces in explain, never in the shape key ---- *)

let test_explain_storage () =
  let has_sub sub s = Lq_expr.Scalar.like_match ~pattern:("%" ^ sub ^ "%") s in
  let open Lq_expr.Dsl in
  (* Field-wise demand routes the scan to the encoded column store, and
     explain names each demanded column's encoding (the sales fixture's
     low-cardinality city/qty columns dictionary-encode). *)
  let colq =
    source "sales"
    |> where "s" (v "s" $. "qty" >: int 10)
    |> select "s" (record [ ("city", v "s" $. "city"); ("qty", v "s" $. "qty") ])
  in
  let col_plan = Lower.lower test_cat (Lq_core.Optimizer.run colq) in
  let rendered = Plan.explain col_plan in
  check_bool "column-routed scan renders" true (has_sub "storage=column(" rendered);
  check_bool "city encoding named" true (has_sub "city:dict8" rendered);
  check_bool "qty encoding named" true (has_sub "qty:dict8" rendered);
  (* A whole-element scan reconstructs rows and stays on the rowstore. *)
  let rowq = source "sales" |> where "s" (v "s" $. "qty" >: int 10) in
  let row_plan = Lower.lower test_cat (Lq_core.Optimizer.run rowq) in
  check_bool "row-routed scan renders" true
    (has_sub "storage=row" (Plan.explain row_plan));
  check_bool "row plan claims no columns" false
    (has_sub "storage=column" (Plan.explain row_plan));
  (* The storage choice is stats-dependent, explain-only detail: the
     query-cache key must never see it. *)
  check_bool "shape key is storage-blind (column)" false
    (has_sub "storage=" (Plan.shape_key col_plan));
  check_bool "shape key is storage-blind (row)" false
    (has_sub "storage=" (Plan.shape_key row_plan));
  (* The provider surfaces the same annotation end to end. *)
  let rendered_prov, _ =
    Lq_core.Provider.explain prov ~engine:(List.hd engines) Lq_tpch.Queries.q6
  in
  check_bool "Provider.explain shows Q6 column routing" true
    (has_sub "storage=column(" rendered_prov)

(* --- decorrelation surfaces in explain, never in the shape key ------ *)

let test_explain_decorrelated () =
  let has_sub sub s = Lq_expr.Scalar.like_match ~pattern:("%" ^ sub ^ "%") s in
  let compiled_c = Lq_core.Engines.compiled_c in
  let rendered, verdict =
    Lq_core.Provider.explain prov ~engine:compiled_c Lq_tpch.Queries.q2_correlated
  in
  (* The annotation names the rewritten aggregate and its correlation keys,
     and the plan below it carries the grouped sub-plan joined back. *)
  check_bool "Q2corr explain is annotated" true
    (has_sub "decorrelated=min(iz.ps_supplycost)" rendered);
  check_bool "Q2corr explain shows the grouped sub-plan" true
    (has_sub "hash-aggregate" rendered);
  check_bool "Q2corr explain carries the synthetic value column" true
    (has_sub "__dc_val" rendered);
  check_bool "Q2corr verdict flips to supported" true (Result.is_ok verdict);
  (* EXISTS case: annotated too, and likewise supported. *)
  let rendered_ex, verdict_ex =
    Lq_core.Provider.explain prov ~engine:compiled_c q_exists
  in
  check_bool "Qexists explain is annotated" true (has_sub "decorrelated=" rendered_ex);
  check_bool "Qexists verdict flips to supported" true (Result.is_ok verdict_ex);
  (* A query the rewrite refuses keeps its refusal verdict. *)
  let correlated_ineq =
    let open Lq_expr.Dsl in
    source "part"
    |> where "p"
         (v "p" $. "p_partkey"
         <: count
              (subquery
                 (source "partsupp"
                 |> where "ps" (v "ps" $. "ps_partkey" =: (v "p" $. "p_partkey")))))
  in
  let rendered_ineq, verdict_ineq =
    Lq_core.Provider.explain prov ~engine:compiled_c correlated_ineq
  in
  check_bool "refused query carries no annotation" false
    (has_sub "decorrelated=" rendered_ineq);
  check_bool "refused query keeps its refusal" true (Result.is_error verdict_ineq)

(* --- shape-key stability under parameter rebinding ------------------ *)

(* Rewrites every literal constant to a different value of the same type:
   a resubmission of the same query shape with different bindings. *)
let rec perturb_expr (e : Ast.expr) : Ast.expr =
  match e with
  | Ast.Const (Value.Int n) -> Ast.Const (Value.Int (n + 17))
  | Ast.Const (Value.Float x) -> Ast.Const (Value.Float (x +. 3.5))
  | Ast.Const (Value.Str s) -> Ast.Const (Value.Str (s ^ "!"))
  | Ast.Const _ | Ast.Param _ | Ast.Var _ -> e
  | Ast.Member (r, f) -> Ast.Member (perturb_expr r, f)
  | Ast.Unop (op, e) -> Ast.Unop (op, perturb_expr e)
  | Ast.Binop (op, a, b) -> Ast.Binop (op, perturb_expr a, perturb_expr b)
  | Ast.If (a, b, c) -> Ast.If (perturb_expr a, perturb_expr b, perturb_expr c)
  | Ast.Call (f, args) -> Ast.Call (f, List.map perturb_expr args)
  | Ast.Agg (k, src, sel) ->
    Ast.Agg (k, perturb_expr src, Option.map perturb_lambda sel)
  | Ast.Subquery q -> Ast.Subquery (perturb_query q)
  | Ast.Record_of fields ->
    Ast.Record_of (List.map (fun (n, e) -> (n, perturb_expr e)) fields)

and perturb_lambda (l : Ast.lambda) : Ast.lambda =
  { l with Ast.body = perturb_expr l.Ast.body }

and perturb_query (q : Ast.query) : Ast.query =
  match q with
  | Ast.Source _ -> q
  | Ast.Where (src, p) -> Ast.Where (perturb_query src, perturb_lambda p)
  | Ast.Select (src, s) -> Ast.Select (perturb_query src, perturb_lambda s)
  | Ast.Join j ->
    Ast.Join
      {
        Ast.left = perturb_query j.Ast.left;
        right = perturb_query j.Ast.right;
        left_key = perturb_lambda j.Ast.left_key;
        right_key = perturb_lambda j.Ast.right_key;
        result = perturb_lambda j.Ast.result;
      }
  | Ast.Group_by g ->
    Ast.Group_by
      {
        Ast.group_source = perturb_query g.Ast.group_source;
        key = perturb_lambda g.Ast.key;
        group_result = Option.map perturb_lambda g.Ast.group_result;
      }
  | Ast.Order_by (src, keys) ->
    Ast.Order_by
      ( perturb_query src,
        List.map
          (fun (k : Ast.sort_key) -> { k with Ast.by = perturb_lambda k.Ast.by })
          keys )
  | Ast.Take (src, n) -> Ast.Take (perturb_query src, perturb_expr n)
  | Ast.Skip (src, n) -> Ast.Skip (perturb_query src, perturb_expr n)
  | Ast.Distinct src -> Ast.Distinct (perturb_query src)

let shape_of q =
  let parameterized, _bindings = Shape.parameterize q in
  Plan.shape_key (Lower.lower test_cat parameterized)

let prop_shape_stable =
  Lq_testkit.qtest ~count:150 "plan shape-key is stable under rebinding"
    Lq_testkit.gen_query (fun q ->
      (* Perturb after canonicalization, exactly where the cache key is
         computed: literals become parameters there, so two submissions
         differing only in literal values must share one plan shape. *)
      let q = Lq_core.Optimizer.run q in
      String.equal (shape_of q) (shape_of (perturb_query q)))

let prop_shape_deterministic =
  Lq_testkit.qtest ~count:80 "lowering and shape-key are deterministic"
    Lq_testkit.gen_query (fun q ->
      let q = Lq_core.Optimizer.run q in
      String.equal (shape_of q) (shape_of q)
      && Plan.hash (Lower.lower test_cat q) = Plan.hash (Lower.lower test_cat q))

(* The decorrelated Q2 must cache like any other plan: one shape across
   literal rebindings, and the explain-only annotation never leaks in. *)
let test_shape_decorrelated () =
  let has_sub sub s = Lq_expr.Scalar.like_match ~pattern:("%" ^ sub ^ "%") s in
  let shape q =
    let parameterized, _bindings = Shape.parameterize q in
    Plan.shape_key (Lower.lower cat parameterized)
  in
  let q = Lq_core.Optimizer.run Lq_tpch.Queries.q2_correlated in
  let k = shape q in
  check_bool "decorrelated shape is stable under rebinding" true
    (String.equal k (shape (perturb_query q)));
  check_bool "shape key is annotation-blind" false (has_sub "decorrelated=" k);
  check_bool "decorrelated Q2 and hand-written Q2 still differ in shape" false
    (String.equal k (shape (Lq_core.Optimizer.run (List.assoc "Q2" Lq_tpch.Queries.all))))

let () =
  Alcotest.run "plan"
    [
      ("tpch differential", List.map differential_case queries);
      ( "explain",
        [
          Alcotest.test_case "total over queries x engines" `Quick test_explain_total;
          Alcotest.test_case "lowering annotations" `Quick test_lowering_annotations;
          Alcotest.test_case "storage routing" `Quick test_explain_storage;
          Alcotest.test_case "decorrelation routing" `Quick test_explain_decorrelated;
        ] );
      ( "capability promise",
        [
          prop_promise "plain" Lq_testkit.gen_query Fun.id;
          prop_promise "parameterized" Lq_testkit.gen_query_with_params fst;
          prop_promise "correlated" Lq_testkit.gen_correlated_query fst;
        ] );
      ( "shape key",
        [
          prop_shape_stable;
          prop_shape_deterministic;
          Alcotest.test_case "decorrelated Q2" `Quick test_shape_decorrelated;
        ] );
    ]
