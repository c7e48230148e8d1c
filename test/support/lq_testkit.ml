(** Shared fixtures for the test suite: a small sales catalog, a random
    query generator for differential testing, and comparison helpers. *)

open Lq_value
module Ast = Lq_expr.Ast

let value_testable =
  Alcotest.testable Value.pp Value.equal

let check_rows = Alcotest.(check (list value_testable))

(* ------------------------------------------------------------------ *)
(* A small deterministic "sales" catalog used across suites. *)

let sales_schema =
  Schema.make
    [
      ("id", Vtype.Int);
      ("city", Vtype.String);
      ("qty", Vtype.Int);
      ("price", Vtype.Float);
      ("day", Vtype.Date);
      ("vip", Vtype.Bool);
    ]

let cities = [| "London"; "Paris"; "Rome"; "Berlin"; "Madrid" |]

let sales_rows ?(n = 200) ?(seed = 7) () =
  let rng = Lq_exec.Prng.create seed in
  List.init n (fun i ->
      Schema.row sales_schema
        [
          Value.Int i;
          Value.Str cities.(Lq_exec.Prng.int rng (Array.length cities));
          Value.Int (1 + Lq_exec.Prng.int rng 50);
          Value.Float (float_of_int (Lq_exec.Prng.int rng 10000) /. 100.0);
          Value.Date (Date.of_ymd 2020 1 1 + Lq_exec.Prng.int rng 365);
          Value.Bool (Lq_exec.Prng.bool rng);
        ])

let shops_schema =
  Schema.make
    [ ("city", Vtype.String); ("country", Vtype.String); ("rank", Vtype.Int) ]

let shops_rows () =
  List.map
    (fun (c, k, r) -> Schema.row shops_schema [ Value.Str c; Value.Str k; Value.Int r ])
    [
      ("London", "UK", 1);
      ("Paris", "FR", 2);
      ("Rome", "IT", 3);
      ("Berlin", "DE", 4);
      (* Madrid intentionally missing: joins must drop unmatched rows. *)
    ]

let sales_catalog ?n ?seed () =
  let cat = Lq_catalog.Catalog.create () in
  Lq_catalog.Catalog.add cat ~name:"sales" ~schema:sales_schema (sales_rows ?n ?seed ());
  Lq_catalog.Catalog.add cat ~name:"shops" ~schema:shops_schema (shops_rows ());
  cat

(* A nested-schema catalog (for hybrid/mapping tests): order → item → shop. *)
let nested_schema =
  Schema.make
    [
      ("oid", Vtype.Int);
      ( "item",
        Vtype.Record
          [ ("name", Vtype.String); ("price", Vtype.Float); ("weight", Vtype.Int) ] );
      ( "shop",
        Vtype.Record [ ("city", Vtype.String); ("zip", Vtype.Int) ] );
    ]

let nested_rows ?(n = 60) () =
  let rng = Lq_exec.Prng.create 11 in
  List.init n (fun i ->
      Value.record
        [
          ("oid", Value.Int i);
          ( "item",
            Value.record
              [
                ("name", Value.Str (Printf.sprintf "item-%d" (i mod 7)));
                ("price", Value.Float (float_of_int (Lq_exec.Prng.int rng 500) /. 10.0));
                ("weight", Value.Int (Lq_exec.Prng.int rng 20));
              ] );
          ( "shop",
            Value.record
              [
                ("city", Value.Str cities.(i mod Array.length cities));
                ("zip", Value.Int (10000 + (i mod 97)));
              ] );
        ])

let nested_catalog () =
  let cat = Lq_catalog.Catalog.create () in
  Lq_catalog.Catalog.add cat ~name:"orders" ~schema:nested_schema (nested_rows ());
  cat

(* ------------------------------------------------------------------ *)
(* Random query generation over the sales catalog, for differential
   testing of engines against the reference interpreter. *)

let gen_pred var : Ast.expr QCheck2.Gen.t =
  let open QCheck2.Gen in
  let open Lq_expr.Dsl in
  let field = oneofl [ "id"; "qty" ] in
  let leaf =
    oneof
      [
        (let* f = field and* k = int_range 0 60 in
         return (v var $. f >: int k));
        (let* f = field and* k = int_range 0 60 in
         return (v var $. f <=: int k));
        (let* c = oneofl (Array.to_list cities) in
         return (v var $. "city" =: str c));
        (let* c = oneofl [ "Lon"; "Par"; "Ro" ] in
         return (starts_with (v var $. "city") (str c)));
        (let* x = float_range 0.0 100.0 in
         return (v var $. "price" <: float x));
        return (v var $. "vip" =: bool true);
        (let* k = int_range 0 10 in
         return ((v var $. "qty") %: int 7 =: int (k mod 7)));
      ]
  in
  let* a = leaf and* b = leaf and* shape = int_range 0 3 in
  match shape with
  | 0 -> return a
  | 1 -> return (a &&: b)
  | 2 -> return (a ||: b)
  | _ -> return (not_ a)

let gen_query_from (base : Ast.query QCheck2.Gen.t) : Ast.query QCheck2.Gen.t =
  let open QCheck2.Gen in
  let open Lq_expr.Dsl in
  let base =
    let* pred = gen_pred "s" and* start = base in
    return (start |> where "s" pred)
  in
  let with_projection q =
    oneof
      [
        return q;
        return
          (q
          |> select "s"
               (record
                  [
                    ("id", v "s" $. "id");
                    ("city", v "s" $. "city");
                    ("qty", v "s" $. "qty");
                    ("price", (v "s" $. "price") *: float 1.1);
                  ]));
      ]
  in
  let with_shape q =
    oneof
      [
        return q;
        return (q |> order_by [ ("o", v "o" $. "qty", desc); ("o", v "o" $. "city", asc) ]);
        (let* k = int_range 0 25 in
         return (q |> order_by [ ("o", v "o" $. "city", asc) ] |> take k));
        (let* k = int_range 0 50 in
         return (q |> skip k));
        return (q |> distinct);
        return
          (q
          |> group_by
               ~key:("g", v "g" $. "city")
               ~result:
                 ( "grp",
                   record
                     [
                       ("city", v "grp" $. "Key");
                       ("n", count (v "grp"));
                       ("total", sum (v "grp") "x" (v "x" $. "qty"));
                       ("avg_price", avg (v "grp") "x" (v "x" $. "price"));
                       ("worst", max_of (v "grp") "x" (v "x" $. "price"));
                     ] ));
        return
          (join
             ~on:(("l", v "l" $. "city"), ("r", v "r" $. "city"))
             ~result:
               ( "l",
                 "r",
                 record
                   [
                     ("id", v "l" $. "id");
                     ("country", v "r" $. "country");
                     ("qty", v "l" $. "qty");
                   ] )
             q (source "shops"));
      ]
  in
  let* q = base in
  let* q = with_projection q in
  with_shape q

let gen_query : Ast.query QCheck2.Gen.t =
  gen_query_from (QCheck2.Gen.return (Lq_expr.Dsl.source "sales"))

(* Queries whose base filter reads a runtime parameter, plus its binding:
   exercises the cached-plan parameter-rebinding path end to end. *)
let gen_query_with_params :
    (Ast.query * (string * Value.t) list) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let open Lq_expr.Dsl in
  let* lo = int_range 0 120 in
  let base = return (source "sales" |> where "s0" (v "s0" $. "id" <: p "lo")) in
  let* q = gen_query_from base in
  return (q, [ ("lo", Value.Int lo) ])

let query_print q = Lq_expr.Pretty.query_to_string q

(* ------------------------------------------------------------------ *)
(* Random correlated/nested queries over sales+shops, exercising the
   decorrelation pass (lib/plan/decorrelate.ml) differentially.  Each
   sample pairs the query with its expected routing: [`Rewritable]
   shapes sit inside the documented rewrite subset (DESIGN.md §12), so
   compiled engines must run them; [`Correlated] shapes must be refused
   by the rewrite, leaving compiled engines to raise Unsupported while
   the interpreting engines still answer. *)

let gen_correlated_query :
    (Ast.query * [ `Rewritable | `Correlated ]) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let open Lq_expr.Dsl in
  (* Correlated inner sources; [ov] is the outer query variable. *)
  let inner_sales ov =
    let* extra = oneofl [ None; Some 10; Some 25; Some 40 ] in
    let corr = v "y" $. "city" =: (v ov $. "city") in
    let body =
      match extra with
      | None -> corr
      | Some k -> corr &&: (v "y" $. "qty" >: int k)
    in
    return (source "sales" |> where "y" body)
  in
  (* Two correlation keys: forces the composite __dc_k0/__dc_k1 join key. *)
  let inner_sales2 ov =
    return
      (source "sales"
      |> where "y"
           ((v "y" $. "city" =: (v ov $. "city"))
           &&: (v "y" $. "vip" =: (v ov $. "vip"))))
  in
  let inner_shops ov =
    let* extra = oneofl [ None; Some 1; Some 3 ] in
    let corr = v "x" $. "city" =: (v ov $. "city") in
    let body =
      match extra with
      | None -> corr
      | Some r -> corr &&: (v "x" $. "rank" >=: int r)
    in
    return (source "shops" |> where "x" body)
  in
  (* Depth 2: a correlated aggregate whose inner filter itself holds a
     correlated EXISTS over the inner element. *)
  let depth2 ov =
    return
      (source "sales"
      |> where "y"
           ((v "y" $. "city" =: (v ov $. "city"))
           &&: (count
                  (subquery
                     (source "shops"
                     |> where "x" (v "x" $. "city" =: (v "y" $. "city"))))
               >: int 0)))
  in
  let rewritable ov =
    oneof
      [
        (let* q = inner_sales ov in
         return (v ov $. "qty" =: min_of (subquery q) "z" (v "z" $. "qty")));
        (let* q = inner_sales ov in
         return (v ov $. "qty" =: max_of (subquery q) "z" (v "z" $. "qty")));
        (let* q = inner_sales ov in
         return (v ov $. "price" =: min_of (subquery q) "z" (v "z" $. "price")));
        (let* q = inner_sales2 ov in
         return (v ov $. "price" =: avg (subquery q) "z" (v "z" $. "price")));
        (let* q = inner_shops ov in
         return (count (subquery q) >: int 0));
        (let* q = inner_sales ov in
         return (count (subquery q) >=: int 1));
        (let* q = inner_sales ov in
         return (sum (subquery q) "z" (v "z" $. "qty") >: int 0));
        (let* q = depth2 ov in
         return (v ov $. "qty" =: min_of (subquery q) "z" (v "z" $. "qty")));
      ]
  in
  let correlated_only ov =
    oneof
      [
        (* inequality against a correlated aggregate *)
        (let* q = inner_sales ov in
         return (v ov $. "qty" <: max_of (subquery q) "z" (v "z" $. "qty")));
        (* Eq with Count: empty groups would make 0 match, so refused *)
        (let* q = inner_sales ov in
         return (v ov $. "qty" =: count (subquery q)));
        (* NOT EXISTS: empty groups must pass, a semijoin would drop them *)
        (let* q = inner_shops ov in
         return (not_ (count (subquery q) >: int 0)));
      ]
  in
  let* kind = frequency [ (3, return `Rewritable); (1, return `Correlated) ] in
  let* pred =
    match kind with
    | `Rewritable -> rewritable "s"
    | `Correlated -> correlated_only "s"
  in
  let* plain =
    oneofl [ None; Some (v "s" $. "qty" >: int 15); Some (v "s" $. "vip" =: bool true) ]
  in
  let body = match plain with None -> pred | Some p0 -> p0 &&: pred in
  let base = source "sales" |> where "s" body in
  let* q =
    oneofl
      [
        base;
        base |> select "s" (record [ ("id", v "s" $. "id"); ("qty", v "s" $. "qty") ]);
        base |> order_by [ ("o", v "o" $. "id", asc) ] |> take 12;
      ]
  in
  return (q, kind)

let correlated_query_print (q, kind) =
  (match kind with
  | `Rewritable -> "[rewritable] "
  | `Correlated -> "[correlated] ")
  ^ query_print q

(* ------------------------------------------------------------------ *)

let rows_equal expected got =
  List.length expected = List.length got && List.for_all2 Value.equal expected got

(* Equality with a relative tolerance on floats: parallel partial-sum
   merges legitimately differ from sequential folds in the last bits. *)
let rec value_close a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
    x = y
    || Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
  | Value.Record fa, Value.Record fb ->
    Array.length fa = Array.length fb
    && Array.for_all2
         (fun (na, va) (nb, vb) -> String.equal na nb && value_close va vb)
         fa fb
  | Value.List xa, Value.List xb ->
    List.length xa = List.length xb && List.for_all2 value_close xa xb
  | _ -> Value.equal a b

let rows_close expected got =
  List.length expected = List.length got && List.for_all2 value_close expected got

let engine_agrees_with_reference ?(params = []) ?provider cat
    (engine : Lq_catalog.Engine_intf.t) q =
  let prov =
    match provider with
    | Some prov -> prov
    | None -> Lq_core.Provider.create cat
  in
  let expected = Lq_core.Provider.reference prov ~params q in
  match Lq_core.Provider.run prov ~engine ~params q with
  | got -> if rows_close expected got then `Agree else `Disagree (expected, got)
  | exception Lq_catalog.Engine_intf.Unsupported _ -> `Unsupported

(* The parameter typing of [q] as a plan-cache miss types it: from
   [params]' bindings, and the rest by the type checker's context rule. *)
let param_types ?(params = []) cat q =
  let prov = Lq_core.Provider.create ~use_cache:false cat in
  Lq_core.Provider.param_types prov (Lq_core.Provider.front_end prov ~params q)

(* An engine's plan prepared outside the provider, from [q]'s lowering. *)
let prepare ?instr ?params cat (engine : Lq_catalog.Engine_intf.t) q =
  engine.prepare ?instr cat ~param_types:(param_types ?params cat q) (Lq_plan.Lower.lower cat q)

let qtest ?print ?(count = 100) ?rand name gen prop =
  QCheck_alcotest.to_alcotest ?rand
    (QCheck2.Test.make ?print ~name ~count gen prop)
