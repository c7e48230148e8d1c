(* Tests for the expression-tree layer: DSL, evaluation, scalar semantics,
   folding, shapes, typing, path analysis. *)

open Lq_value
open Lq_expr
open Lq_expr.Dsl

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let ev ?(env = []) ?(params = []) e = Eval.expr (Eval.ctx ~params ()) ~env e

(* --- scalar semantics --- *)

let test_scalar_arith () =
  check_bool "int div truncates" true (Value.equal (ev (int 7 /: int 2)) (Value.Int 3));
  check_bool "mixed promotes" true
    (Value.equal (ev (int 1 +: float 0.5)) (Value.Float 1.5));
  check_bool "mod" true (Value.equal (ev (int 7 %: int 3)) (Value.Int 1));
  Alcotest.check_raises "div by zero"
    (Invalid_argument "Scalar: div-by-zero not defined on (7, 0)") (fun () ->
      ignore (ev (int 7 /: int 0)))

let test_scalar_compare () =
  check_bool "int vs float" true (Value.equal (ev (int 2 <: float 2.5)) (Value.Bool true));
  check_bool "string order" true
    (Value.equal (ev (str "abc" <=: str "abd")) (Value.Bool true));
  check_bool "dates" true
    (Value.equal (ev (date "1995-01-01" <: date "1995-01-02")) (Value.Bool true))

let test_short_circuit () =
  (* The right operand would raise; && must not evaluate it. *)
  let bad = int 1 /: int 0 =: int 1 in
  check_bool "and short-circuits" true
    (Value.equal (ev (bool false &&: bad)) (Value.Bool false));
  check_bool "or short-circuits" true (Value.equal (ev (bool true ||: bad)) (Value.Bool true))

let test_like () =
  let cases =
    [
      ("%BRASS", "LARGE POLISHED BRASS", true);
      ("%BRASS", "LARGE BRASS POLISHED", false);
      ("BRASS%", "BRASS THING", true);
      ("%AR%", "LARGE", true);
      ("A_C", "ABC", true);
      ("A_C", "AC", false);
      ("", "", true);
      ("%", "", true);
      ("_", "", false);
      ("a%b%c", "a-x-b-y-c", true);
    ]
  in
  List.iter
    (fun (pattern, s, expected) ->
      check_bool
        (Printf.sprintf "like %S %S" pattern s)
        expected
        (Scalar.like_match ~pattern s))
    cases

let test_string_functions () =
  check_bool "starts_with" true
    (Value.equal (ev (starts_with (str "London") (str "Lon"))) (Value.Bool true));
  check_bool "ends_with" true
    (Value.equal (ev (ends_with (str "London") (str "don"))) (Value.Bool true));
  check_bool "contains" true
    (Value.equal (ev (contains (str "London") (str "ndo"))) (Value.Bool true));
  check_bool "upper" true (Value.equal (ev (upper (str "abc"))) (Value.Str "ABC"));
  check_bool "length" true (Value.equal (ev (length (str "abc"))) (Value.Int 3));
  check_bool "year" true (Value.equal (ev (year (date "1998-12-01"))) (Value.Int 1998))

(* --- evaluation over queries --- *)

let small_catalog () =
  let schema = Schema.make [ ("k", Vtype.Int); ("s", Vtype.String) ] in
  let rows =
    List.map
      (fun (k, s) -> Schema.row schema [ Value.Int k; Value.Str s ])
      [ (1, "a"); (2, "b"); (3, "a"); (4, "c") ]
  in
  Eval.ctx ~catalog:(fun name -> if name = "t" then rows else raise Not_found) ()

let test_eval_query_ordering () =
  let ctx = small_catalog () in
  let q =
    source "t"
    |> group_by ~key:("x", v "x" $. "s")
    |> select "g" (v "g" $. "Key")
  in
  (* first-occurrence key order *)
  Lq_testkit.check_rows "group order"
    [ Value.Str "a"; Value.Str "b"; Value.Str "c" ]
    (Eval.run ctx q)

let test_eval_stable_sort () =
  let ctx = small_catalog () in
  let q = source "t" |> order_by [ ("x", v "x" $. "s", asc) ] |> select "x" (v "x" $. "k") in
  Lq_testkit.check_rows "stable under equal keys"
    [ Value.Int 1; Value.Int 3; Value.Int 2; Value.Int 4 ]
    (Eval.run ctx q)

let test_eval_correlated_subquery () =
  let ctx = small_catalog () in
  (* rows whose k is the max among rows with the same s *)
  let q =
    source "t"
    |> where "x"
         (v "x" $. "k"
         =: max_of
              (subquery (source "t" |> where "y" (v "y" $. "s" =: (v "x" $. "s"))))
              "z" (v "z" $. "k"))
    |> select "x" (v "x" $. "k")
  in
  Lq_testkit.check_rows "correlated max" [ Value.Int 2; Value.Int 3; Value.Int 4 ]
    (Eval.run ctx q)

let test_aggregate_semantics () =
  check_bool "sum empty is int 0" true (Value.equal (Eval.aggregate Ast.Sum []) (Value.Int 0));
  check_bool "min empty is null" true (Value.equal (Eval.aggregate Ast.Min []) Value.Null);
  check_bool "avg" true
    (Value.equal
       (Eval.aggregate Ast.Avg [ Value.Int 1; Value.Int 2 ])
       (Value.Float 1.5));
  check_bool "sum promotes" true
    (Value.equal
       (Eval.aggregate Ast.Sum [ Value.Int 1; Value.Float 0.5 ])
       (Value.Float 1.5))

(* --- constant folding --- *)

let test_fold () =
  let folded = Fold.expr (add_days (date "1998-12-01") (neg (int 90))) in
  check_bool "folds closed call" true
    (match folded with
    | Ast.Const (Value.Date d) -> Date.to_string d = "1998-09-02"
    | _ -> false);
  let open_expr = (v "x" $. "a") +: (int 2 *: int 3) in
  check_str "folds subtree only" "(x.a + 6)" (Pretty.expr_to_string (Fold.expr open_expr));
  (* division by zero is left to fail at run time *)
  check_str "keeps failing expr" "(1 / 0)" (Pretty.expr_to_string (Fold.expr (int 1 /: int 0)));
  check_bool "param not folded" true
    (match Fold.expr (p "x" +: int 0) with Ast.Const _ -> false | _ -> true)

(* --- shapes and parameterization --- *)

let test_shape_key () =
  let q sel = source "t" |> where "x" (v "x" $. "k" >: int sel) in
  check_str "same shape" (Shape.key (q 5)) (Shape.key (q 99));
  check_bool "different structure differs" true
    (Shape.key (q 5) <> Shape.key (source "t" |> where "x" (v "x" $. "k" <: int 5)));
  check_bool "type-sensitive" true
    (Shape.key (source "t" |> where "x" (v "x" $. "k" >: int 5))
    <> Shape.key (source "t" |> where "x" (v "x" $. "k" >: float 5.0)))

let test_shape_consts_roundtrip () =
  let q =
    source "t"
    |> where "x" ((v "x" $. "k" >: int 5) &&: (v "x" $. "s" =: str "a"))
    |> take 3
  in
  let consts = Shape.consts q in
  check_int "three constants" 3 (List.length consts);
  check_bool "replace identity" true (Ast.equal_query q (Shape.replace_consts q consts));
  let swapped = Shape.replace_consts q [ Value.Int 7; Value.Str "b"; Value.Int 1 ] in
  check_bool "swapped differs" true (not (Ast.equal_query q swapped));
  check_str "swapped same shape" (Shape.key q) (Shape.key swapped)

let test_parameterize () =
  let ctx = small_catalog () in
  let q = source "t" |> where "x" (v "x" $. "k" >: int 2) |> select "x" (v "x" $. "k") in
  let pq, bindings = Shape.parameterize q in
  check_int "one binding" 1 (List.length bindings);
  let direct = Eval.run ctx q in
  let via_params =
    Eval.query
      (Eval.ctx ~catalog:(fun _ -> Eval.run ctx (source "t")) ~params:bindings ())
      ~env:[] pq
  in
  Lq_testkit.check_rows "parameterized equals direct" direct via_params

(* --- typecheck --- *)

let tenv =
  Typecheck.tenv
    ~source_type:(fun _ -> Vtype.Record [ ("k", Vtype.Int); ("s", Vtype.String) ])
    ~params:[ ("n", Vtype.Int) ]
    ()

let test_typecheck_ok () =
  let q =
    source "t"
    |> where "x" (v "x" $. "k" >: p "n")
    |> group_by ~key:("x", v "x" $. "s")
         ~result:("g", record [ ("s", v "g" $. "Key"); ("n", count (v "g")) ])
  in
  check_bool "query type" true
    (Vtype.equal
       (Typecheck.query_type tenv ~env:[] q)
       (Vtype.Record [ ("s", Vtype.String); ("n", Vtype.Int) ]))

let test_typecheck_errors () =
  let expect_error q =
    match Typecheck.query_type tenv ~env:[] q with
    | exception Typecheck.Type_error _ -> true
    | _ -> false
  in
  check_bool "bad member" true (expect_error (source "t" |> select "x" (v "x" $. "nope")));
  check_bool "bad predicate type" true
    (expect_error (source "t" |> where "x" (v "x" $. "k")));
  check_bool "mismatched join keys" true
    (expect_error
       (join
          ~on:(("a", v "a" $. "k"), ("b", v "b" $. "s"))
          ~result:("a", "b", int 1)
          (source "t") (source "t")));
  check_bool "sum over string" true
    (expect_error
       (source "t"
       |> group_by ~key:("x", v "x" $. "k")
            ~result:("g", sum (v "g") "e" (v "e" $. "s"))))

(* --- paths --- *)

let test_paths () =
  let e =
    (v "s" $. "shop" $. "city" =: str "x")
    &&: (v "s" $. "price" >: (v "other" $. "limit"))
  in
  Alcotest.(check (list (list string)))
    "paths of s"
    [ [ "shop"; "city" ]; [ "price" ] ]
    (Paths.of_expr ~var:"s" e);
  Alcotest.(check (list (list string)))
    "roots include both vars"
    [ [ "s"; "shop"; "city" ]; [ "s"; "price" ]; [ "other"; "limit" ] ]
    (Paths.roots e);
  Alcotest.(check (list (list string)))
    "bare use reports empty path" [ [] ]
    (Paths.of_expr ~var:"s" (v "s"));
  Alcotest.(check (list (list string)))
    "shadowed var ignored" []
    (Paths.of_expr ~var:"s" (sum (v "g") "s" (v "s" $. "price")))

(* --- free variables / substitution --- *)

let test_free_vars () =
  Alcotest.(check (list string)) "free vars" [ "a"; "b" ]
    (Ast.free_vars ((v "a" $. "x") +: v "b"));
  Alcotest.(check (list string)) "lambda binds" [ "outer" ]
    (Ast.free_vars (sum (v "outer") "x" (v "x" $. "p")));
  check_bool "correlated query detected" true
    (Ast.is_correlated (source "t" |> where "y" (v "y" $. "k" =: v "outer")));
  check_bool "closed query" false
    (Ast.is_correlated (source "t" |> where "y" (v "y" $. "k" =: int 1)))

let test_subst () =
  let e = (v "x" $. "a") +: sum (v "g") "x" (v "x" $. "b") in
  let substituted = Ast.subst [ ("x", int 9) ] e in
  (* outer x replaced, lambda-bound x untouched *)
  check_str "subst respects binding" "(9.a + g.Sum(x => x.b))"
    (Pretty.expr_to_string substituted)


(* --- SQL rendering --- *)

let test_sql_exprs () =
  let sql e = Sql.expr_to_sql e in
  check_str "comparison" "(x.a >= 3)" (sql (v "x" $. "a" >=: int 3));
  check_str "param" "(x.a = :p)" (sql (v "x" $. "a" =: p "p"));
  check_str "date literal" "DATE '1998-12-01'" (sql (date "1998-12-01"));
  check_str "string escaping" "'O''Brien'" (sql (str "O'Brien"));
  check_str "like" "(x.s LIKE '%BRASS')" (sql (like (v "x" $. "s") (str "%BRASS")));
  check_str "case" "CASE WHEN c THEN 1 ELSE 0 END" (sql (if_ (v "c") (int 1) (int 0)));
  check_str "add_days" "(d + 90 * INTERVAL '1' DAY)" (sql (add_days (v "d") (int 90)))

let test_sql_queries () =
  let contains hay needle = Scalar.like_match ~pattern:("%" ^ needle ^ "%") hay in
  let q1_sql = Sql.to_sql Lq_tpch.Queries.q1 in
  check_bool "Q1 groups" true (contains q1_sql "GROUP BY");
  check_bool "Q1 orders" true (contains q1_sql "ORDER BY");
  check_bool "Q1 sums" true (contains q1_sql "SUM(");
  check_bool "Q1 count star" true (contains q1_sql "COUNT(*)");
  let q3_sql = Sql.to_sql Lq_tpch.Queries.q3 in
  check_bool "Q3 join" true (contains q3_sql "JOIN (");
  check_bool "Q3 limit" true (contains q3_sql "LIMIT 10");
  let q14_sql = Sql.to_sql Lq_tpch.Queries.q14 in
  check_bool "Q14 aggregate arithmetic" true (contains q14_sql "SUM(");
  (* group objects as values have no SQL rendering *)
  check_bool "plain groups rejected" true
    (match Sql.to_sql (source "t" |> group_by ~key:("x", v "x" $. "k")) with
    | exception Sql.Not_representable _ -> true
    | _ -> false)

let () =
  Alcotest.run "expr"
    [
      ( "scalar",
        [
          Alcotest.test_case "arith" `Quick test_scalar_arith;
          Alcotest.test_case "compare" `Quick test_scalar_compare;
          Alcotest.test_case "short-circuit" `Quick test_short_circuit;
          Alcotest.test_case "like" `Quick test_like;
          Alcotest.test_case "string functions" `Quick test_string_functions;
        ] );
      ( "eval",
        [
          Alcotest.test_case "group ordering" `Quick test_eval_query_ordering;
          Alcotest.test_case "stable sort" `Quick test_eval_stable_sort;
          Alcotest.test_case "correlated subquery" `Quick test_eval_correlated_subquery;
          Alcotest.test_case "aggregate semantics" `Quick test_aggregate_semantics;
        ] );
      ("fold", [ Alcotest.test_case "constant folding" `Quick test_fold ]);
      ( "shape",
        [
          Alcotest.test_case "keys" `Quick test_shape_key;
          Alcotest.test_case "consts roundtrip" `Quick test_shape_consts_roundtrip;
          Alcotest.test_case "parameterize" `Quick test_parameterize;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "well-typed" `Quick test_typecheck_ok;
          Alcotest.test_case "errors" `Quick test_typecheck_errors;
        ] );
      ("paths", [ Alcotest.test_case "analysis" `Quick test_paths ]);
      ( "sql",
        [
          Alcotest.test_case "expressions" `Quick test_sql_exprs;
          Alcotest.test_case "queries" `Quick test_sql_queries;
        ] );
      ( "ast",
        [
          Alcotest.test_case "free vars" `Quick test_free_vars;
          Alcotest.test_case "substitution" `Quick test_subst;
        ] );
    ]
