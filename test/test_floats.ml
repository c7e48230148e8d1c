(* Differential coverage of every float path of the native tiers. A
   fixed corpus compiles each float-typed loop-IR node at least once —
   literals, registers, sub-query cells, column reads, promotions,
   negation, abs, conditionals, all five arithmetic operators, float
   compares, a float group key (the two-part hash key), float
   Sum/Avg/Min/Max, a float sort key and float spill columns — checked by
   walking each query's IR. Every engine that runs the closure tier must
   return the reference interpreter's rows, including a float [%] by zero
   and NaN sort keys, group keys and extrema. *)

open Lq_value
open Lq_expr.Dsl
module L = Lq_native.Loop
module Engine_intf = Lq_catalog.Engine_intf
module Provider = Lq_core.Provider
module Engines = Lq_core.Engines

(* Interpreted closure tier only: the JIT engine must not promote. *)
let () = Unix.putenv "LQ_JIT" "off"
let cat = Lq_tpch.Dbgen.load ~sf:0.001 ()
let prov = Provider.create cat
let params = [ ("lo", Value.Float 900.0) ]
let f name = v "l" $. name
let nan_of x = (x -: x) /: (x -: x)

(* Scan, filter, projection, sort: arithmetic, promotion, sign, abs,
   conditionals, compares against a register, [%] by zero, NaN keys. *)
let projections ~limit =
  let q =
    source "lineitem"
    |> where "l" ((f "l_extendedprice" >: p "lo") &&: (f "l_discount" <=: float 0.07))
    |> select "l"
         (record
            [
              ("k", f "l_orderkey");
              ("n", f "l_linenumber");
              ("add", f "l_extendedprice" +: f "l_tax");
              ("sub", f "l_extendedprice" -: f "l_discount");
              ("mul", f "l_quantity" *: f "l_discount");
              ("div", f "l_extendedprice" /: f "l_quantity");
              ("mod", f "l_extendedprice" %: float 7.0);
              ("mod0", f "l_extendedprice" %: (f "l_discount" -: f "l_discount"));
              ("neg", neg (f "l_discount"));
              ("abs", abs_ (f "l_discount" -: float 0.05));
              ("promote", f "l_linenumber" +: f "l_tax");
              ( "pick",
                if_ (f "l_linenumber" >: int 3) (nan_of (f "l_tax")) (neg (f "l_tax")) );
            ])
    |> order_by
         [ ("r", v "r" $. "pick", asc); ("r", v "r" $. "mul", desc); ("r", v "r" $. "k", asc);
           ("r", v "r" $. "n", asc) ]
  in
  match limit with None -> q | Some n -> take n q

(* Grouping on a float key (negative, zero, positive and NaN), float
   accumulators over NaN-bearing arguments. *)
let groups =
  source "lineitem"
  |> group_by
       ~key:
         ( "l",
           if_ (f "l_linenumber" =: int 7) (nan_of (f "l_tax")) (f "l_discount" -: float 0.05) )
       ~result:
         ( "g",
           record
             [
               ("key", v "g" $. "Key");
               ("sum", sum (v "g") "x" (v "x" $. "l_extendedprice"));
               ("avg", avg (v "g") "x" (v "x" $. "l_tax"));
               ( "min",
                 min_of (v "g") "x"
                   (if_ (v "x" $. "l_linenumber" =: int 2) (nan_of (v "x" $. "l_tax"))
                      (v "x" $. "l_tax")) );
               ("max", max_of (v "g") "x" ((v "x" $. "l_quantity") *: float (-1.0)));
               ("n", count (v "g"));
             ] )
  |> order_by [ ("r", v "r" $. "key", asc) ]

(* A join carrying float columns through the build side's spill, and a
   filter against an uncorrelated sub-query's float (a per-execution
   cell). *)
let joined =
  join
    ~on:(("o", v "o" $. "o_orderkey"), ("l", f "l_orderkey"))
    ~result:
      ( "o",
        "l",
        record
          [
            ("k", v "o" $. "o_orderkey");
            ("n", f "l_linenumber");
            ("tp", v "o" $. "o_totalprice");
            ("ep", f "l_extendedprice");
            ("share", f "l_extendedprice" /: (v "o" $. "o_totalprice"));
          ] )
    (source "orders")
    (source "lineitem"
    |> where "l"
         (f "l_extendedprice"
         >: avg (subquery (source "lineitem")) "x" (v "x" $. "l_extendedprice")))
  |> order_by [ ("r", v "r" $. "share", desc); ("r", v "r" $. "k", asc); ("r", v "r" $. "n", asc) ]

let distinct_floats =
  source "lineitem" |> select "l" (f "l_discount") |> distinct

let corpus =
  [
    ("projections", projections ~limit:None);
    ("projections top-K", projections ~limit:(Some 40));
    ("float groups", groups);
    ("join + cell", joined);
    ("distinct floats", distinct_floats);
  ]

(* --- coverage: a walk over the loop IR -------------------------------- *)

let arith_name = function L.Add -> "+" | L.Sub -> "-" | L.Mul -> "*" | L.Div -> "/" | L.Mod -> "%"

let rec expr_tags (e : L.expr) acc =
  let acc =
    match (e.L.ty, e.L.node) with
    | L.F, L.Float_lit _ -> "Float_lit" :: acc
    | L.F, L.Reg _ -> "Reg" :: acc
    | L.F, L.Cell _ -> "Cell" :: acc
    | L.F, L.Col _ -> "Col" :: acc
    | L.F, L.To_float _ -> "To_float" :: acc
    | L.F, L.Neg _ -> "Neg" :: acc
    | L.F, L.Abs _ -> "Abs" :: acc
    | L.F, L.If _ -> "If" :: acc
    | L.F, L.Arith (op, _, _) -> ("Arith " ^ arith_name op) :: acc
    | _, L.Cmp (_, L.By_float, _, _) -> "Cmp By_float" :: acc
    | _ -> acc
  in
  match e.L.node with
  | L.Int_lit _ | L.Bool_lit _ | L.Float_lit _ | L.Reg _ | L.Cell _ | L.Col _ | L.Key _ | L.Acc _
    ->
    acc
  | L.To_float a | L.To_bool a | L.Neg a | L.Not a | L.Case (_, a) | L.Length a | L.Abs a
  | L.Year a | L.Like (a, _) ->
    expr_tags a acc
  | L.And (a, b) | L.Or (a, b) | L.Arith (_, a, b) | L.Cmp (_, _, a, b) | L.Add_days (a, b) ->
    expr_tags a (expr_tags b acc)
  | L.Like_param { subject; pattern; _ } -> expr_tags subject (expr_tags pattern acc)
  | L.If (c, t, e) -> expr_tags c (expr_tags t (expr_tags e acc))

let exprs_tags es acc = List.fold_left (fun acc e -> expr_tags e acc) acc es
let is_float (e : L.expr) = e.L.ty = L.F

let rec loop_tags (l : L.loop) acc =
  match l with
  | L.Scan _ -> acc
  | L.Filter { input; preds; probe } ->
    let acc = exprs_tags preds acc in
    let acc = match probe with Some { key; _ } -> expr_tags key acc | None -> acc in
    loop_tags input acc
  | L.Join { left; right; lkey; rkey; build } ->
    let acc = exprs_tags (lkey @ rkey @ build.L.cols) acc in
    let acc = if List.exists is_float build.L.cols then "float spill column" :: acc else acc in
    loop_tags left (loop_tags right acc)
  | L.Group { input; key; accs; _ } ->
    let acc = exprs_tags key acc in
    let acc = if List.exists is_float key then "float group key" :: acc else acc in
    let acc =
      Array.fold_left
        (fun acc (a : L.acc) ->
          match a with
          | L.Count -> acc
          | L.Sum e -> expr_tags e (if is_float e then "Sum F" :: acc else acc)
          | L.Avg e -> expr_tags e ("Avg" :: acc)
          | L.Min_max { max; arg; order } ->
            let tag = if max then "Max F" else "Min F" in
            let acc = if order = L.By_float then tag :: acc else acc in
            expr_tags arg acc)
        acc accs
    in
    loop_tags input acc
  | L.Sort { input; spill; keys; limit } ->
    let acc = exprs_tags spill.L.cols acc in
    let acc = if List.exists is_float spill.L.cols then "float spill column" :: acc else acc in
    let acc =
      List.fold_left
        (fun acc (k : L.sort_key) ->
          expr_tags k.L.by (if k.L.order = L.By_float then "float sort key" :: acc else acc))
        acc keys
    in
    let acc = match limit with Some e -> expr_tags e acc | None -> acc in
    loop_tags input acc
  | L.Limit (input, e) | L.Offset (input, e) -> loop_tags input (expr_tags e acc)
  | L.Distinct (input, keys) -> loop_tags input (exprs_tags keys acc)

let ir_tags (ir : L.t) =
  let acc = loop_tags ir.L.root [] in
  match ir.L.out with
  | L.Row _ -> acc
  | L.Scalar e -> expr_tags e acc
  | L.Fields fs -> exprs_tags (List.map snd fs) acc

let required =
  [
    "Float_lit"; "Reg"; "Cell"; "Col"; "To_float"; "Neg"; "Abs"; "If"; "Arith +"; "Arith -";
    "Arith *"; "Arith /"; "Arith %"; "Cmp By_float"; "float group key"; "Sum F"; "Avg"; "Min F";
    "Max F"; "float sort key"; "float spill column";
  ]

(* The IR the closure tier compiles: the parameterized query (constants
   become registers) as every engine sees it through the provider, and
   the optimized query prepared directly (constants stay literals). *)
let lowered front q =
  L.lower cat ~params:(Provider.param_types prov front) (Lq_plan.Lower.lower cat q)

let test_coverage () =
  let seen =
    List.concat_map
      (fun (_, q) ->
        let front = Provider.front_end prov ~params q in
        ir_tags (lowered front front.Provider.parameterized)
        @ ir_tags (lowered front front.Provider.optimized))
      corpus
  in
  List.iter
    (fun tag ->
      if not (List.mem tag seen) then Alcotest.failf "no query of the corpus compiles %s" tag)
    required

(* --- differential ----------------------------------------------------- *)

(* Row equality with NaN equal to itself and a relative tolerance on
   floats (parallel partial sums differ in the last bits). *)
let rec close a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
    (Float.is_nan x && Float.is_nan y)
    || x = y
    || Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
  | Value.Record fa, Value.Record fb ->
    Array.length fa = Array.length fb
    && Array.for_all2 (fun (na, va) (nb, vb) -> String.equal na nb && close va vb) fa fb
  | _ -> Value.equal a b

let check name expected got =
  if not (List.length expected = List.length got && List.for_all2 close expected got) then
    Alcotest.failf "%s: %d rows, reference %d; first difference: %s" name (List.length got)
      (List.length expected)
      (match
         List.find_opt (fun (e, g) -> not (close e g))
           (List.combine
              (List.filteri (fun i _ -> i < List.length got) expected)
              (List.filteri (fun i _ -> i < List.length expected) got))
       with
      | Some (e, g) -> Value.to_string e ^ " vs " ^ Value.to_string g
      | None -> "row counts")

let engines =
  [ Engines.compiled_c; Engines.compiled_c_parallel; Engines.hybrid; Engines.hybrid_buffered;
    Engines.compiled_c_jit ]

(* The oracle's rows, once per query. *)
let references = List.map (fun (name, q) -> (name, lazy (Provider.reference prov ~params q))) corpus
let reference name = Lazy.force (List.assoc name references)

let test_engine (engine : Engine_intf.t) () =
  let served = ref 0 in
  List.iter
    (fun (qname, q) ->
      let expected = reference qname in
      match Provider.run prov ~engine ~params q with
      | rows ->
        incr served;
        check (Printf.sprintf "%s on %s" qname engine.Engine_intf.name) expected rows;
        (* run again: the warm plan reuses its register file *)
        check (Printf.sprintf "%s on %s (warm)" qname engine.Engine_intf.name) expected
          (Provider.run prov ~engine ~params q)
      | exception Engine_intf.Unsupported _ -> ()
      | exception Lq_fault.Fault f ->
        Alcotest.failf "%s on %s: %s" qname engine.Engine_intf.name f.Lq_fault.detail)
    corpus;
  Printf.printf "%s served %d of %d queries\n" engine.Engine_intf.name !served
    (List.length corpus);
  if !served = 0 then Alcotest.failf "%s served no query of the corpus" engine.Engine_intf.name

(* The literal path: compiled-c prepared on the unparameterized query. *)
let test_literals () =
  List.iter
    (fun (qname, q) ->
      let expected = reference qname in
      let front = Provider.front_end prov ~params q in
      let prepared =
        Engines.compiled_c.Engine_intf.prepare cat
          ~param_types:(Provider.param_types prov front)
          (Lq_plan.Lower.lower cat front.Provider.optimized)
      in
      check (qname ^ " with literals") expected (prepared.Engine_intf.execute ~params ()))
    corpus

let () =
  Alcotest.run "floats"
    [
      ("coverage", [ Alcotest.test_case "every float node compiles" `Quick test_coverage ]);
      ( "differential",
        Alcotest.test_case "compiled-c with literals" `Quick test_literals
        :: List.map
             (fun (e : Engine_intf.t) ->
               Alcotest.test_case e.Engine_intf.name `Quick (test_engine e))
             engines );
    ]
