(* Parameter typing, differentially. The provider turns every literal into
   a parameter, so a float literal beside an integer column, a float
   caller parameter, a Bool parameter or two integer parameters under [/]
   all reach the native tiers as registers. Each takes its binding's type:
   every shape below must return the reference interpreter's rows on all
   eleven engines, and through the service with no degraded completion.
   The plan key carries the types, so an [Int] and a [Float] binding of
   one hole compile two plans; and on TPC-H, a parameter typed from its
   binding and one typed by the context rule (no binding at prepare)
   give the same program. *)

open Lq_value
open Lq_expr.Dsl
module Provider = Lq_core.Provider
module Engines = Lq_core.Engines
module Engine_intf = Lq_catalog.Engine_intf
module Service = Lq_service.Service
module Request = Lq_service.Request

(* Interpreted closure tier only: no cc per shape. The C of the
   parameterized TPC-H queries is syntax-checked by the codegen smoke. *)
let () = Unix.putenv "LQ_JIT" "off"
let cat = Lq_tpch.Dbgen.load ~sf:0.001 ()
let prov = Provider.create cat

(* [part] is small (200 rows at this scale) and has an integer column
   ([p_size], 1..50) and a float one ([p_retailprice]). *)
let c name = v "p" $. name
let part pred = source "part" |> where "p" pred

(* An integer column against a float literal and a float column against
   an integer literal, each on both sides of every arithmetic operator
   (the result compared with a float threshold) and every comparison. *)
let arith_ops =
  [
    ("+", ( +: ), [ 30.0; 30.0; 1500.0; 1500.0 ]);
    ("-", ( -: ), [ 20.0; -20.0; 1500.0; -1500.0 ]);
    ("*", ( *: ), [ 60.0; 60.0; 4500.0; 4500.0 ]);
    ("/", ( /: ), [ 10.0; 0.6; 500.0; 0.002 ]);
    ("%", ( %: ), [ 1.0; 1.0; 1.0; 1.0 ]);
  ]

let cmp_ops =
  [ ("=", ( =: )); ("<>", ( <>: )); ("<", ( <: )); ("<=", ( <=: )); (">", ( >: )); (">=", ( >=: )) ]

let operator_shapes =
  List.concat_map
    (fun (name, op, thresholds) ->
      List.map2
        (fun (form, e) thr -> (Printf.sprintf form name, part (e op >: float thr)))
        [
          ("int col %s 2.5", fun op -> op (c "p_size") (float 2.5));
          ("2.5 %s int col", fun op -> op (float 2.5) (c "p_size"));
          ("float col %s 3", fun op -> op (c "p_retailprice") (int 3));
          ("3 %s float col", fun op -> op (int 3) (c "p_retailprice"));
        ]
        thresholds)
    arith_ops
  @ List.concat_map
      (fun (name, op) ->
        [
          (Printf.sprintf "int col %s 2.5" name, part (op (c "p_size") (float 2.5)));
          (Printf.sprintf "2.5 %s int col" name, part (op (float 2.5) (c "p_size")));
          (Printf.sprintf "float col %s 1500" name, part (op (c "p_retailprice") (int 1500)));
          (Printf.sprintf "1500 %s float col" name, part (op (int 1500) (c "p_retailprice")));
        ])
      cmp_ops

(* The shapes that fault or are refused on the native tiers when a
   parameter's type is guessed from its context: (name, query, caller
   bindings). *)
let probes =
  [
    ("col + 0.5 > 3.0", part (c "p_size" +: float 0.5 >: float 3.0), []);
    ("col < 2.5", part (c "p_size" <: float 2.5), []);
    ( "2.5 * col projected",
      source "part"
      |> select "p" (record [ ("k", c "p_partkey"); ("v", float 2.5 *: c "p_size") ]),
      [] );
    ("float caller param vs int col", part (c "p_size" >: p "x"), [ ("x", Value.Float 2.5) ]);
    ("int col vs float caller param", part (p "x" <: c "p_size"), [ ("x", Value.Float 2.5) ]);
    ( "if with float param branches",
      part (if_ (c "p_size" >: int 25) (p "a") (p "c") <: c "p_retailprice"),
      [ ("a", Value.Float 1200.5); ("c", Value.Float 1500.5) ] );
    ("bool param under &&", part (p "flag" &&: (c "p_size" >: int 25)), [ ("flag", Value.Bool true) ]);
    ("false bool param under &&", part (p "flag" &&: (c "p_size" >: int 25)), [ ("flag", Value.Bool false) ]);
    ( "int param / int param",
      part (c "p_size" >=: (p "a" /: p "c")),
      [ ("a", Value.Int 9); ("c", Value.Int 2) ] );
    ( "sub-query with a literal",
      part
        (c "p_retailprice"
        >: avg (subquery (source "part" |> where "x" (v "x" $. "p_size" >: int 25))) "y"
             (v "y" $. "p_retailprice")),
      [] );
  ]

let corpus = List.map (fun (name, q) -> (name, q, [])) operator_shapes @ probes

let sorted rows = List.sort Value.compare rows

let check name expected got =
  if not (Lq_testkit.rows_close (sorted expected) (sorted got)) then
    Alcotest.failf "%s: %d rows, reference %d" name (List.length got) (List.length expected)

(* An engine may decline a shape for what it is, never for a parameter's
   type: by its declared capabilities (the parallel engine takes no
   sub-query), and the [min] hybrids take no projection — their results
   must be source elements (§7.4). compiled-c declines nothing here. *)
let declines (engine : Engine_intf.t) q =
  Result.is_error (Provider.plan_check prov ~engine q)
  || (match q with Lq_expr.Ast.Select _ -> true | _ -> false)
     && List.memq engine [ Engines.hybrid_min; Engines.hybrid_min_buffered ]

let test_engine (engine : Engine_intf.t) () =
  List.iter
    (fun (name, q, params) ->
      let label = Printf.sprintf "%s on %s" name engine.Engine_intf.name in
      if declines engine q then begin
        if engine == Engines.compiled_c then Alcotest.failf "%s: declined" label
      end
      else
        let expected = Provider.reference prov ~params q in
        match Provider.run prov ~engine ~params q with
        | rows ->
          check label expected rows;
          check (label ^ " (warm)") expected (Provider.run prov ~engine ~params q)
        | exception Engine_intf.Unsupported msg -> Alcotest.failf "%s: unsupported: %s" label msg
        | exception Lq_fault.Fault f -> Alcotest.failf "%s: %s" label f.Lq_fault.detail)
    corpus

(* The same corpus as service requests: no engine falls back. *)
let test_service () =
  let svc = Service.create (Provider.create cat) in
  Fun.protect
    ~finally:(fun () -> Service.shutdown svc)
    (fun () ->
      List.iter
        (fun (engine : Engine_intf.t) ->
          List.iter
            (fun (name, q, params) ->
              if not (declines engine q) then
                let label = Printf.sprintf "%s on %s" name engine.Engine_intf.name in
                match Service.run_sync svc ~engine ~params q with
                | Ok { Request.outcome = Request.Completed { rows; degraded; _ }; _ } ->
                  if degraded then Alcotest.failf "%s: degraded" label;
                  check label (Provider.reference prov ~params q) rows
                | Ok r -> Alcotest.failf "%s: %s" label (Request.outcome_kind r.Request.outcome)
                | Error e -> Alcotest.failf "%s: %s" label (Service.rejection_to_string e))
            corpus)
        Engines.all;
      Alcotest.(check int)
        "service/degraded" 0
        (Lq_service.Svc_metrics.degraded (Service.metrics svc)))

(* One hole bound to an [Int], then to a [Float]: two keys, two misses,
   two right answers — a literal [3] then [2.5] likewise. *)
let test_typed_key () =
  let engine = Engines.compiled_c in
  let twice name (q1, params1) (q2, params2) =
    let prov = Provider.create cat in
    let key q params = (Provider.front_end prov ~params q).Provider.shape in
    if String.equal (key q1 params1) (key q2 params2) then
      Alcotest.failf "%s: an Int and a Float binding share a plan key" name;
    List.iter
      (fun (q, params) ->
        check name (Provider.reference prov ~params q) (Provider.run prov ~engine ~params q))
      [ (q1, params1); (q2, params2) ];
    Alcotest.(check int) (name ^ ": plan-cache misses") 2 (Provider.cache_stats prov).Lq_core.Query_cache.misses
  in
  let q = part (c "p_size" >: p "x") in
  twice "named parameter" (q, [ ("x", Value.Int 3) ]) (q, [ ("x", Value.Float 2.5) ]);
  twice "literal" (part (c "p_size" >: int 3), []) (part (c "p_size" >: float 2.5), [])

(* Unreferenced bindings stay out of the key: every TPC-H request passes
   the whole parameter list. *)
let test_key_ignores_unreferenced () =
  let q = part (c "p_size" >: p "x") in
  let key params = (Provider.front_end prov ~params q).Provider.shape in
  Alcotest.(check string)
    "extra binding" (key [ ("x", Value.Int 3) ])
    (key [ ("x", Value.Int 4); ("unused", Value.Float 1.0) ])

(* The program a TPC-H query compiles to is the same whether its
   parameters are typed from the default bindings or, with none given,
   by the context rule. *)
let test_typings_agree () =
  let program param_types (front : Provider.front_end) =
    match
      Lq_native.Loop.lower cat ~params:param_types front.Provider.plan
    with
    | exception Engine_intf.Unsupported msg -> "unsupported: " ^ msg
    | ir -> (
      let regs =
        Array.to_list ir.Lq_native.Loop.int_regs
        |> List.map (function Lq_native.Loop.Named n -> n | Str_const s -> "'" ^ s)
      in
      String.concat "," regs ^ " | " ^ String.concat "," (Array.to_list ir.Lq_native.Loop.float_regs)
      ^ "\n"
      ^
      match Lq_native.Codegen_c.emit_plan ir with
      | prog -> prog.Lq_native.Codegen_c.c_source
      | exception Lq_native.Codegen_c.Unsupported_c reason -> "stub: " ^ reason)
  in
  List.iter
    (fun (name, q) ->
      let bound = Provider.front_end prov ~params:Lq_tpch.Queries.extended_params q in
      let unbound = Provider.front_end prov q in
      Alcotest.(check string)
        (name ^ ": typed from bindings = typed by context")
        (program (Provider.param_types prov bound) bound)
        (program (Provider.param_types prov unbound) unbound))
    (Lq_tpch.Queries.all @ Lq_tpch.Queries.extended)

let () =
  Alcotest.run "params"
    [
      ( "differential",
        List.map
          (fun (e : Engine_intf.t) -> Alcotest.test_case e.Engine_intf.name `Quick (test_engine e))
          Engines.all
        @ [ Alcotest.test_case "through the service" `Quick test_service ] );
      ( "key",
        [
          Alcotest.test_case "int then float binding" `Quick test_typed_key;
          Alcotest.test_case "unreferenced bindings" `Quick test_key_ignores_unreferenced;
        ] );
      ("typings", [ Alcotest.test_case "tpch: bound = context" `Quick test_typings_agree ]);
    ]
