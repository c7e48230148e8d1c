open Lq_value
let check name expected got =
  if not (List.length expected = List.length got && List.for_all2 Value.equal expected got) then begin
    Printf.printf "MISMATCH %s\nexpected:\n" name;
    List.iter (fun v -> print_endline ("  " ^ Value.to_string v)) expected;
    print_endline "got:";
    List.iter (fun v -> print_endline ("  " ^ Value.to_string v)) got;
    exit 1
  end

let () =
  let schema = Schema.make [ ("name", Vtype.String); ("pop", Vtype.Int); ("price", Vtype.Float) ] in
  let mk n p f = Schema.row schema [ Value.Str n; Value.Int p; Value.Float f ] in
  let rows = [ mk "London" 9 1.5; mk "Paris" 2 2.5; mk "London" 1 0.5; mk "Rome" 4 9.0; mk "Paris" 7 3.5 ] in
  let s2 = Schema.make [ ("cname", Vtype.String); ("country", Vtype.String) ] in
  let rows2 = [ Schema.row s2 [ Value.Str "London"; Value.Str "UK" ]; Schema.row s2 [ Value.Str "Paris"; Value.Str "FR" ] ] in
  let cat = Lq_catalog.Catalog.create () in
  Lq_catalog.Catalog.add cat ~name:"cities" ~schema rows;
  Lq_catalog.Catalog.add cat ~name:"countries" ~schema:s2 rows2;
  let open Lq_expr.Dsl in
  let queries = [
    "where-select", (source "cities" |> where "s" (v "s" $. "name" =: p "n") |> select "s" (v "s" $. "pop")), ["n", Value.Str "London"];
    "groupagg", (source "cities" |> group_by ~key:("s", v "s" $. "name")
      ~result:("g", record [ ("k", v "g" $. "Key"); ("total", sum (v "g") "x" (v "x" $. "pop"));
                             ("cnt", count (v "g")); ("avgp", avg (v "g") "x" (v "x" $. "price"));
                             ("mx", max_of (v "g") "x" (v "x" $. "pop")) ])), [];
    "join", (join ~on:(("c", v "c" $. "name"), ("k", v "k" $. "cname"))
               ~result:("c", "k", record [ ("city", v "c" $. "name"); ("cc", v "k" $. "country"); ("pop", v "c" $. "pop") ])
               (source "cities") (source "countries")), [];
    "orderby-take", (source "cities" |> order_by [ ("s", v "s" $. "pop", desc) ] |> take 3), [];
    "orderby2", (source "cities" |> order_by [ ("s", v "s" $. "name", asc); ("s", v "s" $. "pop", desc) ]), [];
    "distinct", (source "cities" |> select "s" (v "s" $. "name") |> distinct), [];
    "skip", (source "cities" |> skip 2), [];
    "subquery", (source "cities" |> where "s" ((v "s" $. "pop") >=: max_of (subquery (source "cities")) "x" (v "x" $. "pop"))), [];
    "groups-plain", (source "cities" |> group_by ~key:("s", v "s" $. "name")), [];
  ] in
  (* every smoke parameter is bound, so its binding's type is its type *)
  let param_types params =
    List.filter_map (fun (n, v) -> Option.map (fun ty -> (n, ty)) (Value.type_of v)) params
  in
  List.iter (fun (name, q, params) ->
    let param_types = param_types params in
    let plan = Lq_plan.Lower.lower cat q in
    let expected = Lq_expr.Eval.query (Lq_catalog.Catalog.eval_ctx cat ~params) ~env:[] q in
    let lo = (Lq_linqobj.Linq_objects.engine.prepare cat ~param_types plan).execute ~params () in
    check (name ^ "/linqobj") expected lo;
    let cs = ((Lq_compiled.Csharp_engine.engine).prepare cat ~param_types plan).execute ~params () in
    check (name ^ "/csharp") expected cs;
    let naive = (Lq_compiled.Csharp_engine.engine_with Lq_plan.Options.naive).prepare cat ~param_types plan in
    check (name ^ "/csharp-naive") expected (naive.execute ~params ());
    (try
       let prepared = (Lq_native.Native_engine.engine).prepare cat ~param_types plan in
       let nv = prepared.execute ~params () in
       check (name ^ "/native") expected nv;
       check (name ^ "/native-rerun") expected (prepared.execute ~params ())
     with Lq_catalog.Engine_intf.Unsupported msg ->
       Printf.printf "native skipped %s: %s\n" name msg);
    List.iter (fun (vname, eng) ->
      try
        let prepared = (eng : Lq_catalog.Engine_intf.t).prepare cat ~param_types plan in
        let hv = prepared.execute ~params () in
        check (name ^ "/" ^ vname) expected hv;
        check (name ^ "/" ^ vname ^ "-rerun") expected (prepared.execute ~params ())
      with Lq_catalog.Engine_intf.Unsupported msg ->
        Printf.printf "%s skipped %s: %s\n" vname name msg)
      [ "volcano", Lq_volcano.Volcano_engine.engine;
        "vector", Lq_vector.Vector_engine.engine;
        "hyb-full-max", Lq_hybrid.Hybrid_engine.engine;
        "hyb-buf-max", Lq_hybrid.Hybrid_engine.engine_buffered;
        "hyb-full-min", Lq_hybrid.Hybrid_engine.make ~construction:Lq_hybrid.Hybrid_engine.Min ();
        "hyb-buf-min", Lq_hybrid.Hybrid_engine.make ~buffered:true ~construction:Lq_hybrid.Hybrid_engine.Min () ])
    queries;
  print_endline "smoke OK"
