open Lq_value
module Ast = Lq_expr.Ast
module Eval = Lq_expr.Eval
module Scalar = Lq_expr.Scalar
module E = Lq_enum.Enumerable
module Catalog = Lq_catalog.Catalog
module Instr = Lq_catalog.Instr
module Engine_intf = Lq_catalog.Engine_intf

let used_source_slots = Lq_catalog.Access_model.used_source_slots

(* Source enumerable; under instrumentation each pull touches the modelled
   object header and the member slots the query reads, and remembers the
   object so grouped-aggregate re-walks (§2.3) can be replayed. *)
let source_enum ?instr ?collected table ~slots =
  let rows = Catalog.boxed table in
  match instr with
  | None -> E.of_array rows
  | Some instr ->
    let addrs = Catalog.heap_addrs table in
    E.selecti
      (fun i v ->
        Instr.trace_object instr ~base:addrs.(i) ~slots;
        (match collected with
        | Some cell -> cell := (addrs.(i), slots) :: !cell
        | None -> ());
        v)
      (E.of_array rows)

(* Under instrumentation, constructing a result object allocates on the
   modelled heap. *)
let note_allocation instr v =
  match (instr, v) with
  | Some instr, Value.Record fields ->
    ignore (Instr.alloc_and_touch instr ~nfields:(Array.length fields) : int);
    v
  | _ -> v

let rec pipeline ?instr ?collected ~top ctx cat (q : Ast.query) : Value.t E.t =
  let apply1 l v = Eval.apply ctx ~env:[] l [ v ] in
  match q with
  | Ast.Source name ->
    let table = Catalog.table cat name in
    let slots =
      match instr with
      | None -> []
      | Some _ -> used_source_slots (Catalog.schema table) top
    in
    source_enum ?instr ?collected table ~slots
  | Ast.Where (src, pred) ->
    E.where (fun v -> Value.to_bool (apply1 pred v)) (pipeline ?instr ?collected ~top ctx cat src)
  | Ast.Select (src, sel) ->
    E.select (fun v -> note_allocation instr (apply1 sel v)) (pipeline ?instr ?collected ~top ctx cat src)
  | Ast.Join { left; right; left_key; right_key; result } ->
    E.join ~eq:Value.equal ~hash:Value.hash
      ~outer_key:(apply1 left_key)
      ~inner_key:(apply1 right_key)
      ~result:(fun l r ->
        note_allocation instr (Eval.apply ctx ~env:[] result [ l; r ]))
      (pipeline ?instr ?collected ~top ctx cat left)
      (pipeline ?instr ?collected ~top ctx cat right)
  | Ast.Group_by { group_source; key; group_result } -> (
    let groups =
      E.select
        (fun (key, items) -> note_allocation instr (Eval.group_value ~key ~items))
        (E.group_by ~eq:Value.equal ~hash:Value.hash ~key:(apply1 key)
           (pipeline ?instr ?collected ~top ctx cat group_source))
    in
    match group_result with
    | None -> groups
    | Some sel ->
      (* The result selector interprets each aggregate separately; every
         [Agg] node re-walks the group's Items list (the §2.3 behaviour).
         Instrumented runs replay those passes over the modelled heap. *)
      let replay =
        match (instr, collected) with
        | Some instr, Some cell ->
          let passes =
            Lq_catalog.Access_model.group_agg_passes
              (Ast.Group_by
                 { group_source = Ast.Distinct (Ast.Source "__self");
                   key; group_result })
          in
          fun () ->
            let touched = List.rev !cell in
            for _pass = 1 to passes do
              List.iter
                (fun (base, slots) -> Instr.trace_object instr ~base ~slots)
                touched
            done
        | _ -> fun () -> ()
      in
      E.selecti
        (fun i g ->
          if i = 0 then replay ();
          note_allocation instr (apply1 sel g))
        groups)
  | Ast.Order_by (src, keys) ->
    let keyed =
      List.map
        (fun (k : Ast.sort_key) ->
          let sign = match k.Ast.dir with Ast.Asc -> 1 | Ast.Desc -> -1 in
          ((fun v -> apply1 k.Ast.by v), fun a b -> sign * Scalar.cmp a b))
        keys
    in
    E.sort_by_keys ~keys:keyed (pipeline ?instr ?collected ~top ctx cat src)
  | Ast.Take (src, n) ->
    E.take (Value.to_int (Eval.expr ctx ~env:[] n)) (pipeline ?instr ?collected ~top ctx cat src)
  | Ast.Skip (src, n) ->
    E.skip (Value.to_int (Eval.expr ctx ~env:[] n)) (pipeline ?instr ?collected ~top ctx cat src)
  | Ast.Distinct src ->
    E.distinct ~eq:Value.equal ~hash:Value.hash (pipeline ?instr ?collected ~top ctx cat src)

let engine : Engine_intf.t =
  {
    name = "linq-to-objects";
    describe =
      "baseline: enumerator pipeline over boxed objects, interpreted lambdas";
    caps = Engine_intf.caps_any;
    prepare =
      (fun ?instr cat ~param_types:_ plan ->
        (* Nothing is compiled. As the trivial backend of the shared
           lowering, the plan is round-tripped back to an expression tree
           the enumerator pipeline interprets — the plan's conjunct
           ordering survives as a chain of [Where]s. *)
        let t0 = Lq_metrics.Profile.now_ms () in
        let lowered = Lq_plan.Plan.to_ast plan in
        let codegen_ms = Lq_metrics.Profile.now_ms () -. t0 in
        {
          Engine_intf.execute =
            (fun ~params () ->
              let ctx = Catalog.eval_ctx cat ~params in
              let collected = Option.map (fun _ -> ref []) instr in
              E.to_list (pipeline ?instr ?collected ~top:lowered ctx cat lowered));
          codegen_ms;
          source = None;
        });
  }
