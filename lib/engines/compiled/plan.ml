open Lq_value
module Ast = Lq_expr.Ast
module Eval = Lq_expr.Eval
module Scalar = Lq_expr.Scalar
module Catalog = Lq_catalog.Catalog
module Engine_intf = Lq_catalog.Engine_intf
module Ptbl = Lq_enum.Ptbl
module P = Lq_plan.Plan

exception Enough
(** Raised by a [Take] against its own upstream once satisfied; caught by
    the [Take] node itself (deferred execution: stop pulling early). *)

(* One compiled operator: elements are communicated by writing the frame
   slot [slot] and invoking the consumer closure. *)
type node = {
  slot : int;
  ty : Vtype.t option;
  run : Cexpr.rt -> (unit -> unit) -> unit;
  segments : int;  (** loop segments below and including this node *)
}

type t = {
  ctx : Cexpr.ctx;
  cat : Catalog.t;
  root : node;
  eval_ctx_cell : Eval.ctx option ref;  (** set per execution, for sub-queries *)
  epoch : int ref;
  mu : Mutex.t;
      (** [eval_ctx_cell], [epoch] and the group finalizers'
          [current_states] cell are plan-level; one execution at a time *)
}

(* Per-group accumulator machinery. A group's state is one [astate] per
   accumulator; the universal record covers int/float/value/count shapes. *)
type astate = {
  mutable acc_i : int;
  mutable acc_f : float;
  mutable acc_v : Value.t;
  mutable acc_n : int;
}

let new_astate () = { acc_i = 0; acc_f = 0.0; acc_v = Value.Null; acc_n = 0 }

type accum = {
  update : Cexpr.rt -> astate -> unit;  (** element is bound in the frame *)
  finalize : astate -> Value.t;
  result_ty : Vtype.t option;
}

let compile ?instr cat (plan : P.t) : t =
  (* Instrumented runs model the managed heap traffic: source pulls touch
     the object header plus the member slots the query reads; every
     constructed result object is a modelled allocation. *)
  let note_alloc v =
    (match (instr, v) with
    | Some instr, Value.Record fields ->
      ignore
        (Lq_catalog.Instr.alloc_and_touch instr ~nfields:(Array.length fields) : int)
    | _ -> ());
    v
  in
  let ctx = Cexpr.ctx () in
  let eval_ctx_cell = ref None in
  let epoch = ref 0 in
  let eval_ctx () =
    match !eval_ctx_cell with
    | Some c -> c
    | None -> Lq_catalog.Engine_intf.execution_failed "Plan: executed without evaluation context"
  in
  (* Uncorrelated sub-query / whole-aggregate expressions are constant per
     execution: pre-evaluate on first touch, cache per epoch. *)
  let per_execution_value (e : Ast.expr) : Cexpr.compiled =
    let cache = ref (-1, Value.Null) in
    fun _rt ->
      let ep, v = !cache in
      if ep = !epoch then v
      else begin
        let v = Eval.expr (eval_ctx ()) ~env:[] e in
        cache := (!epoch, v);
        v
      end
  in
  let on_subquery q =
    if Ast.is_correlated q then
      Engine_intf.unsupported
        "correlated sub-query (decorrelate first): %s"
        (Lq_expr.Pretty.query_to_string q)
    else ((per_execution_value (Ast.Subquery q) : Cexpr.compiled), None)
  in
  let on_agg_outside kind src sel =
    match src with
    | Ast.Subquery q when not (Ast.is_correlated q) ->
      (per_execution_value (Ast.Agg (kind, src, sel)), None)
    | _ ->
      Engine_intf.unsupported "aggregate over %s outside a group"
        (Lq_expr.Pretty.expr_to_string src)
  in
  let compile_expr ~env e =
    Cexpr.compile ctx ~env ~on_agg:on_agg_outside ~on_subquery e
  in
  let compile_pred ~env e =
    let c, _ = compile_expr ~env e in
    fun rt -> Value.to_bool (c rt)
  in
  let bind1 (l : Ast.lambda) node : Cexpr.binding list =
    match l.Ast.params with
    | [ p ] -> [ { Cexpr.var = p; slot = node.slot; vty = node.ty } ]
    | _ -> Engine_intf.unsupported "lambda arity"
  in
  (* Build an accumulator for one [Agg] over the group's elements; the
     element is bound at [elem_binding] while updates run. *)
  let make_accum ~elem_binding (kind, sel) : accum =
    let compiled_sel =
      match sel with
      | None ->
        let b : Cexpr.binding = elem_binding in
        (((fun rt -> Array.unsafe_get rt.Cexpr.frame b.Cexpr.slot) : Cexpr.compiled), b.Cexpr.vty)
      | Some (l : Ast.lambda) -> (
        match l.Ast.params with
        | [ p ] ->
          compile_expr
            ~env:[ { Cexpr.var = p; slot = elem_binding.Cexpr.slot; vty = elem_binding.Cexpr.vty } ]
            l.Ast.body
        | _ -> Engine_intf.unsupported "aggregate selector arity")
    in
    let csel, sel_ty = compiled_sel in
    match (kind : Ast.agg) with
    | Ast.Count ->
      {
        update = (fun _rt st -> st.acc_n <- st.acc_n + 1);
        finalize = (fun st -> Value.Int st.acc_n);
        result_ty = Some Vtype.Int;
      }
    | Ast.Sum -> (
      match sel_ty with
      | Some Vtype.Int ->
        {
          update = (fun rt st -> st.acc_i <- st.acc_i + Value.to_int (csel rt));
          finalize = (fun st -> Value.Int st.acc_i);
          result_ty = Some Vtype.Int;
        }
      | Some Vtype.Float ->
        {
          update = (fun rt st -> st.acc_f <- st.acc_f +. Value.to_float (csel rt));
          finalize = (fun st -> Value.Float st.acc_f);
          result_ty = Some Vtype.Float;
        }
      | _ ->
        {
          update =
            (fun rt st ->
              let v = csel rt in
              st.acc_n <- st.acc_n + 1;
              st.acc_v <-
                (if st.acc_n = 1 then v else Scalar.binop Ast.Add st.acc_v v));
          finalize = (fun st -> if st.acc_n = 0 then Value.Int 0 else st.acc_v);
          result_ty = None;
        })
    | Ast.Avg ->
      {
        update =
          (fun rt st ->
            st.acc_f <- st.acc_f +. Value.to_float (csel rt);
            st.acc_n <- st.acc_n + 1);
        finalize =
          (fun st ->
            if st.acc_n = 0 then Value.Null
            else Value.Float (st.acc_f /. float_of_int st.acc_n));
        result_ty = Some Vtype.Float;
      }
    | Ast.Min ->
      {
        update =
          (fun rt st ->
            let v = csel rt in
            st.acc_n <- st.acc_n + 1;
            if st.acc_n = 1 || Scalar.cmp v st.acc_v < 0 then st.acc_v <- v);
        finalize = (fun st -> if st.acc_n = 0 then Value.Null else st.acc_v);
        result_ty = sel_ty;
      }
    | Ast.Max ->
      {
        update =
          (fun rt st ->
            let v = csel rt in
            st.acc_n <- st.acc_n + 1;
            if st.acc_n = 1 || Scalar.cmp v st.acc_v > 0 then st.acc_v <- v);
        finalize = (fun st -> if st.acc_n = 0 then Value.Null else st.acc_v);
        result_ty = sel_ty;
      }
  in
  let value_tbl () = Ptbl.create ~eq:Value.equal ~hash:Value.hash 256 in
  let rec compile_plan (p : P.t) : node =
    match p.P.op with
    | P.Scan s ->
      let table = Catalog.table cat s.P.table in
      let rows = Catalog.boxed table in
      let slot = Cexpr.alloc_slot ctx in
      let ty = Some (Schema.to_vtype (Catalog.schema table)) in
      let run =
        match instr with
        | None ->
          fun rt sink ->
            let frame = rt.Cexpr.frame in
            for i = 0 to Array.length rows - 1 do
              Array.unsafe_set frame slot (Array.unsafe_get rows i);
              sink ()
            done
        | Some instr ->
          let addrs = Catalog.heap_addrs table in
          let slots =
            Lq_catalog.Access_model.used_source_slots (Catalog.schema table) (P.to_ast plan)
          in
          fun rt sink ->
            let frame = rt.Cexpr.frame in
            for i = 0 to Array.length rows - 1 do
              Lq_catalog.Instr.trace_object instr ~base:addrs.(i) ~slots;
              Array.unsafe_set frame slot (Array.unsafe_get rows i);
              sink ()
            done
      in
      { slot; ty; segments = 1; run }
    | P.Filter (input, preds) ->
      (* The lowering delivers conjuncts cheapest-first; wrapping in list
         order places the cheapest test innermost, i.e. evaluated first. *)
      List.fold_left
        (fun node (pr : P.pred) ->
          let cpred = compile_pred ~env:(bind1 pr.P.lambda node) pr.P.lambda.Ast.body in
          {
            node with
            run = (fun rt sink -> node.run rt (fun () -> if cpred rt then sink ()));
          })
        (compile_plan input) preds
    | P.Project (input, sel) ->
      let node = compile_plan input in
      let csel, out_ty = compile_expr ~env:(bind1 sel node) sel.Ast.body in
      let out = Cexpr.alloc_slot ctx in
      {
        slot = out;
        ty = out_ty;
        segments = node.segments;
        run =
          (fun rt sink ->
            node.run rt (fun () ->
                rt.Cexpr.frame.(out) <- note_alloc (csel rt);
                sink ()));
      }
    | P.Join { left; right; left_key; right_key; result; strategy } ->
      let lnode = compile_plan left in
      let rnode = compile_plan right in
      let clkey, _ = compile_expr ~env:(bind1 left_key lnode) left_key.Ast.body in
      let crkey, _ = compile_expr ~env:(bind1 right_key rnode) right_key.Ast.body in
      let renv =
        match result.Ast.params with
        | [ pl; pr ] ->
          [
            { Cexpr.var = pl; slot = lnode.slot; vty = lnode.ty };
            { Cexpr.var = pr; slot = rnode.slot; vty = rnode.ty };
          ]
        | _ -> Engine_intf.unsupported "join result selector arity"
      in
      let cresult, out_ty = compile_expr ~env:renv result.Ast.body in
      let out = Cexpr.alloc_slot ctx in
      if strategy = `Hash then
        {
          slot = out;
          ty = out_ty;
          segments = lnode.segments + rnode.segments;
          run =
            (fun rt sink ->
              (* Build side: materialize the right input into a hash table
                 (one loop segment)... *)
              let tbl = value_tbl () in
              (try
                 rnode.run rt (fun () ->
                     let row = rt.Cexpr.frame.(rnode.slot) in
                     let key = crkey rt in
                     match Ptbl.find_opt tbl key with
                     | Some cell -> cell := row :: !cell
                     | None -> Ptbl.add tbl key (ref [ row ]))
               with Enough -> ());
              (* ...probe side: stream the left input through the table. *)
              lnode.run rt (fun () ->
                  match Ptbl.find_opt tbl (clkey rt) with
                  | None -> ()
                  | Some cell ->
                    List.iter
                      (fun row ->
                        rt.Cexpr.frame.(rnode.slot) <- row;
                        rt.Cexpr.frame.(out) <- note_alloc (cresult rt);
                        sink ())
                      (List.rev !cell)));
        }
      else
        {
          slot = out;
          ty = out_ty;
          segments = lnode.segments + rnode.segments;
          run =
            (fun rt sink ->
              (* Nested-loops variant (the Steno-style baseline). *)
              let rows = ref [] in
              (try rnode.run rt (fun () -> rows := rt.Cexpr.frame.(rnode.slot) :: !rows)
               with Enough -> ());
              let rows = List.rev !rows in
              lnode.run rt (fun () ->
                  let lkey = clkey rt in
                  List.iter
                    (fun row ->
                      rt.Cexpr.frame.(rnode.slot) <- row;
                      if Value.equal lkey (crkey rt) then begin
                        rt.Cexpr.frame.(out) <- cresult rt;
                        sink ()
                      end)
                    rows));
        }
    | P.Aggregate a -> compile_aggregate a
    | P.Sort (input, keys) -> compile_order_by input keys
    | P.Top_k { input; keys; limit } -> compile_topk input keys limit
    | P.Limit (input, n) ->
      let node = compile_plan input in
      let cn, _ = compile_expr ~env:[] n in
      {
        node with
        run =
          (fun rt sink ->
            let limit = Value.to_int (cn rt) in
            if limit > 0 then begin
              let emitted = ref 0 in
              try
                node.run rt (fun () ->
                    sink ();
                    incr emitted;
                    if !emitted >= limit then raise Enough)
              with Enough -> ()
            end);
      }
    | P.Offset (input, n) ->
      let node = compile_plan input in
      let cn, _ = compile_expr ~env:[] n in
      {
        node with
        run =
          (fun rt sink ->
            let limit = Value.to_int (cn rt) in
            let seen = ref 0 in
            node.run rt (fun () ->
                incr seen;
                if !seen > limit then sink ()));
      }
    | P.Distinct input ->
      let node = compile_plan input in
      {
        node with
        run =
          (fun rt sink ->
            let seen = value_tbl () in
            node.run rt (fun () ->
                let v = rt.Cexpr.frame.(node.slot) in
                if not (Ptbl.mem seen v) then begin
                  Ptbl.add seen v ();
                  sink ()
                end));
      }
  and compile_aggregate (a : P.aggregate) : node =
    let node = compile_plan a.P.input in
    let key = a.P.key in
    let ckey, key_ty = compile_expr ~env:(bind1 key node) key.Ast.body in
    let group_ty items_ty =
      match (key_ty, items_ty) with
      | Some kt, Some it ->
        Some
          (Vtype.Record
             [ (Ast.group_key_field, kt); (Ast.group_items_field, Vtype.List it) ])
      | _ -> None
    in
    match a.P.group_result with
    | None ->
      (* Emit the group values themselves; items must be kept. *)
      let out = Cexpr.alloc_slot ctx in
      {
        slot = out;
        ty = group_ty node.ty;
        segments = node.segments + 1;
        run =
          (fun rt sink ->
            let tbl = value_tbl () in
            let order = ref [] in
            (try
               node.run rt (fun () ->
                   let v = rt.Cexpr.frame.(node.slot) in
                   let k = ckey rt in
                   match Ptbl.find_opt tbl k with
                   | Some items -> items := v :: !items
                   | None ->
                     let items = ref [ v ] in
                     Ptbl.add tbl k items;
                     order := (k, items) :: !order)
             with Enough -> ());
            List.iter
              (fun (k, items) ->
                rt.Cexpr.frame.(out) <-
                  Eval.group_value ~key:k ~items:(List.rev !items);
                sink ())
              (List.rev !order));
      }
    | Some result ->
      let gparam =
        match result.Ast.params with
        | [ p ] -> p
        | _ -> Engine_intf.unsupported "group result selector arity"
      in
      (* The fused-aggregation contract: [Agg] nodes whose source is the
         group variable finalize accumulators from the plan's registry
         (built, deduplicated and slot-mapped by the shared lowering); the
         rest of the body reads the group record bound at [g_slot]. *)
      let g_slot = Cexpr.alloc_slot ctx in
      let elem_binding = { Cexpr.var = "__elem"; slot = node.slot; vty = node.ty } in
      let reg = P.Registry.of_aggregate a in
      let accum_arr =
        Array.init (P.Registry.length reg) (fun i ->
            let s = P.Registry.spec reg i in
            make_accum ~elem_binding (s.P.agg, s.P.sel))
      in
      let current_states = ref [||] in
      let keep_items = a.P.keep_items in
      let on_agg kind src sel =
        match src with
        | Ast.Var v when String.equal v gparam ->
          if a.P.fused then begin
            let idx = P.Registry.next reg kind sel in
            let acc = accum_arr.(idx) in
            ((fun _rt -> acc.finalize !current_states.(idx)), acc.result_ty)
          end
          else begin
            (* Unfused: re-walk the group's item list per aggregate, like
               LINQ-to-objects does (the lowering kept the items). *)
            let csel =
              match sel with
              | None -> None
              | Some (l : Ast.lambda) -> (
                match l.Ast.params with
                | [ p ] ->
                  let slot = Cexpr.alloc_slot ctx in
                  let c, _ =
                    compile_expr
                      ~env:[ { Cexpr.var = p; slot; vty = node.ty } ]
                      l.Ast.body
                  in
                  Some (slot, c)
                | _ -> Engine_intf.unsupported "aggregate selector arity")
            in
            ( (fun rt ->
                let g = rt.Cexpr.frame.(g_slot) in
                let items = Value.to_elements g in
                let selected =
                  match csel with
                  | None -> items
                  | Some (slot, c) ->
                    List.map
                      (fun item ->
                        rt.Cexpr.frame.(slot) <- item;
                        c rt)
                      items
                in
                Eval.aggregate kind selected),
              None )
          end
        | Ast.Subquery _ -> on_agg_outside kind src sel
        | _ ->
          Engine_intf.unsupported "aggregate over %s inside a group"
            (Lq_expr.Pretty.expr_to_string src)
      in
      (* The group record type: Items type only populated when kept. *)
      let g_ty = group_ty node.ty in
      let cbody, out_ty =
        Cexpr.compile ctx
          ~env:[ { Cexpr.var = gparam; slot = g_slot; vty = g_ty } ]
          ~on_agg ~on_subquery
          result.Ast.body
      in
      let naccs = Array.length accum_arr in
      let out = Cexpr.alloc_slot ctx in
      {
        slot = out;
        ty = out_ty;
        segments = node.segments + 1;
        run =
          (fun rt sink ->
            let tbl = value_tbl () in
            let order = ref [] in
            (try
               node.run rt (fun () ->
                   let v = rt.Cexpr.frame.(node.slot) in
                   let k = ckey rt in
                   let state =
                     match Ptbl.find_opt tbl k with
                     | Some st -> st
                     | None ->
                       let st =
                         ( Array.init naccs (fun _ -> new_astate ()),
                           ref [] )
                       in
                       Ptbl.add tbl k st;
                       order := (k, st) :: !order;
                       st
                   in
                   let states, items = state in
                   (* The element stays bound at node.slot while the
                      accumulators read their selectors. *)
                   Array.iteri (fun i st -> accum_arr.(i).update rt st) states;
                   if keep_items then items := v :: !items)
             with Enough -> ());
            List.iter
              (fun (k, (states, items)) ->
                current_states := states;
                rt.Cexpr.frame.(g_slot) <-
                  Eval.group_value ~key:k
                    ~items:(if keep_items then List.rev !items else []);
                rt.Cexpr.frame.(out) <- note_alloc (cbody rt);
                sink ())
              (List.rev !order));
      }
  and compile_order_by (input : P.t) keys : node =
    let node = compile_plan input in
    let ckeys =
      List.map
        (fun (k : Ast.sort_key) ->
          let c, _ = compile_expr ~env:(bind1 k.Ast.by node) k.Ast.by.Ast.body in
          let sign = match k.Ast.dir with Ast.Asc -> 1 | Ast.Desc -> -1 in
          (c, sign))
        keys
    in
    {
      node with
      segments = node.segments + 1;
      run =
        (fun rt sink ->
          (* Materialize elements and pre-extract the key columns, then
             sort an index array — the layout of §7.2. *)
          let elems = ref [] in
          (try node.run rt (fun () -> elems := rt.Cexpr.frame.(node.slot) :: !elems)
           with Enough -> ());
          let arr = Array.of_list (List.rev !elems) in
          let n = Array.length arr in
          let key_cols =
            List.map
              (fun (c, sign) ->
                let col =
                  Array.map
                    (fun v ->
                      rt.Cexpr.frame.(node.slot) <- v;
                      c rt)
                    arr
                in
                (col, sign))
              ckeys
          in
          let idx = Array.init n Fun.id in
          let cmp i j =
            let rec go = function
              | [] -> Int.compare i j
              | (col, sign) :: rest ->
                let c = sign * Scalar.cmp col.(i) col.(j) in
                if c <> 0 then c else go rest
            in
            go key_cols
          in
          Lq_exec.Quicksort.indices_by ~cmp idx;
          Array.iter
            (fun i ->
              rt.Cexpr.frame.(node.slot) <- arr.(i);
              sink ())
            idx);
    }
  and compile_topk (input : P.t) keys n : node =
    let node = compile_plan input in
    let ckeys =
      List.map
        (fun (k : Ast.sort_key) ->
          let c, _ = compile_expr ~env:(bind1 k.Ast.by node) k.Ast.by.Ast.body in
          let sign = match k.Ast.dir with Ast.Asc -> 1 | Ast.Desc -> -1 in
          (c, sign))
        keys
    in
    let cn, _ = compile_expr ~env:[] n in
    {
      node with
      segments = node.segments + 1;
      run =
        (fun rt sink ->
          let limit = Value.to_int (cn rt) in
          (* Keyed heap entries (keys, seq, element); seq breaks ties so the
             fused operator matches a stable sort + take exactly. *)
          let cmp (ka, sa, _) (kb, sb, _) =
            let rec go ks1 ks2 signs =
              match (ks1, ks2, signs) with
              | [], [], [] -> Int.compare sa sb
              | a :: r1, b :: r2, (_, sign) :: rs ->
                let c = sign * Scalar.cmp a b in
                if c <> 0 then c else go r1 r2 rs
              | _ -> assert false
            in
            go ka kb ckeys
          in
          let heap = Lq_exec.Topk.create ~cmp ~k:limit in
          let seq = ref 0 in
          (try
             node.run rt (fun () ->
                 let ks = List.map (fun (c, _) -> c rt) ckeys in
                 Lq_exec.Topk.push heap (ks, !seq, rt.Cexpr.frame.(node.slot));
                 incr seq)
           with Enough -> ());
          List.iter
            (fun (_, _, v) ->
              rt.Cexpr.frame.(node.slot) <- v;
              sink ())
            (Lq_exec.Topk.to_sorted_list heap));
    }
  in
  let root = compile_plan plan in
  { ctx; cat; root; eval_ctx_cell; epoch; mu = Mutex.create () }

(* The cache shares one plan with every Domain; executions of the same
   plan serialize on its lock (distinct plans still run in parallel). *)
let execute t ~params =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      let rt = Cexpr.make_rt t.ctx ~params in
      incr t.epoch;
      t.eval_ctx_cell := Some (Catalog.eval_ctx t.cat ~params);
      let acc = ref [] in
      t.root.run rt (fun () -> acc := rt.Cexpr.frame.(t.root.slot) :: !acc);
      List.rev !acc)

let loop_segments t = t.root.segments
