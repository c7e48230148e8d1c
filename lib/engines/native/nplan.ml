open Lq_value
module Ast = Lq_expr.Ast
module Eval = Lq_expr.Eval
module Typecheck = Lq_expr.Typecheck
module Layout = Lq_storage.Layout
module Rowstore = Lq_storage.Rowstore
module Catalog = Lq_catalog.Catalog
module Engine_intf = Lq_catalog.Engine_intf
module P = Lq_plan.Plan

let unsupported = Engine_intf.unsupported

exception Enough

type nnode = {
  elem : Nexpr.elem;
  run : (unit -> unit) -> unit;
  segments : int;
}

type t = {
  nctx : Nexpr.ctx;
  cat : Catalog.t;
  root : nnode;
  emit : unit -> Value.t;  (** boxes the current root element *)
  fillers : (Eval.ctx -> unit) list;  (** per-execution sub-query cells *)
  segments : int;
  mu : Mutex.t;
      (** the plan's cursors, parameter cells and accumulators are baked
          into the closures, so one execution at a time *)
}

type external_source = {
  ext_store : Rowstore.t;
  ext_drive : (int -> unit) -> unit;
}

(* Growable unboxed accumulator arrays. *)
let grow_i arr n =
  if n >= Array.length !arr then begin
    let a = Array.make (max 64 (2 * (n + 1))) 0 in
    Array.blit !arr 0 a 0 (Array.length !arr);
    arr := a
  end

let grow_f arr n =
  if n >= Array.length !arr then begin
    let a = Array.make (max 64 (2 * (n + 1))) 0.0 in
    Array.blit !arr 0 a 0 (Array.length !arr);
    arr := a
  end

(* Materialize the current element into a fresh flat intermediate store:
   the single materialization point per loop segment (§4.2/§5.2). *)
let spill nctx elem =
  let fields = Nexpr.elem_fields nctx elem in
  let layout = Layout.make (List.map (fun (n, t) -> (n, Nexpr.vty t)) fields) in
  let store = Rowstore.create ~layout ~dict:(Nexpr.dict nctx) () in
  let width = Layout.row_width layout in
  (* Monomorphic writers with offsets resolved once; [alloc_row] has grown
     the buffer before any write runs. *)
  let writers =
    List.mapi
      (fun col (_, t) ->
        let f = Layout.field_at layout col in
        let off = f.Layout.offset in
        match ((t : Nexpr.t), f.Layout.ftype) with
        | Nexpr.F g, _ ->
          fun row -> Lq_storage.Fbuf.set_f64 (Rowstore.data store) ((row * width) + off) (g ())
        | t, Lq_storage.Ftype.I64 ->
          let g = Nexpr.as_int t in
          fun row -> Lq_storage.Fbuf.set_i64 (Rowstore.data store) ((row * width) + off) (g ())
        | t, (Lq_storage.Ftype.I32 | Lq_storage.Ftype.Date32 | Lq_storage.Ftype.Str32) ->
          let g = Nexpr.as_int t in
          fun row -> Lq_storage.Fbuf.set_i32 (Rowstore.data store) ((row * width) + off) (g ())
        | t, Lq_storage.Ftype.Bool8 ->
          let g = Nexpr.as_int t in
          fun row ->
            Lq_storage.Fbuf.set_bool (Rowstore.data store) ((row * width) + off) (g () <> 0)
        | _, Lq_storage.Ftype.F64 -> assert false)
      fields
  in
  let writers = Array.of_list writers in
  let nwriters = Array.length writers in
  let write_current () =
    let row = Rowstore.alloc_row store in
    for w = 0 to nwriters - 1 do
      (Array.unsafe_get writers w) row
    done;
    row
  in
  let cursor = { Nexpr.store; cell = ref 0 } in
  let cols = List.mapi (fun col (name, _) -> (name, col)) fields in
  (store, write_current, cursor, Nexpr.Row (cursor, cols))

(* Group-key reference rewriting: [g.Key] becomes the synthetic variable
   [__gkey] so composite keys support [g.Key.f] chains. *)
let gkey_var = "__gkey"

let rec rewrite_gkey gvar (e : Ast.expr) : Ast.expr =
  match e with
  | Ast.Member (Ast.Var v, k)
    when String.equal v gvar && String.equal k Ast.group_key_field ->
    Ast.Var gkey_var
  | Ast.Const _ | Ast.Param _ | Ast.Var _ -> e
  | Ast.Member (r, f) -> Ast.Member (rewrite_gkey gvar r, f)
  | Ast.Unop (op, e) -> Ast.Unop (op, rewrite_gkey gvar e)
  | Ast.Binop (op, a, b) -> Ast.Binop (op, rewrite_gkey gvar a, rewrite_gkey gvar b)
  | Ast.If (c, t, e) ->
    Ast.If (rewrite_gkey gvar c, rewrite_gkey gvar t, rewrite_gkey gvar e)
  | Ast.Call (f, args) -> Ast.Call (f, List.map (rewrite_gkey gvar) args)
  | Ast.Agg (k, src, sel) ->
    (* Aggregate sources stay (the hook matches on [Var g]); selector
       bodies cannot see [g]. *)
    Ast.Agg (k, src, sel)
  | Ast.Subquery _ -> e
  | Ast.Record_of fields ->
    Ast.Record_of (List.map (fun (n, e) -> (n, rewrite_gkey gvar e)) fields)

let compile_lowered ?trace ?(override = fun _ -> None) cat
    (lowered : Lq_plan.Plan.t) : t =
  let nctx = Nexpr.ctx ?trace ~dict:(Catalog.dict cat) () in
  let fillers = ref [] in
  let tenv = Catalog.tenv cat ~params:[] in
  (* Typed per-execution constant: uncorrelated sub-query results. *)
  let scalar_cell (e : Ast.expr) : Nexpr.t =
    let ty =
      try Typecheck.expr_type tenv ~env:[] e
      with Typecheck.Type_error msg ->
        unsupported "cannot type nested sub-query in native backend: %s" msg
    in
    match ty with
    | Vtype.Float ->
      let cell = ref 0.0 in
      fillers :=
        (fun ctx -> cell := Value.to_float (Eval.expr ctx ~env:[] e)) :: !fillers;
      Nexpr.F (fun () -> !cell)
    | Vtype.Int | Vtype.Date | Vtype.Bool | Vtype.String ->
      let cell = ref 0 in
      let dict = Nexpr.dict nctx in
      fillers :=
        (fun ctx ->
          cell :=
            (match Eval.expr ctx ~env:[] e with
            | Value.Int i -> i
            | Value.Date d -> d
            | Value.Bool b -> if b then 1 else 0
            | Value.Str s -> Lq_storage.Dict.intern dict s
            | v ->
              Lq_catalog.Engine_intf.execution_failed "sub-query produced %s"
                (Value.to_string v)))
        :: !fillers;
      Nexpr.I ((fun () -> !cell), ty)
    | Vtype.Record _ | Vtype.List _ ->
      unsupported "non-scalar sub-query result in native backend"
  in
  let on_subquery q =
    if Ast.is_correlated q then
      unsupported
        "correlated sub-query left by the decorrelation pass (native backend)"
    else scalar_cell (Ast.Subquery q)
  in
  let on_agg_outside kind src sel =
    match src with
    | Ast.Subquery q when not (Ast.is_correlated q) ->
      scalar_cell (Ast.Agg (kind, src, sel))
    | _ -> unsupported "aggregate outside a group (native)"
  in
  let compile_expr ~env e =
    Nexpr.compile nctx ~env ~on_agg:on_agg_outside ~on_subquery e
  in
  let bind1 (l : Ast.lambda) elem =
    match l.Ast.params with
    | [ p ] -> [ (p, elem) ]
    | _ -> unsupported "lambda arity (native)"
  in
  (* A key selector yields one or more typed parts (composite keys come
     from anonymous-type constructions). *)
  let compile_key_parts ~env (body : Ast.expr) : (string * Nexpr.t) list =
    match body with
    | Ast.Record_of fields ->
      List.map (fun (n, e) -> (n, compile_expr ~env e)) fields
    | e -> [ (Nexpr.scalar_field, compile_expr ~env e) ]
  in
  let row_node store run_of_cursor =
    let cursor = { Nexpr.store; cell = ref 0 } in
    let cols =
      Array.to_list (Layout.fields (Rowstore.layout store))
      |> List.mapi (fun col (f : Layout.field) -> (f.Layout.name, col))
    in
    { elem = Nexpr.Row (cursor, cols); segments = 1; run = run_of_cursor cursor }
  in
  (* A selector body compiles to an element: a pending projection for an
     anonymous type, the bound element itself for a bare variable (identity
     selectors arise in join results that keep one side), or a scalar. *)
  let elem_of_body ~env (body : Ast.expr) : Nexpr.elem =
    match body with
    | Ast.Record_of fields ->
      Nexpr.Fields (List.map (fun (n, e) -> (n, compile_expr ~env e)) fields)
    | Ast.Var name when List.mem_assoc name env -> List.assoc name env
    | e -> Nexpr.Scalar (compile_expr ~env e)
  in
  (* Index-scan rewriting (§9 "indexes"): a filter conjunct
     [src.col = closed-expr] directly over a source on an indexed column
     probes the hash index instead of scanning; the remaining conjuncts
     stay as filters. Only applies to catalog sources (not externally
     staged ones) and preserves row order (index payloads are ascending
     row numbers). *)
  let index_probe name (preds : P.pred list) =
    if override name <> None then None
    else
      match Catalog.table cat name with
      | exception _ -> None
      | table ->
        let closed e = Ast.free_vars e = [] in
        let indexed_eq (pr : P.pred) =
          match (pr.P.lambda.Ast.params, pr.P.lambda.Ast.body) with
          | [ pvar ], Ast.Binop (Ast.Eq, Ast.Member (Ast.Var v, col), key)
            when String.equal v pvar && closed key && Catalog.index table col <> None
            ->
            Some (col, key)
          | [ pvar ], Ast.Binop (Ast.Eq, key, Ast.Member (Ast.Var v, col))
            when String.equal v pvar && closed key && Catalog.index table col <> None
            ->
            Some (col, key)
          | _ -> None
        in
        let rec split seen = function
          | [] -> None
          | pr :: rest -> (
            match indexed_eq pr with
            | Some (col, key) -> Some (table, col, key, List.rev_append seen rest)
            | None -> split (pr :: seen) rest)
        in
        split [] preds
  in
  let rec compile_plan (p : P.t) : nnode =
    match p.P.op with
    | P.Filter ({ P.op = P.Scan s; _ }, preds)
      when index_probe s.P.table preds <> None ->
      let table, col, key, residual = Option.get (index_probe s.P.table preds) in
      let store = Catalog.store table in
      let idx = Option.get (Catalog.index table col) in
      (* Integer image of the probe key; string/date parameters land in
         integer registers already encoded (dict code / day count). *)
      let key_image = Nexpr.key_part (compile_expr ~env:[] key) in
      ignore col;
      let node =
        row_node store (fun cursor sink ->
            let cell = cursor.Nexpr.cell in
            Lq_exec.Int_table.Multi.iter_matches idx (key_image ()) (fun row ->
                cell := row;
                sink ()))
      in
      apply_filters node residual
    | P.Scan s -> (
      match override s.P.table with
      | Some { ext_store; ext_drive } ->
        row_node ext_store (fun cursor sink ->
            let cell = cursor.Nexpr.cell in
            ext_drive (fun row ->
                cell := row;
                sink ()))
      | None ->
        let store = Catalog.store (Catalog.table cat s.P.table) in
        row_node store (fun cursor sink ->
            let cell = cursor.Nexpr.cell in
            for i = 0 to Rowstore.length store - 1 do
              cell := i;
              sink ()
            done))
    | P.Filter (input, preds) -> apply_filters (compile_plan input) preds
    | P.Project (input, sel) ->
      let node = compile_plan input in
      let env = bind1 sel node.elem in
      let elem = elem_of_body ~env sel.Ast.body in
      { node with elem }
    | P.Join { left; right; left_key; right_key; result; strategy = _ } ->
      (* The native backend always hash-joins; the plan's nested-loop hint
         (an ablation option for the managed backend) is ignored. *)
      let lnode = compile_plan left in
      let rnode = compile_plan right in
      (* Build side: spill the right input, key it in a flat hash table. *)
      let rkey_parts =
        compile_key_parts ~env:(bind1 right_key rnode.elem) right_key.Ast.body
      in
      let rkey_closures =
        Array.of_list
          (List.concat_map (fun (_, t) -> Nexpr.key_parts t) rkey_parts)
      in
      let nparts = Array.length rkey_closures in
      let rstore, rwrite, rcursor, relem = spill nctx rnode.elem in
      let tbl = Ht.create ?trace ~nparts ~hint:1024 () in
      let lkey_parts =
        compile_key_parts ~env:(bind1 left_key lnode.elem) left_key.Ast.body
      in
      let lkey_closures =
        Array.of_list
          (List.concat_map (fun (_, t) -> Nexpr.key_parts t) lkey_parts)
      in
      if Array.length lkey_closures <> nparts then
        unsupported "join key arity mismatch (native)";
      let renv =
        match result.Ast.params with
        | [ pl; pr ] -> [ (pl, lnode.elem); (pr, relem) ]
        | _ -> unsupported "join result arity (native)"
      in
      let elem = elem_of_body ~env:renv result.Ast.body in
      let scratch = Array.make nparts 0 in
      {
        elem;
        segments = lnode.segments + rnode.segments;
        run =
          (fun sink ->
            Ht.clear tbl;
            Rowstore.clear rstore;
            (try
               rnode.run (fun () ->
                   for p = 0 to nparts - 1 do
                     scratch.(p) <- rkey_closures.(p) ()
                   done;
                   let slot = Ht.lookup_or_insert tbl scratch in
                   Ht.attach tbl ~slot (rwrite ()))
             with Enough -> ());
            let rcell = rcursor.Nexpr.cell in
            lnode.run (fun () ->
                for p = 0 to nparts - 1 do
                  scratch.(p) <- lkey_closures.(p) ()
                done;
                match Ht.find tbl scratch with
                | None -> ()
                | Some slot ->
                  Ht.iter_attached tbl ~slot (fun row ->
                      rcell := row;
                      sink ())));
      }
    | P.Aggregate a -> compile_group a
    | P.Sort (input, keys) -> compile_sort input keys None
    | P.Top_k { input; keys; limit } ->
      let limit = Nexpr.as_int (compile_expr ~env:[] limit) in
      compile_sort input keys (Some limit)
    | P.Limit (input, n) ->
      let node = compile_plan input in
      let limit = Nexpr.as_int (compile_expr ~env:[] n) in
      {
        node with
        run =
          (fun sink ->
            let lim = limit () in
            if lim > 0 then begin
              let emitted = ref 0 in
              try
                node.run (fun () ->
                    sink ();
                    incr emitted;
                    if !emitted >= lim then raise Enough)
              with Enough -> ()
            end);
      }
    | P.Offset (input, n) ->
      let node = compile_plan input in
      let limit = Nexpr.as_int (compile_expr ~env:[] n) in
      {
        node with
        run =
          (fun sink ->
            let lim = limit () in
            let seen = ref 0 in
            node.run (fun () ->
                incr seen;
                if !seen > lim then sink ()));
      }
    | P.Distinct input ->
      let node = compile_plan input in
      let fields = Nexpr.elem_fields nctx node.elem in
      let closures =
        Array.of_list (List.concat_map (fun (_, t) -> Nexpr.key_parts t) fields)
      in
      let nparts = Array.length closures in
      let scratch = Array.make nparts 0 in
      {
        node with
        run =
          (fun sink ->
            let tbl = Ht.create ?trace ~nparts ~hint:256 () in
            node.run (fun () ->
                for p = 0 to nparts - 1 do
                  scratch.(p) <- closures.(p) ()
                done;
                let before = Ht.count tbl in
                let (_ : int) = Ht.lookup_or_insert tbl scratch in
                if Ht.count tbl > before then sink ()));
      }
  and apply_filters node (preds : P.pred list) : nnode =
    (* Conjuncts arrive cheapest-first; wrapping in list order runs the
       cheapest test first. *)
    List.fold_left
      (fun node (pr : P.pred) ->
        let cpred =
          Nexpr.as_bool (compile_expr ~env:(bind1 pr.P.lambda node.elem) pr.P.lambda.Ast.body)
        in
        { node with run = (fun sink -> node.run (fun () -> if cpred () then sink ())) })
      node preds
  and compile_group (a : P.aggregate) : nnode =
    let node = compile_plan a.P.input in
    let key = a.P.key in
    let result =
      match a.P.group_result with
      | Some r -> r
      | None ->
        unsupported
          "GroupBy without result selector: group objects are not flat (native)"
    in
    let gvar =
      match result.Ast.params with
      | [ p ] -> p
      | _ -> unsupported "group result arity (native)"
    in
    let key_fields = compile_key_parts ~env:(bind1 key node.elem) key.Ast.body in
    (* Each field occupies one or two flattened hash-key parts (floats need
       two, §Nexpr.key_parts); remember the offsets for the output phase. *)
    let _, key_specs =
      List.fold_left_map
        (fun off (name, t) ->
          let width = List.length (Nexpr.key_parts t) in
          (off + width, (name, t, off)))
        0 key_fields
    in
    let key_closures =
      Array.of_list (List.concat_map (fun (_, t) -> Nexpr.key_parts t) key_fields)
    in
    let nparts = Array.length key_closures in
    let tbl = Ht.create ?trace ~nparts ~hint:256 () in
    let cur_slot = ref 0 in
    (* Shared per-slot element count (Count/Avg read it; Min/Max use it to
       detect first-touch) — computed once, the §2.3 "overlap" fix. *)
    let counts = ref (Array.make 64 0) in
    (* Key readers for the output phase, typed like the key expressions. *)
    let key_reader part (t : Nexpr.t) : Nexpr.t =
      match t with
      | Nexpr.F _ ->
        Nexpr.F
          (fun () ->
            Nexpr.float_of_key_parts
              ~hi:(Ht.key_part tbl ~slot:!cur_slot ~part)
              ~lo:(Ht.key_part tbl ~slot:!cur_slot ~part:(part + 1)))
      | Nexpr.B _ -> Nexpr.B (fun () -> Ht.key_part tbl ~slot:!cur_slot ~part <> 0)
      | Nexpr.I (_, ty) ->
        Nexpr.I ((fun () -> Ht.key_part tbl ~slot:!cur_slot ~part), ty)
    in
    let gkey_elem =
      match key.Ast.body with
      | Ast.Record_of _ ->
        Nexpr.Fields
          (List.map (fun (n, t, off) -> (n, key_reader off t)) key_specs)
      | _ ->
        let _, t, off = List.hd key_specs in
        Nexpr.Scalar (key_reader off t)
    in
    (* Fused accumulators: the plan's registry fixes the deduplicated
       accumulator set and the per-occurrence slots. *)
    let dict = Nexpr.dict nctx in
    let make_acc kind (sel : Ast.lambda option) : (slot:int -> fresh:bool -> unit) * Nexpr.t =
      let selected () =
        match sel with
        | None -> (
          match Nexpr.elem_fields nctx node.elem with
          | [ (_, t) ] -> t
          | _ -> unsupported "aggregate without selector over a row (native)")
        | Some (l : Ast.lambda) -> (
          match l.Ast.params with
          | [ p ] -> compile_expr ~env:[ (p, node.elem) ] l.Ast.body
          | _ -> unsupported "aggregate selector arity (native)")
      in
      match (kind : Ast.agg) with
      | Ast.Count ->
        ( (fun ~slot:_ ~fresh:_ -> ()),
          Nexpr.I ((fun () -> !counts.(!cur_slot)), Vtype.Int) )
      | Ast.Sum -> (
        match selected () with
        | Nexpr.F f ->
          let sums = ref (Array.make 64 0.0) in
          ( (fun ~slot ~fresh ->
              grow_f sums slot;
              if fresh then !sums.(slot) <- f () else !sums.(slot) <- !sums.(slot) +. f ()),
            Nexpr.F (fun () -> !sums.(!cur_slot)) )
        | Nexpr.I (f, Vtype.Int) ->
          let sums = ref (Array.make 64 0) in
          ( (fun ~slot ~fresh ->
              grow_i sums slot;
              if fresh then !sums.(slot) <- f () else !sums.(slot) <- !sums.(slot) + f ()),
            Nexpr.I ((fun () -> !sums.(!cur_slot)), Vtype.Int) )
        | _ -> unsupported "Sum over non-numeric (native)")
      | Ast.Avg ->
        let f = Nexpr.as_float (selected ()) in
        let sums = ref (Array.make 64 0.0) in
        ( (fun ~slot ~fresh ->
            grow_f sums slot;
            if fresh then !sums.(slot) <- f () else !sums.(slot) <- !sums.(slot) +. f ()),
          Nexpr.F (fun () -> !sums.(!cur_slot) /. float_of_int !counts.(!cur_slot)) )
      | Ast.Min | Ast.Max -> (
        let keep_left cmp = match kind with Ast.Min -> cmp < 0 | _ -> cmp > 0 in
        match selected () with
        | Nexpr.F f ->
          let best = ref (Array.make 64 0.0) in
          ( (fun ~slot ~fresh ->
              grow_f best slot;
              let v = f () in
              if fresh || keep_left (Float.compare v !best.(slot)) then !best.(slot) <- v),
            Nexpr.F (fun () -> !best.(!cur_slot)) )
        | Nexpr.I (f, Vtype.String) ->
          let best = ref (Array.make 64 0) in
          ( (fun ~slot ~fresh ->
              grow_i best slot;
              let v = f () in
              if
                fresh
                || keep_left
                     (String.compare (Lq_storage.Dict.get dict v)
                        (Lq_storage.Dict.get dict !best.(slot)))
              then !best.(slot) <- v),
            Nexpr.I ((fun () -> !best.(!cur_slot)), Vtype.String) )
        | Nexpr.I (f, ty) ->
          let best = ref (Array.make 64 0) in
          ( (fun ~slot ~fresh ->
              grow_i best slot;
              let v = f () in
              if fresh || keep_left (Int.compare v !best.(slot)) then !best.(slot) <- v),
            Nexpr.I ((fun () -> !best.(!cur_slot)), ty) )
        | Nexpr.B _ -> unsupported "Min/Max over bool (native)")
    in
    if not a.P.fused then
      unsupported "unfused aggregation (the native backend always fuses)";
    let reg = P.Registry.of_aggregate a in
    let accs =
      Array.init (P.Registry.length reg) (fun i ->
          let s = P.Registry.spec reg i in
          make_acc s.P.agg s.P.sel)
    in
    let on_agg kind src sel =
      match src with
      | Ast.Var v when String.equal v gvar ->
        snd accs.(P.Registry.next reg kind sel)
      | Ast.Subquery _ -> on_agg_outside kind src sel
      | _ -> unsupported "aggregate source (native)"
    in
    let body = rewrite_gkey gvar result.Ast.body in
    let env = [ (gkey_var, gkey_elem) ] in
    let compile_result e =
      Nexpr.compile nctx ~env ~on_agg ~on_subquery e
    in
    let elem =
      match body with
      | Ast.Record_of fields ->
        Nexpr.Fields (List.map (fun (n, e) -> (n, compile_result e)) fields)
      | e -> Nexpr.Scalar (compile_result e)
    in
    let scratch = Array.make nparts 0 in
    let update_arr = Array.map fst accs in
    {
      elem;
      segments = node.segments + 1;
      run =
        (fun sink ->
          Ht.clear tbl;
          Array.fill !counts 0 (Array.length !counts) 0;
          (try
             node.run (fun () ->
                 for p = 0 to nparts - 1 do
                   scratch.(p) <- key_closures.(p) ()
                 done;
                 let before = Ht.count tbl in
                 let slot = Ht.lookup_or_insert tbl scratch in
                 let fresh = Ht.count tbl > before in
                 grow_i counts slot;
                 for a = 0 to Array.length update_arr - 1 do
                   update_arr.(a) ~slot ~fresh
                 done;
                 !counts.(slot) <- !counts.(slot) + 1)
           with Enough -> ());
          for slot = 0 to Ht.count tbl - 1 do
            cur_slot := slot;
            sink ()
          done);
    }
  and compile_sort (input : P.t) keys limit : nnode =
    let node = compile_plan input in
    let store, write, cursor, elem = spill nctx node.elem in
    (* Per-key extraction columns, typed; strings decode once at spill. *)
    let extractors =
      List.map
        (fun (k : Ast.sort_key) ->
          let t = compile_expr ~env:(bind1 k.Ast.by node.elem) k.Ast.by.Ast.body in
          let sign = match k.Ast.dir with Ast.Asc -> 1 | Ast.Desc -> -1 in
          match t with
          | Nexpr.F f ->
            let col = ref (Array.make 1024 0.0) in
            ( (fun row ->
                grow_f col row;
                !col.(row) <- f ()),
              fun i j -> sign * Float.compare !col.(i) !col.(j) )
          | Nexpr.I (f, Vtype.String) ->
            let col = ref (Array.make 1024 0) in
            let dict = Nexpr.dict nctx in
            ( (fun row ->
                grow_i col row;
                !col.(row) <- f ()),
              fun i j ->
                sign
                * String.compare
                    (Lq_storage.Dict.get dict !col.(i))
                    (Lq_storage.Dict.get dict !col.(j)) )
          | t ->
            let f = Nexpr.key_part t in
            let col = ref (Array.make 1024 0) in
            ( (fun row ->
                grow_i col row;
                !col.(row) <- f ()),
              fun i j -> sign * Int.compare !col.(i) !col.(j) ))
        keys
    in
    let comparators = Array.of_list (List.map snd extractors) in
    let nkeys = Array.length comparators in
    let cmp i j =
      let rec go k =
        if k = nkeys then Int.compare i j
        else
          let r = comparators.(k) i j in
          if r <> 0 then r else go (k + 1)
      in
      go 0
    in
    {
      elem;
      segments = node.segments + 1;
      run =
        (fun sink ->
          Rowstore.clear store;
          let count = ref 0 in
          (try
             node.run (fun () ->
                 let row = write () in
                 List.iter (fun (extract, _) -> extract row) extractors;
                 incr count)
           with Enough -> ());
          let n = !count in
          let cell = cursor.Nexpr.cell in
          let emit idx =
            Array.iter
              (fun i ->
                cell := i;
                sink ())
              idx
          in
          match limit with
          | None ->
            let idx = Array.init n Fun.id in
            Lq_exec.Quicksort.indices_by ~cmp idx;
            emit idx
          | Some limit ->
            let k = limit () in
            let heap = Lq_exec.Topk.create ~cmp:(fun i j -> cmp i j) ~k in
            for i = 0 to n - 1 do
              Lq_exec.Topk.push heap i
            done;
            emit (Array.of_list (Lq_exec.Topk.to_sorted_list heap)));
    }
  in
  let root = compile_plan lowered in
  let emit = Nexpr.elem_to_value nctx root.elem in
  {
    nctx;
    cat;
    root;
    emit;
    fillers = !fillers;
    segments = root.segments;
    mu = Mutex.create ();
  }

let compile ?(options = Lq_plan.Options.default) ?trace ?override cat
    (query : Ast.query) : t =
  compile_lowered ?trace ?override cat (Lq_plan.Lower.lower ~options cat query)

(* A compiled plan is a bundle of closures over shared cursors, parameter
   cells and accumulator arrays — one execution at a time. The cache hands
   the same plan to every Domain, so executions of the *same* plan
   serialize here; distinct plans still run in parallel. *)
let execute t ~params () =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      Nexpr.bind_params t.nctx params;
      let ectx = Catalog.eval_ctx t.cat ~params in
      List.iter (fun fill -> fill ectx) t.fillers;
      let acc = ref [] in
      t.root.run (fun () -> acc := t.emit () :: !acc);
      List.rev !acc)

let segments t = t.segments
