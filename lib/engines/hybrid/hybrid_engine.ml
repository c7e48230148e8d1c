open Lq_value
module Ast = Lq_expr.Ast
module Catalog = Lq_catalog.Catalog
module Engine_intf = Lq_catalog.Engine_intf
module Cexpr = Lq_compiled.Cexpr
module Loop = Lq_native.Loop
module Nplan = Lq_native.Nplan
module Split = Lq_plan.Staging
module Layout = Lq_storage.Layout
module Mapping = Lq_storage.Mapping
module Rowstore = Lq_storage.Rowstore
module Profile = Lq_metrics.Profile
module Trace = Lq_trace.Trace

let unsupported = Engine_intf.unsupported

type construction = Min | Max

let index_field = Mapping.index_field
let page_bytes = 64 * 1024
let last_staged_bytes = ref 0
let staged_bytes () = !last_staged_bytes

(* One staged input: the managed→native bridge for one source occurrence. *)
type staged = {
  spec : Split.staged_spec;
  table : Catalog.table;
  store : Rowstore.t;
  page_rows : int;  (** capacity per flush in buffered mode *)
  preds : (Cexpr.rt -> bool) list;
  elem_slot : int;  (** frame slot the source element is bound to *)
  mapping : Mapping.t;  (** the staged layout (§6.2) *)
  write : bytes -> int -> index:int -> Value.t -> unit;  (** its compiled row writer *)
  driver_cell : ((int -> unit) -> unit) ref;  (** set per execution *)
}

(* The managed filters of one element, in order (no closure per element). *)
let rec all_pass rt = function [] -> true | p :: rest -> p rt && all_pass rt rest

let native_phase_label (q : Ast.query) =
  (* Label by the dominant offloaded operation: aggregation beats joins
     beats sorting (a Q1-style plan with a final sort is still
     "aggregation"). *)
  let best = ref 0 in
  let rec scan (q : Ast.query) =
    (match q with
    | Ast.Group_by _ -> best := max !best 3
    | Ast.Join _ -> best := max !best 2
    | Ast.Order_by _ -> best := max !best 1
    | _ -> ());
    ignore (Ast.map_query_children (fun child -> scan child; child) q)
  in
  scan q;
  match !best with
  | 3 -> "Aggregation (C)"
  | 2 -> "Build hash tables, probe (C)"
  | 1 -> "Quicksort (C)"
  | _ -> "Process (C)"

let make ?(buffered = false) ?(construction = Max) () : Engine_intf.t =
  let name =
    Printf.sprintf "hybrid-csharp-c[%s%s]"
      (match construction with Min -> "min" | Max -> "max")
      (if buffered then ",buffer" else "")
  in
  let prepare ?instr cat ~param_types (plan : Lq_plan.Plan.t) =
    let trace = Option.map (fun (i : Lq_catalog.Instr.t) -> i.Lq_catalog.Instr.trace) instr in
    let start_ms = Profile.now_ms () in
    (* Stage boundaries come from the shared lowering: every known scan of
       the plan is a staged input; the conjuncts sitting on it (already
       cost-ordered) run managed-side. *)
    let stripped, specs = Split.strip_plan plan in
    if specs = [] then unsupported "hybrid backend needs at least one source";
    let cctx = Cexpr.ctx () in
    (* Managed-side sub-queries/whole aggregates: uncorrelated ones are
       constant per execution, evaluated once through the interpreter. *)
    let eval_epoch = ref 0 in
    let eval_ctx_cell = ref None in
    let per_execution_value (e : Ast.expr) : Cexpr.compiled =
      let cache = ref (-1, Value.Null) in
      fun _rt ->
        let ep, v = !cache in
        if ep = !eval_epoch then v
        else begin
          let ctx =
            match !eval_ctx_cell with
            | Some c -> c
            | None -> Engine_intf.execution_failed "hybrid: no evaluation context"
          in
          let v = Lq_expr.Eval.expr ctx ~env:[] e in
          cache := (!eval_epoch, v);
          v
        end
    in
    let on_subquery q =
      if Ast.is_correlated q then
        unsupported "correlated sub-query in a managed filter (decorrelate first)"
      else (per_execution_value (Ast.Subquery q), None)
    in
    let on_agg kind src sel =
      match src with
      | Ast.Subquery q when not (Ast.is_correlated q) ->
        (per_execution_value (Ast.Agg (kind, src, sel)), None)
      | _ -> unsupported "aggregate in a managed filter"
    in
    (* --- Decide construction strategy and per-source staged fields --- *)
    let min_mode =
      match (construction, Lq_plan.Plan.min_construction plan) with
      | Max, _ -> `Max
      | Min, Some Lq_plan.Plan.Sort_min -> `Sort_min
      | Min, Some Lq_plan.Plan.Join_min -> `Join_min
      | Min, None -> unsupported "%s" Lq_plan.Plan.min_refusal
    in
    let idx_field_of occ = "__idx@" ^ occ in
    (* Generalized Min rewriting over a join tree: every join result is
       replaced by {fields needed by ancestor keys} ∪ {index columns of
       every source below}, so the native side moves only keys and
       indexes. [Plan.min_construction] has checked that no key or carried
       field uses a whole element. *)
    let min_join_rewritten =
      match min_mode with
      | `Join_min ->
        let first_components paths =
          List.filter_map (function x :: _ -> Some x | [] -> None) paths
        in
        let rec go (q : Ast.query) (needed : string list) :
            Ast.query * (string * string) list =
          match q with
          | Ast.Source occ -> (q, [ (occ, index_field) ])
          | Ast.Join
              ({ result = { Ast.params = [ lv; rv ]; body = Ast.Record_of fields }; _ } as j)
            ->
            let kept = List.filter (fun (n, _) -> List.mem n needed) fields in
            let kept_exprs = List.map snd kept in
            let side_names var key =
              first_components (Lq_expr.Paths.of_lambda key)
              @ first_components
                  (List.concat_map (fun e -> Lq_expr.Paths.of_expr ~var e) kept_exprs)
            in
            let l', l_sides = go j.left (side_names lv j.left_key) in
            let r', r_sides = go j.right (side_names rv j.right_key) in
            let pass var sides =
              List.map
                (fun (occ, fld) -> (idx_field_of occ, Ast.Member (Ast.Var var, fld)))
                sides
            in
            let result' =
              Ast.lam [ lv; rv ]
                (Ast.Record_of (kept @ pass lv l_sides @ pass rv r_sides))
            in
            ( Ast.Join { j with left = l'; right = r'; result = result' },
              List.map (fun (occ, _) -> (occ, idx_field_of occ)) (l_sides @ r_sides) )
          | _ -> Engine_intf.codegen_failed "Min join: not a join tree"
        in
        Some (go stripped [])
      | `Sort_min | `Max -> None
    in
    (* Managed result reconstruction for the Min join tree: the original
       result selectors composed over the boxed source elements. *)
    let rec inline_members (e : Ast.expr) : Ast.expr =
      match e with
      | Ast.Member (r, f) -> (
        match inline_members r with
        | Ast.Record_of fields as r' -> (
          match List.assoc_opt f fields with
          | Some fe -> fe
          | None -> Ast.Member (r', f))
        | r' -> Ast.Member (r', f))
      | Ast.Const _ | Ast.Param _ | Ast.Var _ -> e
      | Ast.Unop (op, e) -> Ast.Unop (op, inline_members e)
      | Ast.Binop (op, a, b) -> Ast.Binop (op, inline_members a, inline_members b)
      | Ast.If (a, b, c) -> Ast.If (inline_members a, inline_members b, inline_members c)
      | Ast.Call (f, args) -> Ast.Call (f, List.map inline_members args)
      | Ast.Agg (k, src, sel) -> Ast.Agg (k, inline_members src, sel)
      | Ast.Subquery _ -> e
      | Ast.Record_of fields ->
        Ast.Record_of (List.map (fun (n, e) -> (n, inline_members e)) fields)
    in
    let src_var occ = "__src@" ^ occ in
    let rec elem_expr (q : Ast.query) : Ast.expr =
      match q with
      | Ast.Source occ -> Ast.Var (src_var occ)
      | Ast.Join ({ result = { Ast.params = [ lv; rv ]; body }; _ } as j) ->
        inline_members (Ast.subst [ (lv, elem_expr j.left); (rv, elem_expr j.right) ] body)
      | _ -> Engine_intf.codegen_failed "Min join: not a join tree"
    in
    (* Per-spec staged paths (implicit projection). *)
    let staged_paths_of spec =
      let occ = spec.Split.occ in
      match min_mode with
      | `Sort_min ->
        (* Keys only; results are looked up through the index column. *)
        List.filter (fun p -> p <> []) (Split.used_paths stripped ~occ)
      | `Join_min ->
        let tree, _ = Option.get min_join_rewritten in
        List.filter
          (fun p -> p <> [] && p <> [ index_field ])
          (Split.used_paths tree ~occ)
      | `Max ->
        let paths = Split.used_paths stripped ~occ in
        let source_ty = Schema.to_vtype (Catalog.schema (Catalog.table cat spec.Split.source)) in
        if List.mem [] paths then begin
          (* Whole elements reach the result: stage every leaf. Nested
             elements cannot be reconstructed from flat copies. *)
          if
            List.exists
              (fun p -> List.length p > 1)
              (Split.all_leaf_paths source_ty)
          then
            unsupported
              "whole nested objects in the result: use the Min variant";
          Split.all_leaf_paths source_ty
        end
        else paths
    in
    let with_index = match min_mode with `Max -> false | _ -> true in
    let make_staged spec =
      let table = Catalog.table cat spec.Split.source in
      let source_ty = Schema.to_vtype (Catalog.schema table) in
      let mapping =
        try Mapping.build ~source:source_ty ~paths:(staged_paths_of spec) ~with_index
        with Invalid_argument msg -> unsupported "staged layout: %s" msg
      in
      let layout = Mapping.layout mapping in
      let store = Rowstore.create ~layout ~dict:(Catalog.dict cat) () in
      let elem_slot = Cexpr.alloc_slot cctx in
      let preds =
        List.map
          (fun (l : Ast.lambda) ->
            match l.Ast.params with
            | [ p ] ->
              let c, _ =
                Cexpr.compile cctx
                  ~env:[ { Cexpr.var = p; slot = elem_slot; vty = Some source_ty } ]
                  ~on_agg ~on_subquery l.Ast.body
              in
              fun rt -> Value.to_bool (c rt)
            | _ -> unsupported "filter arity")
          spec.Split.preds
      in
      {
        spec;
        table;
        store;
        page_rows = max 1 (page_bytes / max 1 (Layout.row_width layout));
        preds;
        elem_slot;
        mapping;
        write = Mapping.writer mapping ~dict:(Catalog.dict cat);
        driver_cell = ref (fun _ -> ());
      }
    in
    let staged = List.map make_staged specs in
    let staged_occ occ =
      match List.find_opt (fun st -> String.equal st.spec.Split.occ occ) staged with
      | Some st -> st
      | None -> unsupported "unknown staged occurrence %S" occ
    in
    (* --- Rewrite the offloaded query over the staged stores --- *)
    let offloaded =
      match min_mode with
      | `Join_min -> fst (Option.get min_join_rewritten)
      | `Sort_min | `Max -> stripped
    in
    let rewritten =
      List.fold_left
        (fun q st -> Split.rewrite_paths q ~occ:st.spec.Split.occ ~rename:Mapping.name_of_path)
        offloaded staged
    in
    let rewritten, finish =
      match min_mode with
      | `Max -> (rewritten, `Native)
      | `Sort_min ->
        ( Ast.Select (rewritten, Ast.lam [ "__x" ] (Ast.Member (Ast.Var "__x", index_field))),
          `Lookup_one (List.hd staged) )
      | `Join_min ->
        let _, sides = Option.get min_join_rewritten in
        (* Managed constructor: original selectors over the boxed source
           elements, one frame slot per source occurrence. *)
        let bindings =
          List.map
            (fun (occ, idx_fld) ->
              let st = staged_occ occ in
              let slot = Cexpr.alloc_slot cctx in
              let vty = Schema.to_vtype (Catalog.schema st.table) in
              ((occ, st, slot, idx_fld), { Cexpr.var = src_var occ; slot; vty = Some vty }))
            sides
        in
        let cresult, _ =
          Cexpr.compile cctx ~env:(List.map snd bindings) ~on_agg ~on_subquery
            (elem_expr stripped)
        in
        (rewritten, `Lookup_tree (List.map fst bindings, cresult))
    in
    (* One loop IR serves the interpreted program and the C listing. *)
    let ir, nplan =
      try
        let staged_store occ =
          List.find_opt (fun st -> String.equal st.spec.Split.occ occ) staged
          |> Option.map (fun st -> st.store)
        in
        let ir = Loop.lower ~staged:staged_store cat ~params:param_types
            (Lq_plan.Lower.lower cat rewritten) in
        let drive occ =
          let st = staged_occ occ in
          fun emit -> !(st.driver_cell) emit
        in
        (ir, Nplan.compile ?trace ~drive ir)
      with Catalog.Not_flat t -> unsupported "source %S is not flat" t
    in
    let codegen_ms = Profile.now_ms () -. start_ms in
    (* --- Execution --- *)
    let execute ~params () =
      let rt = Cexpr.make_rt cctx ~params in
      incr eval_epoch;
      eval_ctx_cell := Some (Catalog.eval_ctx cat ~params);
      (* Managed-side phase time of this execution's traced drives; the
         native-op span is the offloaded run minus this, so the whole
         Figs. 8/10/12 split derives from one set of clock samples. *)
      let managed_ms = ref 0.0 in
      (* Install staging drivers for this execution. *)
      List.iter
        (fun st ->
          let rows = Catalog.boxed st.table in
          let addrs =
            match instr with
            | Some _ -> Some (Catalog.heap_addrs st.table)
            | None -> None
          in
          let nfields_hint = List.length (Mapping.entries st.mapping) in
          let staged_row_width = Layout.row_width (Rowstore.layout st.store) in
          let stage_row i v =
            (* Every staged row draws on the per-request budget: the
               governor turns an over-wide staging pass into a typed
               [Resource_exhausted] instead of unbounded buffer growth. *)
            Lq_fault.Governor.charge_rows ~stage:"staging" 1;
            Lq_fault.Governor.charge_bytes ~stage:"staging" staged_row_width;
            let row = Rowstore.alloc_row st.store in
            (try st.write (Rowstore.data st.store) (row * staged_row_width) ~index:i v
             with Invalid_argument msg -> unsupported "%s" msg);
            (match (instr, addrs) with
            | Some instr, Some addrs ->
              (* Model: read the object's header + staged fields, write the
                 flat row (reads of the target line). *)
              Lq_catalog.Instr.trace_object instr ~base:addrs.(i)
                ~slots:(List.init nfields_hint Fun.id);
              for col = 0 to nfields_hint - 1 do
                instr.Lq_catalog.Instr.trace (Rowstore.addr st.store ~row ~col)
              done
            | _ -> ())
          in
          let passes rt v =
            rt.Cexpr.frame.(st.elem_slot) <- v;
            all_pass rt st.preds
          in
          let drive emit =
            Lq_fault.Inject.hit "hybrid/staging";
            Rowstore.clear st.store;
            let n = Array.length rows in
            if not (Trace.tracing ()) then begin
              if buffered then begin
                for i = 0 to n - 1 do
                  let v = rows.(i) in
                  if passes rt v then begin
                    if Rowstore.length st.store >= st.page_rows then begin
                      for r = 0 to Rowstore.length st.store - 1 do
                        emit r
                      done;
                      Rowstore.clear st.store
                    end;
                    stage_row i v
                  end
                done;
                for r = 0 to Rowstore.length st.store - 1 do
                  emit r
                done
              end
              else begin
                for i = 0 to n - 1 do
                  let v = rows.(i) in
                  if passes rt v then stage_row i v
                done;
                for r = 0 to Rowstore.length st.store - 1 do
                  emit r
                done
              end
            end
            else begin
              (* Traced variant: per-element phase timers, summed over
                 the drive and recorded as one span per phase, laid end
                 to end from the drive's start. *)
              let d0 = Profile.now_ms () in
              let iterate_ms = ref 0.0 in
              let predicates_ms = ref 0.0 in
              let staging_ms = ref 0.0 in
              let flush () =
                for r = 0 to Rowstore.length st.store - 1 do
                  emit r
                done;
                Rowstore.clear st.store
              in
              for i = 0 to n - 1 do
                let t0 = Profile.now_ms () in
                let v = rows.(i) in
                let t1 = Profile.now_ms () in
                let ok = passes rt v in
                let t2 = Profile.now_ms () in
                if ok then begin
                  if buffered && Rowstore.length st.store >= st.page_rows then
                    flush ();
                  stage_row i v
                end;
                let t3 = Profile.now_ms () in
                iterate_ms := !iterate_ms +. (t1 -. t0);
                predicates_ms := !predicates_ms +. (t2 -. t1);
                staging_ms := !staging_ms +. (t3 -. t2)
              done;
              let record name start_ms dur_ms =
                Trace.add_span
                  ~attrs:[ ("source", st.spec.Split.source) ]
                  Trace.Staging name ~start_ms ~dur_ms
              in
              record "Iterate data (C#)" d0 !iterate_ms;
              record "Apply predicates (C#)" (d0 +. !iterate_ms) !predicates_ms;
              record "Data staging (C#)" (d0 +. !iterate_ms +. !predicates_ms) !staging_ms;
              managed_ms := !managed_ms +. !iterate_ms +. !predicates_ms +. !staging_ms;
              for r = 0 to Rowstore.length st.store - 1 do
                emit r
              done;
              if buffered then Rowstore.clear st.store
            end
          in
          st.driver_cell := drive)
        staged;
      let t_start = Profile.now_ms () in
      let native_out = Nplan.execute nplan ~params () in
      let t_native = Profile.now_ms () in
      Lq_fault.Inject.hit "hybrid/result";
      let result =
        match finish with
        | `Native -> native_out
        | `Lookup_one st ->
          let rows = Catalog.boxed st.table in
          List.map (fun v -> rows.(Value.to_int v)) native_out
        | `Lookup_tree (bindings, cresult) ->
          let resolved =
            List.map
              (fun (_, st, slot, idx_fld) -> (Catalog.boxed st.table, slot, idx_fld))
              bindings
          in
          List.map
            (fun v ->
              List.iter
                (fun (rows, slot, idx_fld) ->
                  rt.Cexpr.frame.(slot) <-
                    rows.(Value.to_int (Value.field v idx_fld)))
                resolved;
              cresult rt)
            native_out
      in
      let t_end = Profile.now_ms () in
      last_staged_bytes :=
        List.fold_left
          (fun acc st ->
            acc
            + (if buffered then st.page_rows else Rowstore.length st.store)
              * Layout.row_width (Rowstore.layout st.store))
          0 staged;
      if Trace.tracing () then begin
        (* The drives recorded the managed phases; the native operator
           is the rest of the offloaded run, placed to end where result
           construction starts. *)
        let native_ms = Float.max 0.0 (t_native -. t_start -. !managed_ms) in
        Trace.add_span Trace.Native_op (native_phase_label rewritten)
          ~start_ms:(t_native -. native_ms) ~dur_ms:native_ms;
        Trace.add_span Trace.Return_result "Return result (C/C#)" ~start_ms:t_native
          ~dur_ms:(t_end -. t_native)
      end;
      result
    in
    (* The staging stores, driver cells and eval-ctx cell are shared by
       every execution of this prepared plan; serialize whole executions
       so cached plans can be shared across Domains. *)
    let mu = Mutex.create () in
    let execute ~params () =
      Mutex.lock mu;
      Fun.protect ~finally:(fun () -> Mutex.unlock mu) (fun () -> execute ~params ())
    in
    {
      Engine_intf.execute;
      codegen_ms;
      source =
        Some
          (String.concat "\n"
             [
               "/* hybrid backend: managed staging + generated C */";
               String.concat "\n"
                 (List.map
                    (fun st ->
                      Printf.sprintf
                        "/* staged input %s: %d filters applied in C#, %d fields \
                         copied (implicit projection)%s */\n%s"
                        st.spec.Split.occ
                        (List.length st.preds)
                        (List.length (Mapping.entries st.mapping))
                        (if with_index then " + index column" else "")
                        (Layout.c_struct
                           ~name:(st.spec.Split.source ^ "_staged_t")
                           (Rowstore.layout st.store)))
                    staged);
               Lq_native.Codegen_c.emit_lowered ir;
             ]);
    }
  in
  {
    Engine_intf.name;
    describe = "combined C#/C: managed filtering + staging, native heavy lifting";
    (* The offloaded remainder runs on the native backend, which sets the
       capability floor for query *structure* — but staging flattens
       sources (nested member paths become copied leaf columns), so flat
       inputs are not required. *)
    caps =
      {
        Engine_intf.caps_any with
        supports_correlated = false;
        supports_group_no_selector = false;
        needs_min_construction = construction = Min;
      };
    prepare;
  }

let engine = make ()
let engine_buffered = make ~buffered:true ()
