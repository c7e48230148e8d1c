open Lq_value
module Ast = Lq_expr.Ast
module Eval = Lq_expr.Eval
module Scalar = Lq_expr.Scalar
module Catalog = Lq_catalog.Catalog
module Engine_intf = Lq_catalog.Engine_intf
module Nplan = Lq_native.Nplan
module Rowstore = Lq_storage.Rowstore
module P = Lq_plan.Plan

let unsupported = Engine_intf.unsupported

(* ------------------------------------------------------------------ *)
(* Plan analysis: split into (pipeline over one source [+ grouping],
   sequential remainder). *)

type partition_point =
  | Pipeline of P.t  (** Filter/Project chain over one Scan *)
  | Grouped of P.aggregate  (** aggregation whose input is such a chain *)

(* The remainder is the plan with the partition point replaced by a scan
   of this pseudo-source; it runs sequentially over the merged rows. *)
let merged_source = "__merged"

(* The table a Filter/Project chain over one known scan reads. *)
let rec pipeline_source (p : P.t) =
  match p.P.op with
  | P.Scan s when s.P.known -> Some s.P.table
  | P.Filter (i, _) | P.Project (i, _) -> pipeline_source i
  | _ -> None

let is_pipeline p = Option.is_some (pipeline_source p)

(* Finds the first partition point in pre-order and returns it with the
   remainder, printed as the expression tree the sequential evaluator
   interprets over the merged rows. *)
let split (plan : P.t) : partition_point * Ast.query =
  let found = ref None in
  let merged =
    P.Scan
      { P.table = merged_source; occ = merged_source; known = false; flat = true; fields = None; storage = P.Row }
  in
  let rec go (p : P.t) : P.t =
    let point =
      match p.P.op with
      | _ when !found <> None -> None
      | P.Aggregate ({ P.group_result = Some _; _ } as a) when is_pipeline a.P.input ->
        Some (Grouped a)
      | _ when is_pipeline p -> Some (Pipeline p)
      | _ -> None
    in
    match point with
    | Some _ ->
      found := point;
      { p with P.op = merged }
    | None -> P.map_children go p
  in
  let remainder = go plan in
  match !found with
  | Some point -> (point, P.to_ast remainder)
  | None -> unsupported "no parallelizable pipeline found"

(* ------------------------------------------------------------------ *)
(* Aggregate decomposition for parallel grouping. *)

type partial =
  | P_sum of Ast.lambda option
  | P_count
  | P_min of Ast.lambda option
  | P_max of Ast.lambda option

let partial_name i = Printf.sprintf "__a%d" i

(* Maps the plan's deduplicated accumulator registry to mergeable
   partials ([Avg] splits into a sum and a count) and produces (a) the
   partial selector fields and (b) a rewriting of the result body where
   each [Agg] occurrence reads the merged accumulators through its
   registry slot. *)
let decompose (a : P.aggregate) gvar (body : Ast.expr) =
  let reg = P.Registry.of_aggregate a in
  let partials : partial list ref = ref [] in
  let slot_of p =
    match List.find_index (fun q -> q = p) !partials with
    | Some i -> i
    | None ->
      partials := !partials @ [ p ];
      List.length !partials - 1
  in
  let rec rewrite (e : Ast.expr) : Ast.expr =
    match e with
    | Ast.Agg (kind, Ast.Var v, sel) when String.equal v gvar -> (
      let s = P.Registry.spec reg (P.Registry.next reg kind sel) in
      let read p = Ast.Member (Ast.Var "__acc", partial_name (slot_of p)) in
      match s.P.agg with
      | Ast.Sum -> read (P_sum s.P.sel)
      | Ast.Count -> read P_count
      | Ast.Min -> read (P_min s.P.sel)
      | Ast.Max -> read (P_max s.P.sel)
      | Ast.Avg ->
        (* avg = Σx / n over the merged partials; the multiplication by
           1.0 forces float division even for integer selectors *)
        Ast.Binop
          ( Ast.Div,
            Ast.Binop (Ast.Mul, read (P_sum s.P.sel), Ast.Const (Value.Float 1.0)),
            read P_count ))
    | Ast.Agg _ -> unsupported "aggregate source (parallel backend)"
    | Ast.Const _ | Ast.Param _ | Ast.Var _ -> e
    | Ast.Member (e, f) -> Ast.Member (rewrite e, f)
    | Ast.Unop (op, e) -> Ast.Unop (op, rewrite e)
    | Ast.Binop (op, a, b) -> Ast.Binop (op, rewrite a, rewrite b)
    | Ast.If (a, b, c) -> Ast.If (rewrite a, rewrite b, rewrite c)
    | Ast.Call (f, args) -> Ast.Call (f, List.map rewrite args)
    | Ast.Subquery _ -> unsupported "sub-query (parallel backend)"
    | Ast.Record_of fields ->
      Ast.Record_of (List.map (fun (n, e) -> (n, rewrite e)) fields)
  in
  let merged_body = rewrite body in
  (!partials, merged_body)

let partial_spec (p : partial) : P.agg_spec =
  match p with
  | P_sum sel -> { P.agg = Ast.Sum; sel }
  | P_count -> { P.agg = Ast.Count; sel = None }
  | P_min sel -> { P.agg = Ast.Min; sel }
  | P_max sel -> { P.agg = Ast.Max; sel }

let combine (p : partial) a b =
  match p with
  | P_sum _ -> Scalar.binop Ast.Add a b
  | P_count -> Scalar.binop Ast.Add a b
  | P_min _ -> if Scalar.cmp a b <= 0 then a else b
  | P_max _ -> if Scalar.cmp a b >= 0 then a else b

(* ------------------------------------------------------------------ *)

module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* ------------------------------------------------------------------ *)
(* Morsel-driven scheduling.

   The scan is cut into small fixed-size work units that worker Domains
   *pull* from a shared atomic counter: a worker that drew cheap rows
   simply pulls more morsels, so no single slow partition gates the
   query. Results are keyed by morsel id and reassembled in morsel
   order, so the merged output is byte-identical to a sequential scan
   regardless of which Domain ran which unit (and of the Domain count).
   Each morsel is also a typed-fault / cancellation checkpoint: a
   chaos-injected or crashed unit flips a shared abort flag that every
   worker polls between pulls, and the coordinator joins every Domain
   before surfacing the fault. *)

(* Process-global scheduler counters, surfaced by [Provider.report]. *)
let counters = Lq_metrics.Counters.create ()

let default_morsel_size = 4096

(* Read per execute, so tests and operators can re-tune a live process. *)
let morsel_size () =
  match Sys.getenv_opt "LQ_MORSEL_SIZE" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | _ -> default_morsel_size)
  | None -> default_morsel_size

let make ?name ~domains () : Engine_intf.t =
  let prepare ?instr cat ~param_types (plan : P.t) =
    ignore instr;
    let start = Lq_metrics.Profile.now_ms () in
    let point, remainder = split plan in
    (* The per-domain plan: the pipeline, grouped with partial
       accumulators when the partition point is an aggregation. *)
    let pipeline, merge_kind =
      match point with
      | Pipeline p -> (p, `Concat)
      | Grouped a ->
        let key = a.P.key in
        let result =
          match a.P.group_result with Some r -> r | None -> assert false
        in
        let gvar =
          match result.Ast.params with
          | [ g ] -> g
          | _ -> unsupported "group result arity (parallel)"
        in
        let partials, merged_body = decompose a gvar result.Ast.body in
        let specs = List.map partial_spec partials in
        let partial_fields =
          List.mapi
            (fun i (s : P.agg_spec) -> (partial_name i, Ast.Agg (s.P.agg, Ast.Var "__g", s.P.sel)))
            specs
        in
        (* Composite keys are flattened into one partial column per part;
           the merge phase reassembles the key record. *)
        let gkey = Ast.Member (Ast.Var "__g", Ast.group_key_field) in
        let key_fields, rebuild_key =
          match key.Ast.body with
          | Ast.Record_of fields ->
            let names = List.map fst fields in
            ( List.map (fun n -> ("__k_" ^ n, Ast.Member (gkey, n))) names,
              fun row ->
                Value.Record
                  (Array.of_list
                     (List.map (fun n -> (n, Value.field row ("__k_" ^ n))) names)) )
          | _ -> ([ ("__k", gkey) ], fun row -> Value.field row "__k")
        in
        let partial_selector =
          Ast.lam [ "__g" ] (Ast.Record_of (key_fields @ partial_fields))
        in
        (* The registry is the partial list in order: one accumulator per
           partial field, and no group needs its items. *)
        ( {
            P.op =
              P.Aggregate
                {
                  a with
                  P.group_result = Some partial_selector;
                  aggs = specs;
                  occ_slots = List.init (List.length specs) Fun.id;
                  fused = true;
                  keep_items = false;
                };
            rows = a.P.input.P.rows;
          },
          `Merge_groups (partials, merged_body, gvar, rebuild_key) )
    in
    let source_name =
      Option.get (pipeline_source (match point with Pipeline p -> p | Grouped a -> a.P.input))
    in
    let store = Catalog.store (Catalog.table cat source_name) in
    let nrows = Rowstore.length store in
    let workers = max 1 (min domains (max 1 nrows)) in
    (* The pipeline is lowered to loops and typed once; each worker Domain
       gets its own compiled plan (closures own their cursors), scanning
       whatever row range its mutable cell holds when it executes: each
       pulled work unit re-aims the cell. *)
    let ir =
      Lq_native.Loop.lower
        ~staged:(fun name -> if String.equal name source_name then Some store else None)
        cat ~params:param_types pipeline
    in
    let wplans =
      List.init workers (fun _ ->
          let range = ref (0, 0) in
          let drive _ emit =
            let lo, hi = !range in
            for row = lo to hi - 1 do
              emit row
            done
          in
          (Nplan.compile ~drive ir, range))
    in
    let codegen_ms = Lq_metrics.Profile.now_ms () -. start in
    (* The range cells and the shared morsel counter are per-execution
       scratch: concurrent executes of one cached prepared plan must not
       interleave on them. *)
    let exec_mu = Mutex.create () in
    let execute ~params () =
      Mutex.lock exec_mu;
      Fun.protect ~finally:(fun () -> Mutex.unlock exec_mu) @@ fun () ->
      (* Clamped so even a small table fans out across the workers. *)
      let unit_rows = max 1 (min (morsel_size ()) ((nrows + workers - 1) / workers)) in
      let nmorsels = if nrows = 0 then 0 else (nrows + unit_rows - 1) / unit_rows in
      let range_of m = (m * unit_rows, min nrows ((m + 1) * unit_rows)) in
      let next = Atomic.make 0 in
      let abort : exn option Atomic.t = Atomic.make None in
      let results = Array.make (max 1 nmorsels) [] in
      (* One work unit: a typed-fault / cancellation checkpoint, its
         own trace span, one compiled-plan pass over the range. *)
      let run_morsel (plan, range) m =
        let lo, hi = range_of m in
        match
          Lq_trace.Trace.with_span
            ~attrs:[ ("rows", string_of_int (max 0 (hi - lo))) ]
            Lq_trace.Trace.Morsel
            (Printf.sprintf "morsel-%d" m)
            (fun () ->
              Lq_fault.Inject.hit "parallel/morsel";
              range := (lo, hi);
              Nplan.execute plan ~params ())
        with
        | rows ->
          results.(m) <- rows;
          Lq_metrics.Counters.incr counters "parallel/morsels";
          true
        | exception exn ->
          ignore (Atomic.compare_and_set abort None (Some exn) : bool);
          false
      in
      let worker wid wp =
        Lq_trace.Trace.with_span Lq_trace.Trace.Partition
          (Printf.sprintf "partition-%d" wid)
          (fun () ->
            let processed = ref 0 in
            let continue = ref true in
            while !continue do
              if Atomic.get abort <> None then continue := false
              else begin
                let m = Atomic.fetch_and_add next 1 in
                if m >= nmorsels then continue := false
                else if run_morsel wp m then incr processed
                else continue := false
              end
            done;
            Lq_trace.Trace.span_attr "morsels" (string_of_int !processed))
      in
      (match wplans with
      | [ only ] -> worker 0 only
      | first :: rest ->
        (* Hand the ambient trace context (if any) to the worker
           Domains: each re-installs it with its own span buffer, so
           partition spans land in the submitting request's trace
           without contending on the coordinator's buffer. *)
        let tctx = Lq_trace.Trace.current () in
        let handles =
          List.mapi
            (fun i wp ->
              Domain.spawn (fun () ->
                  Lq_trace.Trace.with_context tctx (fun () -> worker (i + 1) wp)))
            rest
        in
        worker 0 first;
        (* Join every worker before surfacing any failure — a crashed
           morsel must not leak still-running Domains. *)
        List.iter
          (fun h ->
            match Domain.join h with
            | () -> ()
            | exception exn ->
              ignore (Atomic.compare_and_set abort None (Some exn) : bool))
          handles
      | [] -> ());
      (match Atomic.get abort with
      | Some exn ->
        raise
          (Lq_fault.Fault
             (Lq_fault.classify ~stage:"execute" ~default:Lq_fault.Internal exn))
      | None -> ());
      Lq_metrics.Counters.incr counters "parallel/executions";
      (* Morsel-ordered reassembly: identical to the sequential row
         order however the units were scheduled. *)
      let results = Array.to_list results in
      let merged =
        match merge_kind with
        | `Concat -> List.concat results
        | `Merge_groups (partials, merged_body, gvar, rebuild_key) ->
          (* Combine partial accumulators per key, first-occurrence
             order across the ordered chunks. *)
          let table = Vtbl.create 256 in
          let order = ref [] in
          List.iter
            (List.iter (fun row ->
                 let k = rebuild_key row in
                 let accs =
                   List.mapi (fun i _ -> Value.field row (partial_name i)) partials
                 in
                 match Vtbl.find_opt table k with
                 | None ->
                   Vtbl.add table k (ref accs);
                   order := k :: !order
                 | Some cell ->
                   cell := List.map2 (fun p (a, b) -> combine p a b) partials
                       (List.combine !cell accs)))
            results;
          List.rev_map
            (fun k ->
              let accs = !(Vtbl.find table k) in
              let acc_record =
                Value.Record
                  (Array.of_list
                     (List.mapi (fun i v -> (partial_name i, v)) accs))
              in
              let env =
                [
                  ("__acc", acc_record);
                  (gvar, Eval.group_value ~key:k ~items:[]);
                ]
              in
              Eval.expr (Eval.ctx ~params ()) ~env merged_body)
            !order
      in
      (* Sequential remainder over the merged rows. *)
      match remainder with
      | Ast.Source name when String.equal name merged_source -> merged
      | _ ->
        let ctx =
          Eval.ctx
            ~catalog:(fun name ->
              if String.equal name merged_source then merged
              else Catalog.rows (Catalog.table cat name))
            ~params ()
        in
        Eval.run ctx remainder
    in
    { Engine_intf.execute; codegen_ms; source = None }
  in
  {
    Engine_intf.name =
      (match name with
      | Some n -> n
      | None -> Printf.sprintf "compiled-c-parallel[%d]" domains);
    describe =
      "extension: morsel-driven domain-parallel native scans with partial-aggregate \
       merge";
    (* Partitioned scans only parallelize single-source pipelines whose
       aggregates merge; strings crossing Domains would need interning. *)
    caps =
      {
        Engine_intf.caps_any with
        needs_flat_sources = true;
        supports_correlated = false;
        supports_subqueries = false;
        supports_group_no_selector = false;
        supports_interning = false;
        max_sources = Some 1;
      };
    prepare;
  }

let default_domains = min 8 (Domain.recommended_domain_count ())

(* The default engine keeps a host-independent name so CLI invocations and
   reports are portable across machines. *)
let engine = make ~name:"compiled-c-parallel" ~domains:default_domains ()
let engine_with ~domains = make ~domains ()
