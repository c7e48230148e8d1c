(* The shared physical-operator IR. One lowering pass (see [Lower])
   produces this tree from [Lq_expr.Ast.query], and every engine prepares
   from it instead of re-walking the AST. Scalar work stays in the
   embedded lambdas — the plan fixes the operator skeleton, the analyses
   (predicate order, join strategy, aggregate registry, top-K fusion,
   implicit projections, staging occurrences) and the cost annotations.
   The types live beside the engine contract ([Lq_catalog.Plan_ir]). *)

include Lq_catalog.Plan_ir
module Ast = Lq_expr.Ast
module Pretty = Lq_expr.Pretty
module Engine_intf = Lq_catalog.Engine_intf

let children (p : t) =
  match p.op with
  | Scan _ -> []
  | Filter (i, _) | Project (i, _) | Sort (i, _) | Limit (i, _) | Offset (i, _)
  | Distinct i ->
    [ i ]
  | Top_k { input; _ } -> [ input ]
  | Aggregate a -> [ a.input ]
  | Join j -> [ j.left; j.right ]

(* The plan with [f] applied to each child, left before right. *)
let map_children f (p : t) =
  let op =
    match p.op with
    | Scan _ -> p.op
    | Filter (i, preds) -> Filter (f i, preds)
    | Project (i, sel) -> Project (f i, sel)
    | Join j ->
      let left = f j.left in
      Join { j with left; right = f j.right }
    | Aggregate a -> Aggregate { a with input = f a.input }
    | Sort (i, keys) -> Sort (f i, keys)
    | Top_k t -> Top_k { t with input = f t.input }
    | Limit (i, n) -> Limit (f i, n)
    | Offset (i, n) -> Offset (f i, n)
    | Distinct i -> Distinct (f i)
  in
  { p with op }

(* --- round-trip to the AST (the trivial backend) ------------------- *)

let rec to_ast (p : t) : Ast.query =
  match p.op with
  | Scan s -> Ast.Source s.table
  | Filter (input, preds) ->
    List.fold_left (fun q pr -> Ast.Where (q, pr.lambda)) (to_ast input) preds
  | Project (input, sel) -> Ast.Select (to_ast input, sel)
  | Join j ->
    Ast.Join
      {
        Ast.left = to_ast j.left;
        right = to_ast j.right;
        left_key = j.left_key;
        right_key = j.right_key;
        result = j.result;
      }
  | Aggregate a ->
    Ast.Group_by
      {
        Ast.group_source = to_ast a.input;
        key = a.key;
        group_result = a.group_result;
      }
  | Sort (input, keys) -> Ast.Order_by (to_ast input, keys)
  | Top_k { input; keys; limit } ->
    Ast.Take (Ast.Order_by (to_ast input, keys), limit)
  | Limit (input, n) -> Ast.Take (to_ast input, n)
  | Offset (input, n) -> Ast.Skip (to_ast input, n)
  | Distinct input -> Ast.Distinct (to_ast input)

(* --- the aggregate registry, as engines consume it ------------------ *)

module Registry = struct
  type nonrec t = {
    specs : agg_spec array;
    occ_slots : int array;
    mutable cursor : int;
  }

  let of_aggregate (a : aggregate) =
    {
      specs = Array.of_list a.aggs;
      occ_slots = Array.of_list a.occ_slots;
      cursor = 0;
    }

  let length t = Array.length t.specs
  let spec t i = t.specs.(i)

  (* Engines call [next] from their on-aggregate hook, which fires once per
     group-variable [Agg] occurrence as they compile the result body. The
     expression compilers traverse in the same pre-order as the lowering
     analysis, so the cursor normally just replays [occ_slots]; the
     structural check makes a traversal-order divergence safe rather than
     silently wrong. *)
  let next t (kind : Ast.agg) (sel : Ast.lambda option) =
    let matches i =
      let s = t.specs.(i) in
      s.agg = kind && s.sel = sel
    in
    let idx =
      if t.cursor < Array.length t.occ_slots && matches t.occ_slots.(t.cursor)
      then t.occ_slots.(t.cursor)
      else begin
        let n = Array.length t.specs in
        let rec find i =
          if i >= n then
            invalid_arg "Plan.Registry.next: aggregate missing from registry"
          else if matches i then i
          else find (i + 1)
        in
        find 0
      end
    in
    t.cursor <- t.cursor + 1;
    idx
end

(* --- the Min construction rule (§7.4) -------------------------------- *)

type min_construction =
  | Sort_min  (** results are the one staged source's own elements *)
  | Join_min  (** results are built by a tree of joins over staged sources *)

(* What [Staging.strip_plan] turns into a staged input: a known scan, with
   the conjuncts sitting directly on it. *)
let is_stage_leaf (p : t) =
  match p.op with
  | Scan s | Filter ({ op = Scan s; _ }, _) -> s.known
  | _ -> false

(* Whether the hybrid's Min variant can run the plan, which stages only
   keys and an index column and looks the source objects up again to
   build results — "not possible for complex queries" (§7.4). *)
let min_construction (p : t) : min_construction option =
  (* Sort-style: the one staged source's elements, filtered, ordered or
     cut, reach the result (no [Distinct]: it hashes whole elements). *)
  let rec source_elements (p : t) =
    is_stage_leaf p
    ||
    match p.op with
    | Filter (i, _) | Sort (i, _) | Top_k { input = i; _ } | Limit (i, _) | Offset (i, _) ->
      source_elements i
    | _ -> false
  in
  (* Join-style: joins building records over staged leaves, where no key
     and no field an ancestor reads uses a whole element, so only keys and
     index columns cross to the native side. [needed] are the fields of
     this join's result that its ancestors read. *)
  let rec join_tree needed (p : t) =
    is_stage_leaf p
    ||
    match p.op with
    | Join ({ result = { Ast.params = [ lv; rv ]; body = Ast.Record_of fields }; _ } as j) -> (
      let kept = List.filter_map (fun (n, e) -> if List.mem n needed then Some e else None) fields in
      let side var (key : Ast.lambda) =
        let key_paths =
          match key.Ast.params with [ k ] -> Lq_expr.Paths.of_expr ~var:k key.Ast.body | _ -> [ [] ]
        in
        let paths = key_paths @ List.concat_map (Lq_expr.Paths.of_expr ~var) kept in
        if List.mem [] paths then None else Some (List.map List.hd paths)
      in
      match (side lv j.left_key, side rv j.right_key) with
      | Some lneeded, Some rneeded -> join_tree lneeded j.left && join_tree rneeded j.right
      | _ -> false)
    | _ -> false
  in
  if source_elements p then Some Sort_min
  else match p.op with Join _ when join_tree [] p -> Some Join_min | _ -> None

(* --- feature extraction and the capability check -------------------- *)

type features = {
  correlated : bool;
  subquery : bool;
  group_no_selector : bool;
  nested_paths : bool;
  interning : bool;
  sources : int;
  nonflat_source : bool;
  min_construction : min_construction option;
}

let features (p : t) : features =
  let correlated = ref false in
  let subquery = ref false in
  let group_no_selector = ref false in
  let nested_paths = ref false in
  let interning = ref false in
  let sources = ref 0 in
  let nonflat_source = ref false in
  (* [gvars] holds group variables in scope: [g.Key.field] through one of
     them is a structural access to the synthetic group record, not a path
     into nested column data, and every engine resolves it — it must not
     count as a nested member path. *)
  let rec expr gvars (e : Ast.expr) =
    match e with
    | Ast.Subquery q ->
      subquery := true;
      if Ast.is_correlated q then correlated := true
    | Ast.Call ((Ast.Lower | Ast.Upper), args) ->
      interning := true;
      List.iter (expr gvars) args
    | Ast.Member (Ast.Member (Ast.Var g, "Key"), _)
      when List.mem g gvars ->
      ()
    | Ast.Member (Ast.Member _, _) ->
      nested_paths := true;
      let rec root (e : Ast.expr) =
        match e with
        | Ast.Member (inner, _) -> root inner
        | e -> expr gvars e
      in
      root e
    | Ast.Member (inner, _) | Ast.Unop (_, inner) -> expr gvars inner
    | Ast.Binop (_, a, b) ->
      expr gvars a;
      expr gvars b
    | Ast.If (a, b, c) ->
      expr gvars a;
      expr gvars b;
      expr gvars c
    | Ast.Call (_, args) -> List.iter (expr gvars) args
    | Ast.Agg (_, src, sel) ->
      expr gvars src;
      Option.iter (fun (l : Ast.lambda) -> expr gvars l.Ast.body) sel
    | Ast.Record_of fields -> List.iter (fun (_, e) -> expr gvars e) fields
    | Ast.Const _ | Ast.Param _ | Ast.Var _ -> ()
  in
  let lambda ?(gvars = []) (l : Ast.lambda) = expr gvars l.Ast.body in
  let rec go (p : t) =
    (match p.op with
    | Scan s ->
      incr sources;
      if s.known && not s.flat then nonflat_source := true
    | Filter (_, preds) -> List.iter (fun pr -> lambda pr.lambda) preds
    | Project (_, sel) -> lambda sel
    | Join j ->
      lambda j.left_key;
      lambda j.right_key;
      lambda j.result
    | Aggregate a ->
      lambda a.key;
      (match a.group_result with
      | None -> group_no_selector := true
      | Some r -> lambda ~gvars:r.Ast.params r);
      List.iter (fun s -> Option.iter lambda s.sel) a.aggs
    | Sort (_, keys) | Top_k { keys; _ } ->
      List.iter (fun (k : Ast.sort_key) -> lambda k.Ast.by) keys
    | Limit (_, e) | Offset (_, e) -> expr [] e
    | Distinct _ -> ());
    (match p.op with
    | Top_k { limit; _ } -> expr [] limit
    | _ -> ());
    List.iter go (children p)
  in
  go p;
  {
    correlated = !correlated;
    subquery = !subquery;
    group_no_selector = !group_no_selector;
    nested_paths = !nested_paths;
    interning = !interning;
    sources = !sources;
    nonflat_source = !nonflat_source;
    min_construction = min_construction p;
  }

let min_refusal =
  "the Min approach is not possible for this query (results are not source \
   elements or a plain join of them, §7.4)"

let check (caps : Engine_intf.caps) (f : features) : (unit, string) result =
  if f.correlated && not caps.Engine_intf.supports_correlated then
    Error "correlated sub-query (engine requires a decorrelated plan)"
  else if f.subquery && not caps.Engine_intf.supports_subqueries then
    Error "nested sub-query (engine cannot evaluate sub-plans)"
  else if f.group_no_selector && not caps.Engine_intf.supports_group_no_selector
  then Error "group without result selector (engine cannot materialize groups)"
  else if f.nested_paths && not caps.Engine_intf.supports_nested_paths then
    Error "nested member path (engine operates on single-level columns)"
  else if f.interning && not caps.Engine_intf.supports_interning then
    Error "string-producing call (engine cannot intern derived strings)"
  else if f.nonflat_source && caps.Engine_intf.needs_flat_sources then
    Error "nested source (engine requires flat array-of-structs tables)"
  else if f.min_construction = None && caps.Engine_intf.needs_min_construction then
    Error min_refusal
  else
    match caps.Engine_intf.max_sources with
    | Some m when f.sources > m ->
      Error (Printf.sprintf "%d scans (engine supports at most %d)" f.sources m)
    | _ -> Ok ()

(* --- rendering ------------------------------------------------------ *)

let render ~hide_consts ~with_rows (p : t) : string =
  let buf = Buffer.create 256 in
  let expr e = Pretty.expr_to_string ~hide_consts e in
  let lambda (l : Ast.lambda) = expr l.Ast.body in
  let keys ks =
    String.concat ", "
      (List.map
         (fun (k : Ast.sort_key) ->
           Printf.sprintf "%s %s" (lambda k.Ast.by)
             (match k.Ast.dir with
             | Ast.Asc -> "asc"
             | Ast.Desc -> "desc"))
         ks)
  in
  let rec go indent (p : t) =
    let pad = String.make (2 * indent) ' ' in
    let line =
      match p.op with
      | Scan s ->
        Printf.sprintf "scan %s%s%s%s%s" s.table
          (if not s.known then " (unbound)"
           else if s.flat then ""
           else " (nested)")
          (match s.fields with
          | None -> ""
          | Some fs -> Printf.sprintf " [%s]" (String.concat ", " fs))
          ((* the storage choice is explain-only detail: [shape_key] must
              stay byte-stable across catalogs with different stats *)
           if not with_rows then ""
           else
             match s.storage with
             | Row -> " storage=row"
             | Column [] -> " storage=column"
             | Column encs ->
               Printf.sprintf " storage=column(%s)"
                 (String.concat ", "
                    (List.map (fun (f, e) -> f ^ ":" ^ e) encs)))
          (if with_rows then "" else Printf.sprintf " as %s" s.occ)
      | Filter (_, preds) ->
        Printf.sprintf "filter %s"
          (String.concat " AND "
             (List.map
                (fun pr ->
                  if with_rows then
                    Printf.sprintf "%s {cost %.1f}" (lambda pr.lambda) pr.cost
                  else lambda pr.lambda)
                preds))
      | Project (_, sel) -> Printf.sprintf "project %s" (lambda sel)
      | Join j ->
        Printf.sprintf "%s on %s = %s -> %s"
          (match j.strategy with
          | `Hash -> "hash-join"
          | `Nested_loop -> "nested-loop-join")
          (lambda j.left_key) (lambda j.right_key) (lambda j.result)
      | Aggregate a ->
        let regs =
          String.concat ", "
            (List.map
               (fun s ->
                 Printf.sprintf "%s(%s)"
                   (Pretty.agg_name s.agg)
                   (match s.sel with
                   | None -> "*"
                   | Some l -> lambda l))
               a.aggs)
        in
        Printf.sprintf "hash-aggregate key %s%s%s%s" (lambda a.key)
          (match a.group_result with
          | None -> " (group values)"
          | Some r -> Printf.sprintf " -> %s" (lambda r))
          (if a.aggs = [] then
             if a.fused then ""
             else " [unfused: per-aggregate passes]"
           else Printf.sprintf " [accumulators: %s]" regs)
          (if a.keep_items then " [keep items]" else "")
      | Sort (_, ks) -> Printf.sprintf "sort by %s" (keys ks)
      | Top_k { keys = ks; limit; _ } ->
        Printf.sprintf "top-k %s by %s (bounded heap)" (expr limit) (keys ks)
      | Limit (_, n) -> Printf.sprintf "limit %s" (expr n)
      | Offset (_, n) -> Printf.sprintf "offset %s" (expr n)
      | Distinct _ -> "distinct"
    in
    if with_rows then
      Buffer.add_string buf (Printf.sprintf "%s%s  (~%.0f rows)\n" pad line p.rows)
    else Buffer.add_string buf (Printf.sprintf "%s%s\n" pad line);
    List.iter (go (indent + 1)) (children p)
  in
  go 0 p;
  Buffer.contents buf

(* [notes] are advisory annotations (e.g. the decorrelation pass's
   "decorrelated=…" lines) prepended to the rendering; they never reach
   [shape_key], which must stay annotation-blind. *)
let explain ?(notes = []) p =
  String.concat "" (List.map (fun n -> n ^ "\n") notes)
  ^ render ~hide_consts:false ~with_rows:true p

(* The cache key: operator skeleton + constant-hidden scalar shapes. Two
   queries that differ only in literal constants lower — after
   [Shape.parameterize] — to plans with identical keys, so a compiled plan
   is rebound rather than recompiled; engine-specific options compose via
   the engine-name component of the cache key. *)
let shape_key p = render ~hide_consts:true ~with_rows:false p

let hash p = Hashtbl.hash (shape_key p)
