open Lq_expr

type staged_spec = {
  occ : string;
  source : string;
  preds : Ast.lambda list;
}

(* Plan-driven splitting: every known scan in the lowered plan is a stage
   boundary — its occurrence name (assigned by [Lower]) identifies the
   staged input, and the [Filter] conjuncts sitting directly on it are the
   managed-side predicates. The remainder of the plan round-trips to an
   AST (with sources renamed to their occurrences) for the native side. *)
let strip_plan (p : Plan.t) : Ast.query * staged_spec list =
  let specs = ref [] in
  let stage (s : Plan.scan) preds =
    specs := { occ = s.Plan.occ; source = s.Plan.table; preds } :: !specs;
    Plan.Scan { s with Plan.table = s.Plan.occ }
  in
  let rec go (p : Plan.t) : Plan.t =
    match p.Plan.op with
    | Plan.Scan s when s.Plan.known -> { p with Plan.op = stage s [] }
    | Plan.Filter ({ Plan.op = Plan.Scan s; _ }, preds) when s.Plan.known ->
      { p with Plan.op = stage s (List.map (fun pr -> pr.Plan.lambda) preds) }
    | _ -> Plan.map_children go p
  in
  let stripped = go p in
  (Plan.to_ast stripped, List.rev !specs)

(* Producer-tracking walk shared by the path analyses: [on_elem_lambda]
   fires for every lambda parameter that binds elements of [occ]. Returns
   whether the query's own elements are occ's elements. *)
let track ~occ ~(on_elem_var : string -> Ast.expr -> unit) (q : Ast.query) : bool
    =
  let lambda1 (l : Ast.lambda) =
    match l.Ast.params with
    | [ p ] -> on_elem_var p l.Ast.body
    | _ -> invalid_arg "Split.track: lambda arity"
  in
  (* Aggregate selectors inside a group-result body bind group *elements*:
     when the group's input elements are occ's, their paths count too. *)
  let rec agg_selectors (e : Ast.expr) =
    match e with
    | Ast.Agg (_, _, Some sel) -> lambda1 sel
    | Ast.Agg (_, _, None) -> ()
    | Ast.Const _ | Ast.Param _ | Ast.Var _ -> ()
    | Ast.Member (e, _) | Ast.Unop (_, e) -> agg_selectors e
    | Ast.Binop (_, a, b) ->
      agg_selectors a;
      agg_selectors b
    | Ast.If (a, b, c) ->
      agg_selectors a;
      agg_selectors b;
      agg_selectors c
    | Ast.Call (_, args) -> List.iter agg_selectors args
    | Ast.Subquery _ -> ()
    | Ast.Record_of fields -> List.iter (fun (_, e) -> agg_selectors e) fields
  in
  let rec go (q : Ast.query) : bool =
    match q with
    | Ast.Source name -> String.equal name occ
    | Ast.Where (src, pred) ->
      let p = go src in
      if p then lambda1 pred;
      p
    | Ast.Select (src, sel) ->
      if go src then lambda1 sel;
      false
    | Ast.Join j ->
      let pl = go j.left and pr = go j.right in
      if pl then begin
        lambda1 j.left_key;
        match j.result.Ast.params with
        | [ l; _ ] -> on_elem_var l j.result.Ast.body
        | _ -> ()
      end;
      if pr then begin
        lambda1 j.right_key;
        match j.result.Ast.params with
        | [ _; r ] -> on_elem_var r j.result.Ast.body
        | _ -> ()
      end;
      false
    | Ast.Group_by g ->
      if go g.group_source then begin
        lambda1 g.key;
        match g.group_result with
        | Some r -> agg_selectors r.Ast.body
        | None -> ()
      end;
      false
    | Ast.Order_by (src, keys) ->
      let p = go src in
      if p then List.iter (fun (k : Ast.sort_key) -> lambda1 k.Ast.by) keys;
      p
    | Ast.Take (src, _) | Ast.Skip (src, _) | Ast.Distinct src -> go src
  in
  go q

let used_paths (q : Ast.query) ~occ =
  let acc = ref [] in
  let seen = Hashtbl.create 16 in
  let add path =
    if not (Hashtbl.mem seen path) then begin
      Hashtbl.add seen path ();
      acc := path :: !acc
    end
  in
  let producer =
    track ~occ
      ~on_elem_var:(fun var body -> List.iter add (Paths.of_expr ~var body))
      q
  in
  if producer then add [];
  List.rev !acc

(* Member-chain rewriting inside lambdas bound to occ elements. *)
let rec chain_root acc (e : Ast.expr) =
  match e with
  | Ast.Member (inner, name) -> chain_root (name :: acc) inner
  | _ -> (e, acc)

let rewrite_body ~var ~rename (body : Ast.expr) : Ast.expr =
  let rec rw bound (e : Ast.expr) : Ast.expr =
    match e with
    | Ast.Member _ -> (
      let root, path = chain_root [] e in
      match root with
      | Ast.Var v when String.equal v var && not (List.mem v bound) ->
        Ast.Member (Ast.Var v, rename path)
      | _ ->
        let rec rebuild (e : Ast.expr) =
          match e with
          | Ast.Member (inner, name) -> Ast.Member (rebuild inner, name)
          | other -> rw bound other
        in
        rebuild e)
    | Ast.Const _ | Ast.Param _ | Ast.Var _ -> e
    | Ast.Unop (op, e) -> Ast.Unop (op, rw bound e)
    | Ast.Binop (op, a, b) -> Ast.Binop (op, rw bound a, rw bound b)
    | Ast.If (a, b, c) -> Ast.If (rw bound a, rw bound b, rw bound c)
    | Ast.Call (f, args) -> Ast.Call (f, List.map (rw bound) args)
    | Ast.Agg (k, src, sel) ->
      Ast.Agg
        ( k,
          rw bound src,
          Option.map
            (fun (l : Ast.lambda) ->
              { l with Ast.body = rw (l.Ast.params @ bound) l.Ast.body })
            sel )
    | Ast.Subquery q -> Ast.Subquery q
    | Ast.Record_of fields ->
      Ast.Record_of (List.map (fun (n, e) -> (n, rw bound e)) fields)
  in
  rw [] body

let rewrite_paths (q : Ast.query) ~occ ~rename =
  (* Mirrors [track], but rebuilding the tree. *)
  let rw_lambda1 (l : Ast.lambda) =
    match l.Ast.params with
    | [ p ] -> { l with Ast.body = rewrite_body ~var:p ~rename l.Ast.body }
    | _ -> l
  in
  let rw_result_param i (l : Ast.lambda) =
    match List.nth_opt l.Ast.params i with
    | Some p -> { l with Ast.body = rewrite_body ~var:p ~rename l.Ast.body }
    | None -> l
  in
  let rec rw_agg_selectors (e : Ast.expr) : Ast.expr =
    match e with
    | Ast.Agg (k, src, Some sel) -> Ast.Agg (k, src, Some (rw_lambda1 sel))
    | Ast.Agg (_, _, None) | Ast.Const _ | Ast.Param _ | Ast.Var _ -> e
    | Ast.Member (e, f) -> Ast.Member (rw_agg_selectors e, f)
    | Ast.Unop (op, e) -> Ast.Unop (op, rw_agg_selectors e)
    | Ast.Binop (op, a, b) -> Ast.Binop (op, rw_agg_selectors a, rw_agg_selectors b)
    | Ast.If (a, b, c) ->
      Ast.If (rw_agg_selectors a, rw_agg_selectors b, rw_agg_selectors c)
    | Ast.Call (f, args) -> Ast.Call (f, List.map rw_agg_selectors args)
    | Ast.Subquery q -> Ast.Subquery q
    | Ast.Record_of fields ->
      Ast.Record_of (List.map (fun (n, e) -> (n, rw_agg_selectors e)) fields)
  in
  let rec go (q : Ast.query) : bool * Ast.query =
    match q with
    | Ast.Source name -> (String.equal name occ, q)
    | Ast.Where (src, pred) ->
      let p, src = go src in
      (p, Ast.Where (src, if p then rw_lambda1 pred else pred))
    | Ast.Select (src, sel) ->
      let p, src = go src in
      (false, Ast.Select (src, if p then rw_lambda1 sel else sel))
    | Ast.Join j ->
      let pl, left = go j.left in
      let pr, right = go j.right in
      let left_key = if pl then rw_lambda1 j.left_key else j.left_key in
      let right_key = if pr then rw_lambda1 j.right_key else j.right_key in
      let result = if pl then rw_result_param 0 j.result else j.result in
      let result = if pr then rw_result_param 1 result else result in
      (false, Ast.Join { left; right; left_key; right_key; result })
    | Ast.Group_by g ->
      let p, group_source = go g.group_source in
      let key = if p then rw_lambda1 g.key else g.key in
      let group_result =
        match g.group_result with
        | Some r when p -> Some { r with Ast.body = rw_agg_selectors r.Ast.body }
        | other -> other
      in
      (false, Ast.Group_by { group_source; key; group_result })
    | Ast.Order_by (src, keys) ->
      let p, src = go src in
      let keys =
        if p then
          List.map (fun (k : Ast.sort_key) -> { k with Ast.by = rw_lambda1 k.Ast.by }) keys
        else keys
      in
      (p, Ast.Order_by (src, keys))
    | Ast.Take (src, n) ->
      let p, src = go src in
      (p, Ast.Take (src, n))
    | Ast.Skip (src, n) ->
      let p, src = go src in
      (p, Ast.Skip (src, n))
    | Ast.Distinct src ->
      let p, src = go src in
      (p, Ast.Distinct src)
  in
  snd (go q)

let all_leaf_paths ty =
  let rec go prefix (ty : Lq_value.Vtype.t) acc =
    match ty with
    | Lq_value.Vtype.Record fields ->
      List.fold_left (fun acc (n, t) -> go (n :: prefix) t acc) acc fields
    | Lq_value.Vtype.List _ -> acc
    | _ -> List.rev prefix :: acc
  in
  List.rev (go [] ty [])
