(* Generic rewrite of every [Const] leaf, in a fixed pre-order traversal
   used by both extraction and rebinding so the two always line up. *)

let rec map_consts_expr f (e : Ast.expr) : Ast.expr =
  match e with
  | Ast.Const v -> Ast.Const (f v)
  | Ast.Param _ | Ast.Var _ -> e
  | Ast.Member (e, name) -> Ast.Member (map_consts_expr f e, name)
  | Ast.Unop (op, e) -> Ast.Unop (op, map_consts_expr f e)
  | Ast.Binop (op, a, b) ->
    let a = map_consts_expr f a in
    let b = map_consts_expr f b in
    Ast.Binop (op, a, b)
  | Ast.If (c, t, e) ->
    let c = map_consts_expr f c in
    let t = map_consts_expr f t in
    let e = map_consts_expr f e in
    Ast.If (c, t, e)
  | Ast.Call (fn, args) -> Ast.Call (fn, List.map (map_consts_expr f) args)
  | Ast.Agg (kind, src, sel) ->
    let src = map_consts_expr f src in
    Ast.Agg (kind, src, Option.map (map_consts_lambda f) sel)
  | Ast.Subquery q -> Ast.Subquery (map_consts_query f q)
  | Ast.Record_of fields ->
    Ast.Record_of (List.map (fun (n, e) -> (n, map_consts_expr f e)) fields)

and map_consts_lambda f (l : Ast.lambda) = { l with body = map_consts_expr f l.body }

and map_consts_query f (q : Ast.query) : Ast.query =
  match q with
  | Ast.Source _ -> q
  | Ast.Where (src, pred) ->
    let src = map_consts_query f src in
    Ast.Where (src, map_consts_lambda f pred)
  | Ast.Select (src, sel) ->
    let src = map_consts_query f src in
    Ast.Select (src, map_consts_lambda f sel)
  | Ast.Join j ->
    let left = map_consts_query f j.left in
    let right = map_consts_query f j.right in
    let left_key = map_consts_lambda f j.left_key in
    let right_key = map_consts_lambda f j.right_key in
    let result = map_consts_lambda f j.result in
    Ast.Join { left; right; left_key; right_key; result }
  | Ast.Group_by g ->
    let group_source = map_consts_query f g.group_source in
    let key = map_consts_lambda f g.key in
    let group_result = Option.map (map_consts_lambda f) g.group_result in
    Ast.Group_by { group_source; key; group_result }
  | Ast.Order_by (src, keys) ->
    let src = map_consts_query f src in
    Ast.Order_by
      (src, List.map (fun (k : Ast.sort_key) -> { k with by = map_consts_lambda f k.by }) keys)
  | Ast.Take (src, n) ->
    let src = map_consts_query f src in
    Ast.Take (src, map_consts_expr f n)
  | Ast.Skip (src, n) ->
    let src = map_consts_query f src in
    Ast.Skip (src, map_consts_expr f n)
  | Ast.Distinct src -> Ast.Distinct (map_consts_query f src)

let key q = Pretty.query_to_string ~hide_consts:true q
let hash q = Hashtbl.hash (key q)

let consts q =
  let acc = ref [] in
  let (_ : Ast.query) =
    map_consts_query
      (fun v ->
        acc := v :: !acc;
        v)
      q
  in
  List.rev !acc

let replace_consts q values =
  let remaining = ref values in
  let result =
    map_consts_query
      (fun _ ->
        match !remaining with
        | v :: rest ->
          remaining := rest;
          v
        | [] -> invalid_arg "Shape.replace_consts: too few constants")
      q
  in
  if !remaining <> [] then invalid_arg "Shape.replace_consts: too many constants";
  result

let holes q =
  let bindings = ref [] in
  let params = ref [] in
  let q' =
    (* [map_consts_query] maps constants to constants, so introducing
       [Param] leaves needs its own traversal — kept in the exact same
       pre-order as {!consts}/{!replace_consts}. *)
    let n = ref 0 in
    let rec rebuild_expr (e : Ast.expr) : Ast.expr =
      match e with
      | Ast.Const v ->
        let name = Printf.sprintf "__c%d" !n in
        incr n;
        bindings := (name, v) :: !bindings;
        Ast.Param name
      | Ast.Param name ->
        if not (List.mem name !params) then params := name :: !params;
        e
      | Ast.Var _ -> e
      | Ast.Member (e, name) -> Ast.Member (rebuild_expr e, name)
      | Ast.Unop (op, e) -> Ast.Unop (op, rebuild_expr e)
      | Ast.Binop (op, a, b) ->
        let a = rebuild_expr a in
        let b = rebuild_expr b in
        Ast.Binop (op, a, b)
      | Ast.If (c, t, e) ->
        let c = rebuild_expr c in
        let t = rebuild_expr t in
        let e = rebuild_expr e in
        Ast.If (c, t, e)
      | Ast.Call (fn, args) -> Ast.Call (fn, List.map rebuild_expr args)
      | Ast.Agg (kind, src, sel) ->
        let src = rebuild_expr src in
        Ast.Agg (kind, src, Option.map rebuild_lambda sel)
      | Ast.Subquery q -> Ast.Subquery (rebuild_query q)
      | Ast.Record_of fields ->
        Ast.Record_of (List.map (fun (fname, e) -> (fname, rebuild_expr e)) fields)
    and rebuild_lambda (l : Ast.lambda) = { l with body = rebuild_expr l.body }
    and rebuild_query (q : Ast.query) : Ast.query =
      match q with
      | Ast.Source _ -> q
      | Ast.Where (src, pred) ->
        let src = rebuild_query src in
        Ast.Where (src, rebuild_lambda pred)
      | Ast.Select (src, sel) ->
        let src = rebuild_query src in
        Ast.Select (src, rebuild_lambda sel)
      | Ast.Join j ->
        let left = rebuild_query j.left in
        let right = rebuild_query j.right in
        let left_key = rebuild_lambda j.left_key in
        let right_key = rebuild_lambda j.right_key in
        let result = rebuild_lambda j.result in
        Ast.Join { left; right; left_key; right_key; result }
      | Ast.Group_by g ->
        let group_source = rebuild_query g.group_source in
        let key = rebuild_lambda g.key in
        let group_result = Option.map rebuild_lambda g.group_result in
        Ast.Group_by { group_source; key; group_result }
      | Ast.Order_by (src, keys) ->
        let src = rebuild_query src in
        Ast.Order_by
          (src, List.map (fun (k : Ast.sort_key) -> { k with by = rebuild_lambda k.by }) keys)
      | Ast.Take (src, n) ->
        let src = rebuild_query src in
        Ast.Take (src, rebuild_expr n)
      | Ast.Skip (src, n) ->
        let src = rebuild_query src in
        Ast.Skip (src, rebuild_expr n)
      | Ast.Distinct src -> Ast.Distinct (rebuild_query src)
    in
    rebuild_query q
  in
  (q', List.rev !bindings, List.rev !params)

let parameterize q =
  let q', bindings, _ = holes q in
  (q', bindings)

let compatible a b = String.equal (key a) (key b)
