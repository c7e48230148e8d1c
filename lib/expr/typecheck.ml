open Lq_value

exception Type_error of string

let error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

type tenv = {
  source_type : string -> Vtype.t;
  params : (string, Vtype.t) Hashtbl.t;
}

let tenv ?(source_type = fun name -> error "unknown source %S" name) ?(params = []) () =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (name, ty) -> Hashtbl.replace tbl name ty) params;
  { source_type; params = tbl }

(* The one context rule, for a parameter with no binding: it takes the
   type of the operand it meets — the other side of an operator, the
   other branch of an [if], or the type a call or a count expects at its
   position — through a negation. *)
let rec hole te (e : Ast.expr) =
  match e with
  | Ast.Param p when not (Hashtbl.mem te.params p) -> Some p
  | Ast.Unop (Ast.Neg, e) -> hole te e
  | _ -> None

let meet te ty e = Option.iter (fun p -> Hashtbl.replace te.params p ty) (hole te e)

let numeric_join a b =
  match (a, b) with
  | Vtype.Int, Vtype.Int -> Vtype.Int
  | (Vtype.Int | Vtype.Float), (Vtype.Int | Vtype.Float) -> Vtype.Float
  | _ -> error "arithmetic on non-numeric types %a and %a" Vtype.pp a Vtype.pp b

let comparable a b =
  match (a, b) with
  | (Vtype.Int | Vtype.Float), (Vtype.Int | Vtype.Float) -> ()
  | _ ->
    if not (Vtype.equal a b) then
      error "comparison between incompatible types %a and %a" Vtype.pp a Vtype.pp b

let rec expr_type te ~env (e : Ast.expr) : Vtype.t =
  match e with
  | Ast.Const v -> (
    match Value.type_of v with
    | Some ty -> ty
    | None -> error "constant %s has no inferable type" (Value.to_string v))
  | Ast.Param p -> (
    match Hashtbl.find_opt te.params p with
    | Some ty -> ty
    | None -> error "parameter %S has no binding and meets no typed operand" p)
  | Ast.Var v -> (
    match List.assoc_opt v env with
    | Some ty -> ty
    | None -> error "unbound variable %S" v)
  | Ast.Member (e, name) -> (
    let ty = expr_type te ~env e in
    match Vtype.field ty name with
    | Some fty -> fty
    | None -> error "type %a has no member %S" Vtype.pp ty name)
  | Ast.Unop (Ast.Neg, e) -> (
    match expr_type te ~env e with
    | (Vtype.Int | Vtype.Float) as ty -> ty
    | ty -> error "negation of non-numeric %a" Vtype.pp ty)
  | Ast.Unop (Ast.Not, e) -> (
    match expr_type te ~env e with
    | Vtype.Bool -> Vtype.Bool
    | ty -> error "logical not of non-boolean %a" Vtype.pp ty)
  | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod), a, b) ->
    let ta, tb = operands te ~env a b in
    numeric_join ta tb
  | Ast.Binop ((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), a, b) ->
    let ta, tb = operands te ~env a b in
    comparable ta tb;
    Vtype.Bool
  | Ast.Binop ((Ast.And | Ast.Or), a, b) -> (
    match (expr_type te ~env a, expr_type te ~env b) with
    | Vtype.Bool, Vtype.Bool -> Vtype.Bool
    | ta, tb -> error "boolean operator on %a and %a" Vtype.pp ta Vtype.pp tb)
  | Ast.If (c, t, e) -> (
    match expr_type te ~env c with
    | Vtype.Bool ->
      let tt, et = operands te ~env t e in
      if Vtype.equal tt et then tt
      else if Vtype.is_numeric tt && Vtype.is_numeric et then numeric_join tt et
      else error "if branches have types %a and %a" Vtype.pp tt Vtype.pp et
    | ty -> error "if condition has type %a" Vtype.pp ty)
  | Ast.Call (f, args) -> call_type te ~env f args
  | Ast.Agg (kind, src, sel) -> (
    let elem_ty =
      match expr_type te ~env src with
      | Vtype.List ty -> ty
      | Vtype.Record fields as ty -> (
        match List.assoc_opt Ast.group_items_field fields with
        | Some (Vtype.List ty) -> ty
        | Some _ | None -> error "aggregate over non-enumerable %a" Vtype.pp ty)
      | ty -> error "aggregate over non-enumerable %a" Vtype.pp ty
    in
    let selected_ty =
      match sel with
      | None -> elem_ty
      | Some l -> (
        match l.params with
        | [ p ] -> expr_type te ~env:((p, elem_ty) :: env) l.body
        | _ -> error "aggregate selector must take exactly one parameter")
    in
    match kind with
    | Ast.Count -> Vtype.Int
    | Ast.Avg ->
      if Vtype.is_numeric selected_ty then Vtype.Float
      else error "Avg over non-numeric %a" Vtype.pp selected_ty
    | Ast.Sum ->
      if Vtype.is_numeric selected_ty then selected_ty
      else error "Sum over non-numeric %a" Vtype.pp selected_ty
    | Ast.Min | Ast.Max ->
      if Vtype.is_scalar selected_ty then selected_ty
      else error "Min/Max over non-scalar %a" Vtype.pp selected_ty)
  | Ast.Subquery q -> Vtype.List (query_type te ~env q)
  | Ast.Record_of fields ->
    Vtype.Record (List.map (fun (n, e) -> (n, expr_type te ~env e)) fields)

(* Two operands met side by side: a parameter with no binding is typed
   from the other one. *)
and operands te ~env a b =
  if Option.is_some (hole te a) then begin
    let tb = expr_type te ~env b in
    meet te tb a;
    (expr_type te ~env a, tb)
  end
  else begin
    let ta = expr_type te ~env a in
    meet te ta b;
    (ta, expr_type te ~env b)
  end

and call_type te ~env (f : Ast.func) args =
  let expect name expected result =
    if List.length args = List.length expected then List.iter2 (meet te) expected args;
    let tys = List.map (expr_type te ~env) args in
    if not (List.equal Vtype.equal tys expected) then
      error "%s expects (%s), got (%s)" name
        (String.concat ", " (List.map Vtype.to_string expected))
        (String.concat ", " (List.map Vtype.to_string tys));
    result
  in
  match f with
  | Ast.Starts_with -> expect "StartsWith" [ Vtype.String; Vtype.String ] Vtype.Bool
  | Ast.Ends_with -> expect "EndsWith" [ Vtype.String; Vtype.String ] Vtype.Bool
  | Ast.Contains -> expect "Contains" [ Vtype.String; Vtype.String ] Vtype.Bool
  | Ast.Like -> expect "Like" [ Vtype.String; Vtype.String ] Vtype.Bool
  | Ast.Lower -> expect "Lower" [ Vtype.String ] Vtype.String
  | Ast.Upper -> expect "Upper" [ Vtype.String ] Vtype.String
  | Ast.Length -> expect "Length" [ Vtype.String ] Vtype.Int
  | Ast.Abs -> (
    match List.map (expr_type te ~env) args with
    | [ (Vtype.Int | Vtype.Float) as ty ] -> ty
    | _ -> error "Abs expects one numeric argument")
  | Ast.Year -> expect "Year" [ Vtype.Date ] Vtype.Int
  | Ast.Add_days -> expect "AddDays" [ Vtype.Date; Vtype.Int ] Vtype.Date

and apply_type te ~env (l : Ast.lambda) arg_tys =
  if List.length l.params <> List.length arg_tys then
    error "lambda arity mismatch: %d parameters, %d arguments"
      (List.length l.params) (List.length arg_tys);
  expr_type te ~env:(List.rev_append (List.combine l.params arg_tys) env) l.body

and query_type te ~env (q : Ast.query) : Vtype.t =
  match q with
  | Ast.Source name -> te.source_type name
  | Ast.Where (src, pred) ->
    let elem = query_type te ~env src in
    (match apply_type te ~env pred [ elem ] with
    | Vtype.Bool -> elem
    | ty -> error "Where predicate has type %a" Vtype.pp ty)
  | Ast.Select (src, sel) ->
    let elem = query_type te ~env src in
    apply_type te ~env sel [ elem ]
  | Ast.Join { left; right; left_key; right_key; result } ->
    let lt = query_type te ~env left and rt = query_type te ~env right in
    let lk = apply_type te ~env left_key [ lt ]
    and rk = apply_type te ~env right_key [ rt ] in
    if not (Vtype.equal lk rk) then
      error "join keys have types %a and %a" Vtype.pp lk Vtype.pp rk;
    apply_type te ~env result [ lt; rt ]
  | Ast.Group_by { group_source; key; group_result } -> (
    let elem = query_type te ~env group_source in
    let key_ty = apply_type te ~env key [ elem ] in
    let group_ty =
      Vtype.Record
        [ (Ast.group_key_field, key_ty); (Ast.group_items_field, Vtype.List elem) ]
    in
    match group_result with
    | None -> group_ty
    | Some l -> apply_type te ~env l [ group_ty ])
  | Ast.Order_by (src, keys) ->
    let elem = query_type te ~env src in
    List.iter
      (fun (k : Ast.sort_key) ->
        let ty = apply_type te ~env k.by [ elem ] in
        if not (Vtype.is_scalar ty) then
          error "OrderBy key has non-scalar type %a" Vtype.pp ty)
      keys;
    elem
  | Ast.Take (src, n) | Ast.Skip (src, n) -> (
    meet te Vtype.Int n;
    match expr_type te ~env n with
    | Vtype.Int -> query_type te ~env src
    | ty -> error "Take/Skip count has type %a" Vtype.pp ty)
  | Ast.Distinct src -> query_type te ~env src

let expr_type te ~env e = expr_type te ~env e
let query_type te ~env q = query_type te ~env q

let param_types te q =
  (try ignore (query_type te ~env:[] q) with Type_error _ -> ());
  Hashtbl.fold (fun name ty acc -> (name, ty) :: acc) te.params []

let element_schema te q =
  match query_type te ~env:[] q with
  | Vtype.Record fields -> Schema.make fields
  | ty -> error "query element type %a is not a record" Vtype.pp ty
