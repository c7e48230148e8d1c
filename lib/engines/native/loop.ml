open Lq_value
module Ast = Lq_expr.Ast
module Layout = Lq_storage.Layout
module Rowstore = Lq_storage.Rowstore
module Dict = Lq_storage.Dict
module Catalog = Lq_catalog.Catalog
module Engine_intf = Lq_catalog.Engine_intf
module P = Lq_plan.Plan

let unsupported = Engine_intf.unsupported

type ty = I of Vtype.t | F | B
type reg = Named of string | Str_const of string
type arith = Add | Sub | Mul | Div | Mod
type cmp = Eq | Ne | Lt | Le | Gt | Ge
type order = By_int | By_float | By_bool | By_string

type expr = { ty : ty; node : node }

and node =
  | Int_lit of int
  | Bool_lit of bool
  | Float_lit of float
  | Reg of int
  | Cell of int
  | Col of int * int
  | Key of int * int
  | Acc of int * int
  | To_float of expr
  | To_bool of expr
  | Neg of expr
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Arith of arith * expr * expr
  | Cmp of cmp * order * expr * expr
  | If of expr * expr * expr
  | Like of expr * string
  | Like_param of { subject : expr; pattern : expr; lead : bool; trail : bool }
  | Case of [ `Lower | `Upper ] * expr
  | Length of expr
  | Abs of expr
  | Year of expr
  | Add_days of expr * expr

type elem = Row of int | Fields of (string * expr) list | Scalar of expr

type loop =
  | Scan of { rel : int; table : string; store : Rowstore.t; staged : bool }
  | Filter of { input : loop; preds : expr list; probe : probe option }
  | Join of { left : loop; right : loop; lkey : expr list; rkey : expr list; build : spill }
  | Group of { id : int; input : loop; key : expr list; accs : acc array }
  | Sort of { input : loop; spill : spill; keys : sort_key list; limit : expr option }
  | Limit of loop * expr
  | Offset of loop * expr
  | Distinct of loop * expr list

and probe = { index : Lq_exec.Int_table.Multi.t; conjunct : int; key : expr }
and spill = { rel : int; cols : expr list }

and acc =
  | Count
  | Sum of expr
  | Avg of expr
  | Min_max of { max : bool; arg : expr; order : order }

and sort_key = { by : expr; order : order; desc : bool }

type cell = { cell_ty : ty; eval : Lq_expr.Eval.ctx -> Value.t }

type t = {
  cat : Catalog.t;
  root : loop;
  out : elem;
  rels : Layout.t array;
  int_regs : reg array;
  float_regs : string array;
  cells : cell array;
}

let vty = function
  | I ty -> ty
  | F -> Vtype.Float
  | B -> Vtype.Bool

let col_ty (f : Layout.field) =
  match f.Layout.ftype with
  | Lq_storage.Ftype.F64 -> F
  | _ -> I f.Layout.vty

let fields_of layout_of = function
  | Row rel ->
    Array.to_list (Layout.fields (layout_of rel))
    |> List.mapi (fun col (f : Layout.field) ->
           (f.Layout.name, { ty = col_ty f; node = Col (rel, col) }))
  | Fields fields -> fields
  | Scalar e -> [ ("__val", e) ]

let fields t elem = fields_of (Array.get t.rels) elem

(* --- register binding ------------------------------------------------ *)

let int_image dict = function
  | Value.Int i -> Some i
  | Value.Date d -> Some d
  | Value.Bool b -> Some (if b then 1 else 0)
  | Value.Str s -> Some (Dict.intern dict s)
  | _ -> None

let bind t dict params ~int ~float =
  let lookup name =
    match List.assoc_opt name params with
    | Some v -> v
    | None -> Engine_intf.execution_failed "unbound query parameter %S" name
  in
  Array.iteri
    (fun k reg ->
      int k
        (match reg with
        | Str_const s -> Dict.intern dict s
        | Named name -> (
          let v = lookup name in
          match int_image dict v with
          | Some i -> i
          | None ->
            Engine_intf.execution_failed "parameter %S: expected integer-like, got %s" name
              (Value.to_string v))))
    t.int_regs;
  Array.iteri (fun k name -> float k (Value.to_float (lookup name))) t.float_regs

(* --- lowering state ---------------------------------------------------- *)

type ctx = {
  cat : Catalog.t;
  staged : string -> Rowstore.t option;
  params : (string * Vtype.t) list;
  tenv : Lq_expr.Typecheck.tenv Lazy.t;
  mutable iregs : (reg * int) list;  (** reversed allocation order *)
  mutable fregs : (string * int) list;
  layouts : (int, Layout.t) Hashtbl.t;
  mutable cells : cell list;  (** reversed *)
  mutable ngroups : int;
}

(* Registers are deduplicated by name (or literal) and numbered in first
   use order — the order the C tier's [ip]/[fp] arrays are packed in. *)
let alloc slots key =
  match List.assoc_opt key slots with
  | Some k -> (slots, k)
  | None ->
    let k = List.length slots in
    ((key, k) :: slots, k)

let int_reg c r =
  let slots, k = alloc c.iregs r in
  c.iregs <- slots;
  k

let float_reg c name =
  let slots, k = alloc c.fregs name in
  c.fregs <- slots;
  k

let new_rel c layout =
  let rel = Hashtbl.length c.layouts in
  Hashtbl.add c.layouts rel layout;
  rel

(* --- scalar typing ----------------------------------------------------- *)

let mk ty node = { ty; node }

let param_ty c name =
  match List.assoc_opt name c.params with
  | Some Vtype.Float -> F
  | Some ((Vtype.Int | Vtype.Date | Vtype.Bool | Vtype.String) as ty) -> I ty
  | Some ty -> unsupported "parameter %S of type %s (native)" name (Vtype.to_string ty)
  | None -> unsupported "parameter %S: no binding and no typed operand (native)" name

(* A parameter is a register of its given type, allocated where it is
   read. An int parameter read [beside] a float takes a float register,
   so the promotion a column pays per row is paid once at bind. *)
let param c ?beside name =
  match (param_ty c name, beside) with
  | F, _ | I Vtype.Int, Some F -> mk F (Reg (float_reg c name))
  | ty, _ -> mk ty (Reg (int_reg c (Named name)))

let as_bool e =
  match e.ty with
  | B -> e
  | I Vtype.Bool -> mk B (To_bool e)
  | I ty -> unsupported "expected bool, found %s" (Vtype.to_string ty)
  | F -> unsupported "expected bool, found float"

let as_float e =
  match e.ty with
  | F -> e
  | I Vtype.Int -> mk F (To_float e)
  | I ty -> unsupported "cannot use %s as float" (Vtype.to_string ty)
  | B -> unsupported "cannot use bool as float"

(* Integer positions (limits, offsets) take conditions as 0/1. *)
let as_int e =
  match e.ty with
  | F -> unsupported "expected an integer-typed native expression"
  | I _ | B -> e

let numeric e = match e.ty with F | I Vtype.Int -> true | _ -> false

let arith (op : Ast.binop) =
  match op with
  | Ast.Add -> Add
  | Ast.Sub -> Sub
  | Ast.Mul -> Mul
  | Ast.Div -> Div
  | Ast.Mod -> Mod
  | _ -> assert false

let cmp (op : Ast.binop) =
  match op with
  | Ast.Eq -> Eq
  | Ast.Ne -> Ne
  | Ast.Lt -> Lt
  | Ast.Le -> Le
  | Ast.Gt -> Gt
  | Ast.Ge -> Ge
  | _ -> assert false

(* Uncorrelated sub-queries are per-execution constants: a typed cell the
   interpreter fills once per execution through the reference evaluator. *)
let cell c (e : Ast.expr) =
  let ty =
    match Lq_expr.Typecheck.expr_type (Lazy.force c.tenv) ~env:[] e with
    | Vtype.Float -> F
    | (Vtype.Int | Vtype.Date | Vtype.Bool | Vtype.String) as ty -> I ty
    | Vtype.Record _ | Vtype.List _ ->
      unsupported "non-scalar sub-query result in native backend"
    | exception Lq_expr.Typecheck.Type_error msg ->
      unsupported "cannot type nested sub-query in native backend: %s" msg
  in
  c.cells <- { cell_ty = ty; eval = (fun ctx -> Lq_expr.Eval.expr ctx ~env:[] e) } :: c.cells;
  mk ty (Cell (List.length c.cells - 1))

let agg_outside c kind src sel =
  match src with
  | Ast.Subquery q when not (Ast.is_correlated q) -> cell c (Ast.Agg (kind, src, sel))
  | _ -> unsupported "aggregate outside a group (native)"

let compile c ~env ?(on_agg = agg_outside c) expr : expr =
  let rec go (e : Ast.expr) : expr =
    match e with
    | Ast.Const (Value.Int i) -> mk (I Vtype.Int) (Int_lit i)
    | Ast.Const (Value.Date d) -> mk (I Vtype.Date) (Int_lit d)
    | Ast.Const (Value.Bool b) -> mk B (Bool_lit b)
    | Ast.Const (Value.Float f) -> mk F (Float_lit f)
    | Ast.Const (Value.Str s) -> mk (I Vtype.String) (Reg (int_reg c (Str_const s)))
    | Ast.Const v -> unsupported "constant %s (native)" (Value.to_string v)
    | Ast.Param name -> param c name
    | Ast.Var name -> (
      match List.assoc_opt name env with
      | Some (Scalar e) -> e
      | Some (Row _ | Fields _) ->
        unsupported "whole-element use of %S (native backend needs scalars)" name
      | None -> unsupported "unbound variable %S (native)" name)
    | Ast.Member (Ast.Var name, field) -> (
      match List.assoc_opt name env with
      | Some (Row rel) -> (
        let layout = Hashtbl.find c.layouts rel in
        match Layout.field_index layout field with
        | Some col -> mk (col_ty (Layout.field_at layout col)) (Col (rel, col))
        | None -> unsupported "row has no member %S (native)" field)
      | Some (Fields fields) -> (
        match List.assoc_opt field fields with
        | Some e -> e
        | None -> unsupported "element has no member %S (native)" field)
      | Some (Scalar _) -> unsupported "member %S of a scalar (native)" field
      | None -> unsupported "unbound variable %S (native)" name)
    | Ast.Member (_, field) ->
      unsupported "nested member access .%s (flat native data only)" field
    | Ast.Unop (Ast.Neg, e) -> (
      match go e with
      | { ty = I Vtype.Int | F; _ } as e -> mk e.ty (Neg e)
      | _ -> unsupported "negation of non-numeric (native)")
    | Ast.Unop (Ast.Not, e) -> mk B (Not (as_bool (go e)))
    | Ast.Binop (Ast.And, a, b) ->
      let fa = as_bool (go a) in
      let fb = as_bool (go b) in
      mk B (And (fa, fb))
    | Ast.Binop (Ast.Or, a, b) ->
      let fa = as_bool (go a) in
      let fb = as_bool (go b) in
      mk B (Or (fa, fb))
    | Ast.Binop (op, a, b) ->
      let ta, tb = operands a b in
      binop op ta tb
    | Ast.If (cond, th, el) -> (
      let fc = as_bool (go cond) in
      let tt, te = operands th el in
      match (tt.ty, te.ty) with
      | I ty1, I ty2 when Vtype.equal ty1 ty2 -> mk tt.ty (If (fc, tt, te))
      | B, B -> mk B (If (fc, tt, te))
      | _ when numeric tt && numeric te ->
        let f1 = as_float tt and f2 = as_float te in
        mk F (If (fc, f1, f2))
      | _ -> unsupported "if branches of mismatched native types")
    | Ast.Call (f, args) -> call f args
    | Ast.Agg (kind, src, sel) -> on_agg kind src sel
    | Ast.Subquery q ->
      if Ast.is_correlated q then
        unsupported "correlated sub-query left by the decorrelation pass (native backend)"
      else cell c (Ast.Subquery q)
    | Ast.Record_of _ -> unsupported "object construction inside a native scalar expression"
  (* Two operands side by side. A parameter operand is read after the
     other one, beside its type, so its register is numbered where the
     operator reads it; of two parameters the right one is read first.
     That is the order the C tier's [ip]/[fp] arrays are packed in. *)
  and operands a b =
    match (a, b) with
    | Ast.Param pa, Ast.Param pb ->
      let tb = param c ~beside:(param_ty c pa) pb in
      (param c ~beside:tb.ty pa, tb)
    | Ast.Param pa, b ->
      let tb = go b in
      (param c ~beside:tb.ty pa, tb)
    | a, Ast.Param pb ->
      let ta = go a in
      (ta, param c ~beside:ta.ty pb)
    | a, b ->
      let ta = go a in
      (ta, go b)
  and binop op ta tb =
    match op with
    | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod -> (
      match (ta.ty, tb.ty) with
      | I Vtype.Int, I Vtype.Int -> mk (I Vtype.Int) (Arith (arith op, ta, tb))
      | _ when numeric ta && numeric tb ->
        let fa = as_float ta and fb = as_float tb in
        mk F (Arith (arith op, fa, fb))
      | _ ->
        unsupported "arithmetic on %s and %s (native)"
          (Vtype.to_string (vty ta.ty)) (Vtype.to_string (vty tb.ty)))
    | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (
      let compare order a b = mk B (Cmp (cmp op, order, a, b)) in
      match (ta.ty, tb.ty) with
      | I Vtype.String, I Vtype.String -> compare By_string ta tb
      | I ty1, I ty2 when Vtype.equal ty1 ty2 -> compare By_int ta tb
      | _ when numeric ta && numeric tb ->
        let fa = as_float ta and fb = as_float tb in
        compare By_float fa fb
      | (B | I Vtype.Bool), (B | I Vtype.Bool) -> compare By_bool (as_bool ta) (as_bool tb)
      | _ ->
        unsupported "comparison between %s and %s (native)"
          (Vtype.to_string (vty ta.ty)) (Vtype.to_string (vty tb.ty)))
    | Ast.And | Ast.Or -> assert false
  and call f args =
    let string_arg e =
      match go e with
      | { ty = I Vtype.String; _ } as e -> e
      | _ -> unsupported "expected a string-typed native expression"
    in
    match (f, args) with
    | (Ast.Starts_with | Ast.Ends_with | Ast.Contains | Ast.Like), [ subject; patt ] -> (
      let subject = string_arg subject in
      let lead, trail =
        match f with
        | Ast.Starts_with -> (false, true)
        | Ast.Ends_with -> (true, false)
        | Ast.Contains -> (true, true)
        | _ -> (false, false)
      in
      match patt with
      | Ast.Const (Value.Str s) ->
        let pattern = (if lead then "%" else "") ^ s ^ if trail then "%" else "" in
        mk B (Like (subject, pattern))
      | _ -> mk B (Like_param { subject; pattern = string_arg patt; lead; trail }))
    | Ast.Lower, [ e ] -> mk (I Vtype.String) (Case (`Lower, string_arg e))
    | Ast.Upper, [ e ] -> mk (I Vtype.String) (Case (`Upper, string_arg e))
    | Ast.Length, [ e ] -> mk (I Vtype.Int) (Length (string_arg e))
    | Ast.Abs, [ e ] -> (
      match go e with
      | { ty = I Vtype.Int | F; _ } as e -> mk e.ty (Abs e)
      | _ -> unsupported "Abs on non-numeric (native)")
    | Ast.Year, [ e ] -> (
      match go e with
      | { ty = I Vtype.Date; _ } as e -> mk (I Vtype.Int) (Year e)
      | _ -> unsupported "Year on non-date (native)")
    | Ast.Add_days, [ d; n ] -> (
      match (go d, go n) with
      | ({ ty = I Vtype.Date; _ } as d), ({ ty = I Vtype.Int; _ } as n) ->
        mk (I Vtype.Date) (Add_days (d, n))
      | _ -> unsupported "AddDays arguments (native)")
    | _, _ -> unsupported "call %s (native)" (Lq_expr.Pretty.func_name f)
  in
  go expr

(* --- plan lowering ----------------------------------------------------- *)

let bind1 (l : Ast.lambda) elem =
  match l.Ast.params with
  | [ p ] -> [ (p, elem) ]
  | _ -> unsupported "lambda arity (native)"

(* A key selector yields one or more typed fields (composite keys come
   from anonymous-type constructions). *)
let key_fields c ~env (body : Ast.expr) =
  match body with
  | Ast.Record_of fields -> List.map (fun (n, e) -> (n, compile c ~env e)) fields
  | e -> [ ("__val", compile c ~env e) ]

(* A selector body is a pending projection for an anonymous type, the
   bound element itself for a bare variable (identity selectors arise in
   join results that keep one side), or a scalar. *)
let elem_of_body c ~env (body : Ast.expr) =
  match body with
  | Ast.Record_of fields -> Fields (List.map (fun (n, e) -> (n, compile c ~env e)) fields)
  | Ast.Var name when List.mem_assoc name env -> List.assoc name env
  | e -> Scalar (compile c ~env e)

(* The single materialization point per loop segment (§4.2/§5.2): the
   element's fields become the columns of a fresh flat relation. A
   condition is stored as a 0/1 Bool column and reads back [I Bool]. *)
let spill c elem =
  let fields = fields_of (Hashtbl.find c.layouts) elem in
  let layout =
    try Layout.make (List.map (fun (n, e) -> (n, vty e.ty)) fields)
    with Invalid_argument msg -> unsupported "spill layout: %s" msg
  in
  { rel = new_rel c layout; cols = List.map snd fields }

(* Group-key references: [g.Key] becomes the synthetic variable [__gkey]
   so composite keys support [g.Key.f] chains. *)
let gkey_var = "__gkey"

let rec rewrite_gkey gvar (e : Ast.expr) : Ast.expr =
  match e with
  | Ast.Member (Ast.Var v, k) when String.equal v gvar && String.equal k Ast.group_key_field ->
    Ast.Var gkey_var
  | Ast.Const _ | Ast.Param _ | Ast.Var _ | Ast.Subquery _ -> e
  | Ast.Member (r, f) -> Ast.Member (rewrite_gkey gvar r, f)
  | Ast.Unop (op, e) -> Ast.Unop (op, rewrite_gkey gvar e)
  | Ast.Binop (op, a, b) -> Ast.Binop (op, rewrite_gkey gvar a, rewrite_gkey gvar b)
  | Ast.If (c, t, e) -> Ast.If (rewrite_gkey gvar c, rewrite_gkey gvar t, rewrite_gkey gvar e)
  | Ast.Call (f, args) -> Ast.Call (f, List.map (rewrite_gkey gvar) args)
  (* Aggregate sources stay (the hook matches on [Var g]); selector bodies
     cannot see [g]. *)
  | Ast.Agg _ -> e
  | Ast.Record_of fields -> Ast.Record_of (List.map (fun (n, e) -> (n, rewrite_gkey gvar e)) fields)

(* Index-scan rewriting (§9 "indexes"): a conjunct [src.col = closed-expr]
   directly over a catalog source on an indexed column can probe the hash
   index instead of scanning. *)
let index_probe c table (preds : P.pred list) (conds : expr list) =
  match Catalog.table c.cat table with
  | exception _ -> None
  | tbl ->
    let closed e = Ast.free_vars e = [] in
    let indexed_eq (pr : P.pred) =
      match (pr.P.lambda.Ast.params, pr.P.lambda.Ast.body) with
      | [ pvar ], Ast.Binop (Ast.Eq, Ast.Member (Ast.Var v, col), key)
        when String.equal v pvar && closed key && Catalog.index tbl col <> None ->
        Some (Option.get (Catalog.index tbl col), `Right)
      | [ pvar ], Ast.Binop (Ast.Eq, key, Ast.Member (Ast.Var v, col))
        when String.equal v pvar && closed key && Catalog.index tbl col <> None ->
        Some (Option.get (Catalog.index tbl col), `Left)
      | _ -> None
    in
    let rec find i preds conds =
      match (preds, conds) with
      | pr :: preds, cond :: conds -> (
        match (indexed_eq pr, cond.node) with
        | Some (index, side), Cmp (Eq, _, a, b) ->
          Some { index; conjunct = i; key = (if side = `Right then b else a) }
        | _ -> find (i + 1) preds conds)
      | _ -> None
    in
    find 0 preds conds

let make_acc c elem_in (kind : Ast.agg) (sel : Ast.lambda option) =
  let selected () =
    match sel with
    | None -> (
      match fields_of (Hashtbl.find c.layouts) elem_in with
      | [ (_, e) ] -> e
      | _ -> unsupported "aggregate without selector over a row (native)")
    | Some (l : Ast.lambda) -> (
      match l.Ast.params with
      | [ p ] -> compile c ~env:[ (p, elem_in) ] l.Ast.body
      | _ -> unsupported "aggregate selector arity (native)")
  in
  match kind with
  | Ast.Count -> Count
  | Ast.Sum -> (
    match selected () with
    | { ty = F | I Vtype.Int; _ } as e -> Sum e
    | _ -> unsupported "Sum over non-numeric (native)")
  | Ast.Avg -> Avg (as_float (selected ()))
  | Ast.Min | Ast.Max ->
    let arg = selected () in
    let order =
      match arg.ty with
      | F -> By_float
      | I Vtype.String -> By_string
      | I _ -> By_int
      | B -> unsupported "Min/Max over bool (native)"
    in
    Min_max { max = kind = Ast.Max; arg; order }

let acc_ty = function
  | Count -> I Vtype.Int
  | Sum e | Min_max { arg = e; _ } -> e.ty
  | Avg _ -> F

(* [gen] returns an operator's output element at once and its loop as a
   thunk: filter conjuncts are typed when the thunk runs, innermost loop
   first and a join's build side before its probe side — the order the
   C tier prints them, which fixes the register numbering. *)
let rec gen c (p : P.t) : elem * (unit -> loop) =
  match p.P.op with
  | P.Scan s ->
    let store, staged =
      match c.staged s.P.table with
      | Some store -> (store, true)
      | None -> (Catalog.store (Catalog.table c.cat s.P.table), false)
    in
    let rel = new_rel c (Rowstore.layout store) in
    (Row rel, fun () -> Scan { rel; table = s.P.table; store; staged })
  | P.Filter (input, preds) ->
    let elem, build = gen c input in
    ( elem,
      fun () ->
        let input' = build () in
        let conds =
          List.map
            (fun (pr : P.pred) ->
              as_bool (compile c ~env:(bind1 pr.P.lambda elem) pr.P.lambda.Ast.body))
            preds
        in
        let probe =
          match (input', input.P.op) with
          | Scan { staged = false; _ }, P.Scan s -> index_probe c s.P.table preds conds
          | _ -> None
        in
        Filter { input = input'; preds = conds; probe } )
  | P.Project (input, sel) ->
    let elem, build = gen c input in
    (elem_of_body c ~env:(bind1 sel elem) sel.Ast.body, build)
  | P.Join { left; right; left_key; right_key; result; strategy = _ } ->
    (* Always a hash join; the plan's nested-loop hint (an ablation option
       for the managed backend) is ignored. *)
    let lelem, lbuild = gen c left in
    let relem, rbuild = gen c right in
    let rkey = List.map snd (key_fields c ~env:(bind1 right_key relem) right_key.Ast.body) in
    let lkey = List.map snd (key_fields c ~env:(bind1 left_key lelem) left_key.Ast.body) in
    let floats keys = List.length (List.filter (fun e -> e.ty = F) keys) in
    if List.length lkey <> List.length rkey || floats lkey <> floats rkey then
      unsupported "join key arity mismatch (native)";
    let build = spill c relem in
    let renv =
      match result.Ast.params with
      | [ pl; pr ] -> [ (pl, lelem); (pr, Row build.rel) ]
      | _ -> unsupported "join result arity (native)"
    in
    let elem = elem_of_body c ~env:renv result.Ast.body in
    ( elem,
      fun () ->
        let right = rbuild () in
        let left = lbuild () in
        Join { left; right; lkey; rkey; build } )
  | P.Aggregate a -> gen_group c a
  | P.Sort (input, keys) -> gen_sort c input keys None
  | P.Top_k { input; keys; limit } ->
    let limit = as_int (compile c ~env:[] limit) in
    gen_sort c input keys (Some limit)
  | P.Limit (input, n) ->
    let elem, build = gen c input in
    let n = as_int (compile c ~env:[] n) in
    (elem, fun () -> Limit (build (), n))
  | P.Offset (input, n) ->
    let elem, build = gen c input in
    let n = as_int (compile c ~env:[] n) in
    (elem, fun () -> Offset (build (), n))
  | P.Distinct input ->
    let elem, build = gen c input in
    let keys = List.map snd (fields_of (Hashtbl.find c.layouts) elem) in
    (elem, fun () -> Distinct (build (), keys))

and gen_group c (a : P.aggregate) =
  let elem_in, build_in = gen c a.P.input in
  let result =
    match a.P.group_result with
    | Some r -> r
    | None -> unsupported "GroupBy without result selector: group objects are not flat (native)"
  in
  let gvar =
    match result.Ast.params with
    | [ p ] -> p
    | _ -> unsupported "group result arity (native)"
  in
  if not a.P.fused then unsupported "unfused aggregation (the native backend always fuses)";
  let key = key_fields c ~env:(bind1 a.P.key elem_in) a.P.key.Ast.body in
  let g = c.ngroups in
  c.ngroups <- g + 1;
  let key_read i (_, e) = mk e.ty (Key (g, i)) in
  let key_elem =
    match (a.P.key.Ast.body, key) with
    | Ast.Record_of _, _ -> Fields (List.mapi (fun i ((n, _) as k) -> (n, key_read i k)) key)
    | _, k :: _ -> Scalar (key_read 0 k)
    | _, [] -> assert false
  in
  (* The plan's registry fixes the deduplicated accumulator set and the
     accumulator read by each aggregate occurrence of the result. *)
  let reg = P.Registry.of_aggregate a in
  let accs =
    Array.init (P.Registry.length reg) (fun i ->
        let s = P.Registry.spec reg i in
        make_acc c elem_in s.P.agg s.P.sel)
  in
  let on_agg kind src sel =
    match src with
    | Ast.Var v when String.equal v gvar ->
      let i = P.Registry.next reg kind sel in
      mk (acc_ty accs.(i)) (Acc (g, i))
    | Ast.Subquery _ -> agg_outside c kind src sel
    | _ -> unsupported "aggregate source (native)"
  in
  let env = [ (gkey_var, key_elem) ] in
  let elem =
    match rewrite_gkey gvar result.Ast.body with
    | Ast.Record_of fields ->
      Fields (List.map (fun (n, e) -> (n, compile c ~env ~on_agg e)) fields)
    | e -> Scalar (compile c ~env ~on_agg e)
  in
  (elem, fun () -> Group { id = g; input = build_in (); key = List.map snd key; accs })

and gen_sort c input keys limit =
  let elem_in, build_in = gen c input in
  let spill = spill c elem_in in
  let keys =
    List.map
      (fun (k : Ast.sort_key) ->
        let key = compile c ~env:(bind1 k.Ast.by elem_in) k.Ast.by.Ast.body in
        let order =
          match key.ty with
          | F -> By_float
          | I Vtype.String -> By_string
          | _ -> By_int
        in
        { by = key; order; desc = k.Ast.dir = Ast.Desc })
      keys
  in
  (Row spill.rel, fun () -> Sort { input = build_in (); spill; keys; limit })

let lower ?(staged = fun _ -> None) cat ~params (plan : P.t) : t =
  let c =
    {
      cat;
      staged;
      params;
      tenv = lazy (Catalog.tenv cat ~params);
      iregs = [];
      fregs = [];
      layouts = Hashtbl.create 8;
      cells = [];
      ngroups = 0;
    }
  in
  let out, build = gen c plan in
  let root = build () in
  {
    cat;
    root;
    out;
    rels = Array.init (Hashtbl.length c.layouts) (Hashtbl.find c.layouts);
    int_regs = Array.of_list (List.rev_map fst c.iregs);
    float_regs = Array.of_list (List.rev_map fst c.fregs);
    cells = Array.of_list (List.rev c.cells);
  }
