open Lq_value
module Ast = Lq_expr.Ast
module Eval = Lq_expr.Eval
module Catalog = Lq_catalog.Catalog
module Engine_intf = Lq_catalog.Engine_intf
module Colstore = Lq_storage.Colstore
module Rowstore = Lq_storage.Rowstore
module Selvec = Lq_storage.Selvec
module Layout = Lq_storage.Layout
module Dict = Lq_storage.Dict
module P = Lq_plan.Plan

let unsupported = Engine_intf.unsupported
let vector_size = 1024

(* Dense typed vectors; integer vectors carry the host type they decode to
   (int / date / bool / dictionary-coded string). Scan-resident columns
   stay *encoded* ([CE]) until an operator gathers them: predicates probe
   the encoding directly (once per dictionary entry / RLE run) and only
   the surviving rows are ever decoded. The [plain] cell memoizes a full
   decode within one execution (the dataset is per-execute, so the
   mutation is Domain-safe). *)
type col =
  | CI of int array * Vtype.t
  | CF of float array
  | CE of ecol

and ecol = {
  data : Colstore.data;
  ty : Vtype.t;
  mutable plain : col option;
}

(* A named-column relation plus an optional selection vector. *)
type rel = { n : int; cols : (string * col) list }

type dataset = { rel : rel; sel : Selvec.t option }

let ds_len ds = match ds.sel with Some s -> Selvec.length s | None -> ds.rel.n

let decode_full (e : ecol) : col =
  match e.plain with
  | Some c -> c
  | None ->
    let c =
      match e.data with
      | Colstore.Floats _ | Colstore.Dict_floats _ ->
        CF (Colstore.decode_floats e.data)
      | _ -> CI (Colstore.decode_ints e.data, e.ty)
    in
    e.plain <- Some c;
    c

let rec gather c (sel : Selvec.t option) =
  match (c, sel) with
  | CE e, None -> decode_full e
  | CE ({ plain = Some c; _ }), Some _ -> gather c sel
  | CE e, Some s -> (
    match e.data with
    | Colstore.Floats _ | Colstore.Dict_floats _ ->
      CF (Array.map (Colstore.get_float_at e.data) (Selvec.to_array s))
    | _ -> CI (Array.map (Colstore.get_int_at e.data) (Selvec.to_array s), e.ty))
  | _, None -> c
  | CI (a, ty), Some s -> CI (Array.map (fun i -> a.(i)) (Selvec.to_array s), ty)
  | CF a, Some s -> CF (Array.map (fun i -> a.(i)) (Selvec.to_array s))

let rel_of_colstore ?(fields = None) cs =
  let layout = Colstore.layout cs in
  {
    n = Colstore.length cs;
    cols =
      Array.to_list (Layout.fields layout)
      |> List.filteri (fun _ (f : Layout.field) ->
             match fields with
             | None -> true
             | Some fs -> List.mem f.Layout.name fs)
      |> List.map (fun (f : Layout.field) ->
             let i = Layout.field_index_exn layout f.Layout.name in
             ( f.Layout.name,
               CE { data = Colstore.column cs i; ty = f.Layout.vty; plain = None } ));
  }

let find_col rel name =
  match List.assoc_opt name rel.cols with
  | Some c -> c
  | None -> unsupported "vectorized: unknown column %S" name

(* ---------- Vectorized expression evaluation ---------- *)

type vctx = {
  dict : Dict.t;
  params : (string * Value.t) list;
  eval_ctx : Eval.ctx;
}

let encode_const vc (v : Value.t) : [ `I of int * Vtype.t | `F of float ] =
  match v with
  | Value.Int i -> `I (i, Vtype.Int)
  | Value.Date d -> `I (d, Vtype.Date)
  | Value.Bool b -> `I ((if b then 1 else 0), Vtype.Bool)
  | Value.Str s -> `I (Dict.intern vc.dict s, Vtype.String)
  | Value.Float f -> `F f
  | other -> unsupported "vectorized constant %s" (Value.to_string other)

let broadcast vc n v =
  match encode_const vc v with
  | `I (i, ty) -> CI (Array.make n i, ty)
  | `F f -> CF (Array.make n f)

let rec to_float_arr = function
  | CF a -> a
  | CI (a, Vtype.Int) -> Array.map float_of_int a
  | CI (_, ty) -> unsupported "vectorized: %s as float" (Vtype.to_string ty)
  | CE e -> to_float_arr (decode_full e)

let bool_arr = function
  | CI (a, Vtype.Bool) -> a
  | _ -> unsupported "vectorized: expected bool vector"

(* [env] binds lambda variables to datasets of identical length. *)
let rec veval vc ~(env : (string * dataset) list)
    ?(on_agg = fun _ _ _ -> (None : col option)) ~n (e : Ast.expr) : col =
  let recur e = veval vc ~env ~on_agg ~n e in
  match e with
  | Ast.Const v -> broadcast vc n v
  | Ast.Param p -> (
    match List.assoc_opt p vc.params with
    | Some v -> broadcast vc n v
    | None -> Lq_catalog.Engine_intf.execution_failed "unbound parameter %S" p)
  | Ast.Var _ -> unsupported "vectorized: whole-element variable use"
  | Ast.Member (Ast.Var v, field) -> (
    match List.assoc_opt v env with
    | Some ds -> gather (find_col ds.rel field) ds.sel
    | None -> unsupported "vectorized: unbound variable %S" v)
  | Ast.Member (_, f) -> unsupported "vectorized: nested member .%s" f
  | Ast.Unop (Ast.Neg, e) -> (
    match recur e with
    | CI (a, Vtype.Int) -> CI (Array.map (fun x -> -x) a, Vtype.Int)
    | CF a -> CF (Array.map (fun x -> -.x) a)
    | _ -> unsupported "vectorized negation")
  | Ast.Unop (Ast.Not, e) ->
    CI (Array.map (fun x -> 1 - x) (bool_arr (recur e)), Vtype.Bool)
  | Ast.Binop (Ast.And, a, b) ->
    let xa = bool_arr (recur a) and xb = bool_arr (recur b) in
    CI (Array.init n (fun i -> xa.(i) land xb.(i)), Vtype.Bool)
  | Ast.Binop (Ast.Or, a, b) ->
    let xa = bool_arr (recur a) and xb = bool_arr (recur b) in
    CI (Array.init n (fun i -> xa.(i) lor xb.(i)), Vtype.Bool)
  | Ast.Binop (op, a, b) -> binop vc op (recur a) (recur b) n
  | Ast.If (c, t, e) -> (
    let cv = bool_arr (recur c) in
    match (recur t, recur e) with
    | CI (ta, ty), CI (ea, _) ->
      CI (Array.init n (fun i -> if cv.(i) <> 0 then ta.(i) else ea.(i)), ty)
    | (CF _ as tc), (CF _ as ec) | (CF _ as tc), (CI (_, Vtype.Int) as ec)
    | (CI (_, Vtype.Int) as tc), (CF _ as ec) ->
      let ta = to_float_arr tc and ea = to_float_arr ec in
      CF (Array.init n (fun i -> if cv.(i) <> 0 then ta.(i) else ea.(i)))
    | _ -> unsupported "vectorized if branches")
  | Ast.Call (f, args) -> call vc f (List.map recur args) n
  | Ast.Agg (kind, src, sel) -> (
    match on_agg kind src sel with
    | Some c -> c
    | None -> (
      match src with
      | Ast.Subquery q when not (Ast.is_correlated q) ->
        broadcast vc n (Eval.expr vc.eval_ctx ~env:[] e)
      | _ -> unsupported "vectorized aggregate outside a group"))
  | Ast.Subquery q ->
    if Ast.is_correlated q then unsupported "correlated sub-query left by the decorrelation pass (vectorwise)"
    else broadcast vc n (Eval.expr vc.eval_ctx ~env:[] (Ast.Subquery q))
  | Ast.Record_of _ -> unsupported "vectorized nested record construction"

and binop vc op a b n =
  let cmp_mask test =
    match (a, b) with
    | CI (xa, Vtype.String), CI (xb, Vtype.String)
      when not (op = Ast.Eq || op = Ast.Ne) ->
      CI
        ( Array.init n (fun i ->
              if test (String.compare (Dict.get vc.dict xa.(i)) (Dict.get vc.dict xb.(i)))
              then 1
              else 0),
          Vtype.Bool )
    | CI (xa, _), CI (xb, _) ->
      CI
        (Array.init n (fun i -> if test (Int.compare xa.(i) xb.(i)) then 1 else 0),
          Vtype.Bool )
    | _ ->
      let xa = to_float_arr a and xb = to_float_arr b in
      CI
        ( Array.init n (fun i -> if test (Float.compare xa.(i) xb.(i)) then 1 else 0),
          Vtype.Bool )
  in
  match op with
  | Ast.Eq -> cmp_mask (fun c -> c = 0)
  | Ast.Ne -> cmp_mask (fun c -> c <> 0)
  | Ast.Lt -> cmp_mask (fun c -> c < 0)
  | Ast.Le -> cmp_mask (fun c -> c <= 0)
  | Ast.Gt -> cmp_mask (fun c -> c > 0)
  | Ast.Ge -> cmp_mask (fun c -> c >= 0)
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod -> (
    match (a, b) with
    | CI (xa, Vtype.Int), CI (xb, Vtype.Int) ->
      let f =
        match op with
        | Ast.Add -> ( + )
        | Ast.Sub -> ( - )
        | Ast.Mul -> ( * )
        | Ast.Div -> ( / )
        | _ -> fun a b -> a mod b
      in
      CI (Array.init n (fun i -> f xa.(i) xb.(i)), Vtype.Int)
    | _ ->
      let xa = to_float_arr a and xb = to_float_arr b in
      let f =
        match op with
        | Ast.Add -> ( +. )
        | Ast.Sub -> ( -. )
        | Ast.Mul -> ( *. )
        | Ast.Div -> ( /. )
        | _ -> fun a b -> Float.rem a b
      in
      CF (Array.init n (fun i -> f xa.(i) xb.(i))))
  | Ast.And | Ast.Or -> assert false

and call vc f args n =
  let str_arg = function
    | CI (a, Vtype.String) -> fun i -> Dict.get vc.dict a.(i)
    | _ -> unsupported "vectorized: expected string vector"
  in
  match (f, args) with
  | (Ast.Starts_with | Ast.Ends_with | Ast.Contains | Ast.Like), [ s; p ] ->
    let fs = str_arg s and fp = str_arg p in
    let wrap pat =
      match f with
      | Ast.Starts_with -> pat ^ "%"
      | Ast.Ends_with -> "%" ^ pat
      | Ast.Contains -> "%" ^ pat ^ "%"
      | _ -> pat
    in
    CI
      ( Array.init n (fun i ->
            if Lq_expr.Scalar.like_match ~pattern:(wrap (fp i)) (fs i) then 1 else 0),
        Vtype.Bool )
  | Ast.Lower, [ s ] ->
    let fs = str_arg s in
    CI
      ( Array.init n (fun i -> Dict.intern vc.dict (String.lowercase_ascii (fs i))),
        Vtype.String )
  | Ast.Upper, [ s ] ->
    let fs = str_arg s in
    CI
      ( Array.init n (fun i -> Dict.intern vc.dict (String.uppercase_ascii (fs i))),
        Vtype.String )
  | Ast.Length, [ s ] ->
    let fs = str_arg s in
    CI (Array.init n (fun i -> String.length (fs i)), Vtype.Int)
  | Ast.Abs, [ x ] -> (
    match x with
    | CI (a, Vtype.Int) -> CI (Array.map abs a, Vtype.Int)
    | CF a -> CF (Array.map Float.abs a)
    | _ -> unsupported "vectorized Abs")
  | Ast.Year, [ d ] -> (
    match d with
    | CI (a, Vtype.Date) -> CI (Array.map Lq_value.Date.year a, Vtype.Int)
    | _ -> unsupported "vectorized Year")
  | Ast.Add_days, [ d; k ] -> (
    match (d, k) with
    | CI (a, Vtype.Date), CI (b, Vtype.Int) ->
      CI (Array.init n (fun i -> a.(i) + b.(i)), Vtype.Date)
    | _ -> unsupported "vectorized AddDays")
  | _ -> unsupported "vectorized call %s" (Lq_expr.Pretty.func_name f)

(* ---------- Key hashing over composite integer images ---------- *)

(* A float's 64 bits do not fit one 63-bit int, so float key columns
   contribute two integer image columns. *)
let rec key_images = function
  | CE e -> key_images (decode_full e)
  | CI (a, _) -> [ a ]
  | CF a ->
    [
      Array.map
        (fun f -> Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float f) 32))
        a;
      Array.map (fun f -> Int64.to_int (Int64.logand (Int64.bits_of_float f) 0xFFFFFFFFL)) a;
    ]

(* Dense slot assignment per row over one or more key columns. *)
let slots_of_keys (parts : int array list) n =
  let tbl = Hashtbl.create 1024 in
  let slots = Array.make n 0 in
  let count = ref 0 in
  for i = 0 to n - 1 do
    let key = List.map (fun p -> p.(i)) parts in
    match Hashtbl.find_opt tbl key with
    | Some s -> slots.(i) <- s
    | None ->
      Hashtbl.add tbl key !count;
      slots.(i) <- !count;
      incr count
  done;
  (slots, !count, tbl)

(* ---------- Operator compilation (column-at-a-time) ---------- *)

let rewrite_gkey gvar body =
  let rec rw (e : Ast.expr) : Ast.expr =
    match e with
    | Ast.Member (Ast.Var v, k)
      when String.equal v gvar && String.equal k Ast.group_key_field ->
      Ast.Var "__gkey"
    | Ast.Const _ | Ast.Param _ | Ast.Var _ -> e
    | Ast.Member (r, f) -> Ast.Member (rw r, f)
    | Ast.Unop (op, e) -> Ast.Unop (op, rw e)
    | Ast.Binop (op, a, b) -> Ast.Binop (op, rw a, rw b)
    | Ast.If (a, b, c) -> Ast.If (rw a, rw b, rw c)
    | Ast.Call (f, args) -> Ast.Call (f, List.map rw args)
    | Ast.Agg _ | Ast.Subquery _ -> e
    | Ast.Record_of fields -> Ast.Record_of (List.map (fun (n, e) -> (n, rw e)) fields)
  in
  rw body

let scalar_field = "__val"

let rec run vc cat (p : P.t) : dataset =
  match p.P.op with
  | P.Scan s ->
    (* Implicit projection from the shared demand analysis: expose only
       the columns downstream operators read, still encoded. *)
    let rel =
      rel_of_colstore ~fields:s.P.fields (Catalog.cols (Catalog.table cat s.P.table))
    in
    { rel; sel = None }
  | P.Filter (input, preds) ->
    (* Conjuncts arrive cost-ordered from the plan; each narrows the
       selection vector before the next (more expensive) one runs. *)
    List.fold_left (apply_pred vc) (run vc cat input) preds
  | P.Project (input, sel) -> (
    let ds = run vc cat input in
    let n = ds_len ds in
    match sel.Ast.params with
    | [ p ] ->
      let env = [ (p, ds) ] in
      (match sel.Ast.body with
      | Ast.Var x when String.equal x p -> ds
      | Ast.Record_of fields ->
        { rel =
            { n;
              cols = List.map (fun (fname, e) -> (fname, veval vc ~env ~n e)) fields };
          sel = None }
      | e -> { rel = { n; cols = [ (scalar_field, veval vc ~env ~n e) ] }; sel = None })
    | _ -> unsupported "vectorized select arity")
  | P.Join { P.left; right; left_key; right_key; result; strategy = _ } ->
    (* The only vectorized join is the positional hash join below, so the
       plan's strategy hint is moot. *)
    let lds = run vc cat left and rds = run vc cat right in
    let ln = ds_len lds and rn = ds_len rds in
    let key_cols ds (l : Ast.lambda) n =
      match (l.Ast.params, l.Ast.body) with
      | [ p ], Ast.Record_of fields ->
        List.concat_map (fun (_, e) -> key_images (veval vc ~env:[ (p, ds) ] ~n e)) fields
      | [ p ], e -> key_images (veval vc ~env:[ (p, ds) ] ~n e)
      | _ -> unsupported "vectorized join key"
    in
    let lkeys = key_cols lds left_key ln and rkeys = key_cols rds right_key rn in
    (* Build: key -> right positions (in order). *)
    let tbl = Hashtbl.create (max 16 rn) in
    for i = rn - 1 downto 0 do
      let key = List.map (fun p -> p.(i)) rkeys in
      let tail = Option.value (Hashtbl.find_opt tbl key) ~default:[] in
      Hashtbl.replace tbl key (i :: tail)
    done;
    let lpos = ref [] and rpos = ref [] and count = ref 0 in
    for i = 0 to ln - 1 do
      let key = List.map (fun p -> p.(i)) lkeys in
      match Hashtbl.find_opt tbl key with
      | None -> ()
      | Some matches ->
        List.iter
          (fun j ->
            lpos := i :: !lpos;
            rpos := j :: !rpos;
            incr count)
          matches
    done;
    let lpos = Array.of_list (List.rev !lpos) in
    let rpos = Array.of_list (List.rev !rpos) in
    let compose ds pos = Selvec.compose ds.sel (Selvec.of_array pos) in
    let ldsel = { rel = lds.rel; sel = Some (compose lds lpos) } in
    let rdsel = { rel = rds.rel; sel = Some (compose rds rpos) } in
    let n = Array.length lpos in
    (match result.Ast.params with
    | [ pl; pr ] -> (
      let env = [ (pl, ldsel); (pr, rdsel) ] in
      match result.Ast.body with
      | Ast.Var x when String.equal x pl -> ldsel
      | Ast.Var x when String.equal x pr -> rdsel
      | Ast.Record_of fields ->
        { rel =
            { n;
              cols = List.map (fun (fname, e) -> (fname, veval vc ~env ~n e)) fields };
          sel = None }
      | e -> { rel = { n; cols = [ (scalar_field, veval vc ~env ~n e) ] }; sel = None })
    | _ -> unsupported "vectorized join result arity")
  | P.Aggregate a -> (
    let ds = run vc cat a.P.input in
    let n = ds_len ds in
    let result =
      match a.P.group_result with
      | Some r -> r
      | None -> unsupported "vectorized GroupBy without result selector"
    in
    let kparam =
      match a.P.key.Ast.params with
      | [ p ] -> p
      | _ -> unsupported "vectorized group key arity"
    in
    let gvar =
      match result.Ast.params with
      | [ p ] -> p
      | _ -> unsupported "vectorized group result arity"
    in
    let env = [ (kparam, ds) ] in
    let key_fields =
      match a.P.key.Ast.body with
      | Ast.Record_of fields ->
        List.map (fun (fname, e) -> (fname, veval vc ~env ~n e)) fields
      | e -> [ (scalar_field, veval vc ~env ~n e) ]
    in
    let slots, ngroups, _ =
      slots_of_keys (List.concat_map (fun (_, c) -> key_images c) key_fields) n
    in
    (* First-occurrence gather positions per group. *)
    let first = Array.make ngroups (-1) in
    for i = n - 1 downto 0 do
      first.(slots.(i)) <- i
    done;
    let gkey_rel =
      {
        n = ngroups;
        cols =
          List.map
            (fun (fname, c) -> (fname, gather c (Some (Selvec.of_array first))))
            key_fields;
      }
    in
    let counts = Array.make ngroups 0 in
    for i = 0 to n - 1 do
      counts.(slots.(i)) <- counts.(slots.(i)) + 1
    done;
    (* Vectorized aggregate primitives over the slot vector: one column
       per deduplicated accumulator of the plan's registry, computed
       eagerly in registry order. *)
    if not a.P.fused then
      unsupported "vectorized unfused aggregation (the plan must fuse)";
    let reg = P.Registry.of_aggregate a in
    let compute_acc kind (sel : Ast.lambda option) : col =
      let selected =
        match sel with
        | None -> (
          (* Only Count may omit the selector over row elements. *)
          match kind with
          | Ast.Count -> CI (Array.make 0 0, Vtype.Int)
          | _ -> unsupported "vectorized aggregate without selector")
        | Some (l : Ast.lambda) -> (
          match l.Ast.params with
          | [ p ] -> veval vc ~env:[ (p, ds) ] ~n l.Ast.body
          | _ -> unsupported "vectorized aggregate selector arity")
      in
      match (kind, selected) with
            | Ast.Count, _ -> CI (Array.copy counts, Vtype.Int)
            | Ast.Sum, CI (a, Vtype.Int) ->
              let acc = Array.make ngroups 0 in
              for i = 0 to n - 1 do
                acc.(slots.(i)) <- acc.(slots.(i)) + a.(i)
              done;
              CI (acc, Vtype.Int)
            | Ast.Sum, CF a ->
              let acc = Array.make ngroups 0.0 in
              for i = 0 to n - 1 do
                acc.(slots.(i)) <- acc.(slots.(i)) +. a.(i)
              done;
              CF acc
            | Ast.Avg, sel_col ->
              let a = to_float_arr sel_col in
              let acc = Array.make ngroups 0.0 in
              for i = 0 to n - 1 do
                acc.(slots.(i)) <- acc.(slots.(i)) +. a.(i)
              done;
              CF (Array.init ngroups (fun g -> acc.(g) /. float_of_int counts.(g)))
            | (Ast.Min | Ast.Max), CI (a, Vtype.String) ->
              (* Dictionary codes are not order-preserving: compare the
                 decoded strings. *)
              let sign = match kind with Ast.Min -> -1 | _ -> 1 in
              let acc = Array.make ngroups 0 in
              let seen = Array.make ngroups false in
              for i = 0 to n - 1 do
                let g = slots.(i) in
                if
                  (not seen.(g))
                  || sign
                     * String.compare (Dict.get vc.dict a.(i)) (Dict.get vc.dict acc.(g))
                     > 0
                then begin
                  acc.(g) <- a.(i);
                  seen.(g) <- true
                end
              done;
              CI (acc, Vtype.String)
            | (Ast.Min | Ast.Max), CI (a, ty) ->
              let better =
                match kind with Ast.Min -> ( < ) | _ -> ( > )
              in
              let acc = Array.make ngroups 0 in
              let seen = Array.make ngroups false in
              for i = 0 to n - 1 do
                let g = slots.(i) in
                if (not seen.(g)) || better a.(i) acc.(g) then begin
                  acc.(g) <- a.(i);
                  seen.(g) <- true
                end
              done;
              CI (acc, ty)
            | (Ast.Min | Ast.Max), CF a ->
              let better =
                match kind with Ast.Min -> ( < ) | _ -> ( > )
              in
              let acc = Array.make ngroups 0.0 in
              let seen = Array.make ngroups false in
              for i = 0 to n - 1 do
                let g = slots.(i) in
                if (not seen.(g)) || better a.(i) acc.(g) then begin
                  acc.(g) <- a.(i);
                  seen.(g) <- true
                end
              done;
              CF acc
            | Ast.Sum, _ -> unsupported "vectorized Sum over non-numeric"
            | _, CE _ -> assert false (* veval materializes *)
    in
    let accs =
      Array.init (P.Registry.length reg) (fun i ->
          let s = P.Registry.spec reg i in
          compute_acc s.P.agg s.P.sel)
    in
    let on_agg kind src (sel : Ast.lambda option) =
      match src with
      | Ast.Var v when String.equal v gvar ->
        Some accs.(P.Registry.next reg kind sel)
      | _ -> None
    in
    let gkey_ds = { rel = gkey_rel; sel = None } in
    let body = rewrite_gkey gvar result.Ast.body in
    (* A scalar key arrives as a bare [Var __gkey]: route it through the
       single key column. *)
    let body =
      match gkey_rel.cols with
      | [ (f, _) ] when String.equal f scalar_field ->
        Ast.subst [ ("__gkey", Ast.Member (Ast.Var "__gkey", scalar_field)) ] body
      | _ -> body
    in
    let genv = [ ("__gkey", gkey_ds) ] in
    let eval_field e = veval vc ~env:genv ~on_agg ~n:ngroups e in
    match body with
    | Ast.Record_of fields ->
      {
        rel =
          { n = ngroups; cols = List.map (fun (fname, e) -> (fname, eval_field e)) fields };
        sel = None;
      }
    | e -> { rel = { n = ngroups; cols = [ (scalar_field, eval_field e) ] }; sel = None })
  | P.Sort (input, keys) -> sort_ds vc cat input keys
  | P.Top_k { input; keys; limit } ->
    (* No bounded-heap primitive here: sort the selection vector, then
       truncate it — the fusion still spares the boxed intermediate. *)
    take vc (sort_ds vc cat input keys) limit
  | P.Limit (input, k) -> take vc (run vc cat input) k
  | P.Offset (input, k) ->
    let ds = run vc cat input in
    let n = ds_len ds in
    let k = Value.to_int (Eval.expr vc.eval_ctx ~env:[] k) in
    let k = max 0 (min k n) in
    let sel =
      Selvec.init (n - k) (fun i ->
          match ds.sel with Some s -> Selvec.get s (i + k) | None -> i + k)
    in
    { rel = ds.rel; sel = Some sel }
  | P.Distinct input ->
    let ds = run vc cat input in
    let n = ds_len ds in
    let parts =
      List.concat_map (fun (_, c) -> key_images (gather c ds.sel)) ds.rel.cols
    in
    let slots, ngroups, _ = slots_of_keys parts n in
    let seen = Array.make ngroups false in
    let keep = ref [] in
    for i = 0 to n - 1 do
      if not seen.(slots.(i)) then begin
        seen.(slots.(i)) <- true;
        keep := i :: !keep
      end
    done;
    let sel =
      Selvec.of_array
        (Array.of_list
           (List.rev_map
              (fun i -> match ds.sel with Some s -> Selvec.get s i | None -> i)
              !keep))
    in
    { rel = ds.rel; sel = Some sel }

and apply_pred vc ds (pred : P.pred) =
  match probe_pred vc ds pred with
  | Some sel -> { rel = ds.rel; sel = Some sel }
  | None -> (
    let n = ds_len ds in
    match pred.P.lambda.Ast.params with
    | [ p ] ->
      let mask = bool_arr (veval vc ~env:[ (p, ds) ] ~n pred.P.lambda.Ast.body) in
      { rel = ds.rel; sel = Some (Selvec.of_mask ?base:ds.sel mask) }
    | _ -> unsupported "vectorized filter arity")

(* Encoding-aware predicate pushdown. A single-column predicate over a
   dictionary-encoded column is evaluated once per *distinct value* (a
   K-row mini-dataset through the ordinary vectorized kernels), then the
   packed code vector is scanned against the kept-code mask; over an RLE
   column it is evaluated once per *run*, and unselected scans emit the
   kept runs as whole ranges. Either way no decoded column of length n
   is ever materialized. *)
and probe_pred vc ds (pred : P.pred) : Selvec.t option =
  let single_field (l : Ast.lambda) =
    match l.Ast.params with
    | [ p ] -> (
      let paths = Lq_expr.Paths.of_expr ~var:p l.Ast.body in
      match paths with
      | [] -> None
      | _ -> (
        match List.sort_uniq compare paths with
        | [ [ f ] ] -> Some (p, f)
        | _ -> None))
    | _ -> None
  in
  match single_field pred.P.lambda with
  | None -> None
  | Some (p, f) -> (
    match List.assoc_opt f ds.rel.cols with
    | Some (CE ({ plain = None; _ } as e)) -> (
      let body = pred.P.lambda.Ast.body in
      (* Evaluate the predicate over a K-row dataset holding only the
         distinct values, reusing the ordinary kernels. *)
      let keep_mask (values : col) k =
        let mini = { rel = { n = k; cols = [ (f, values) ] }; sel = None } in
        bool_arr (veval vc ~env:[ (p, mini) ] ~n:k body)
      in
      match e.data with
      | Colstore.Dict_ints { codes; values } ->
        let mask = keep_mask (CI (values, e.ty)) (Array.length values) in
        let keep row = mask.(Colstore.code_get codes row) <> 0 in
        Some
          (match ds.sel with
          | Some s -> Selvec.of_pred ~base:s ~n:(Selvec.length s) keep
          | None -> Selvec.of_pred ~n:ds.rel.n keep)
      | Colstore.Dict_floats { codes; values } ->
        let mask = keep_mask (CF values) (Array.length values) in
        let keep row = mask.(Colstore.code_get codes row) <> 0 in
        Some
          (match ds.sel with
          | Some s -> Selvec.of_pred ~base:s ~n:(Selvec.length s) keep
          | None -> Selvec.of_pred ~n:ds.rel.n keep)
      | Colstore.Rle_ints { starts; values; nrows } ->
        let runs = Array.length starts in
        let mask = keep_mask (CI (values, e.ty)) runs in
        Some
          (match ds.sel with
          | Some s ->
            Selvec.of_pred ~base:s ~n:(Selvec.length s) (fun row ->
                mask.(Colstore.run_of_row starts row) <> 0)
          | None ->
            let ranges = ref [] in
            for r = runs - 1 downto 0 do
              if mask.(r) <> 0 then begin
                let hi = if r + 1 < runs then starts.(r + 1) else nrows in
                ranges := (starts.(r), hi) :: !ranges
              end
            done;
            Selvec.of_ranges !ranges)
      | Colstore.Ints _ | Colstore.Floats _ -> None)
    | _ -> None)

and take vc ds k =
  let n = ds_len ds in
  let k = Value.to_int (Eval.expr vc.eval_ctx ~env:[] k) in
  let k = max 0 (min k n) in
  let sel =
    Selvec.init k (fun i -> match ds.sel with Some s -> Selvec.get s i | None -> i)
  in
  { rel = ds.rel; sel = Some sel }

and sort_ds vc cat input keys =
  let ds = run vc cat input in
  let n = ds_len ds in
    let cmps =
      List.map
        (fun (k : Ast.sort_key) ->
          let sign = match k.Ast.dir with Ast.Asc -> 1 | Ast.Desc -> -1 in
          match k.Ast.by.Ast.params with
          | [ p ] -> (
            match veval vc ~env:[ (p, ds) ] ~n k.Ast.by.Ast.body with
            | CI (a, Vtype.String) ->
              fun i j ->
                sign
                * String.compare (Dict.get vc.dict a.(i)) (Dict.get vc.dict a.(j))
            | CI (a, _) -> fun i j -> sign * Int.compare a.(i) a.(j)
            | CF a -> fun i j -> sign * Float.compare a.(i) a.(j)
            | CE _ -> assert false (* veval materializes *))
          | _ -> unsupported "vectorized sort key arity")
        keys
    in
    let idx = Array.init n Fun.id in
    let cmp i j =
      let rec go = function
        | [] -> Int.compare i j
        | c :: rest ->
          let r = c i j in
          if r <> 0 then r else go rest
      in
      go cmps
    in
    Lq_exec.Quicksort.indices_by ~cmp idx;
    let base =
      Selvec.of_array
        (Array.map
           (fun i -> match ds.sel with Some s -> Selvec.get s i | None -> i)
           idx)
    in
    { rel = ds.rel; sel = Some base }

(* ---------- Boxing the final dataset ---------- *)

let box_dataset vc ds =
  let n = ds_len ds in
  let rec decode (c : col) i =
    match c with
    | CF a -> Value.Float a.(i)
    | CI (a, Vtype.Int) -> Value.Int a.(i)
    | CI (a, Vtype.Date) -> Value.Date a.(i)
    | CI (a, Vtype.Bool) -> Value.Bool (a.(i) <> 0)
    | CI (a, Vtype.String) -> Value.Str (Dict.get vc.dict a.(i))
    | CI (a, _) -> Value.Int a.(i)
    | CE e -> decode (decode_full e) i
  in
  let cols =
    List.map (fun (name, c) -> (name, gather c ds.sel)) ds.rel.cols
  in
  let scalar = match cols with [ (f, _) ] when f = scalar_field -> true | _ -> false in
  List.init n (fun i ->
      if scalar then decode (snd (List.hd cols)) i
      else
        Value.Record
          (Array.of_list (List.map (fun (name, c) -> (name, decode c i)) cols)))

(* Instrumented runs model this engine's memory traffic as its scans,
   following the plan's per-scan storage choice: column-routed scans pay
   one sequential pass over each demanded column at its *encoded* width
   (packed 1–2-byte dictionary codes, two run-indexed arrays for RLE —
   see [Colstore.trace_column]); row-routed scans (the element escapes
   whole) pay the rowstore's row-major traffic, every field of every
   row. Vector intermediates (selection vectors, primitive outputs) are
   small and cache-resident by design, so they are not traced. *)
let trace_scan_traffic (instr : Lq_catalog.Instr.t) cat plan =
  let trace = instr.Lq_catalog.Instr.trace in
  let rec go (p : P.t) =
    (match p.P.op with
    | P.Scan s when s.P.known -> (
      match s.P.storage with
      | P.Column _ ->
        let cs = Catalog.cols (Catalog.table cat s.P.table) in
        Array.iteri
          (fun i (f : Layout.field) ->
            let demanded =
              match s.P.fields with
              | None -> true
              | Some fs -> List.mem f.Layout.name fs
            in
            if demanded then Colstore.trace_column cs i trace)
          (Layout.fields (Colstore.layout cs))
      | P.Row ->
        let rs = Catalog.store (Catalog.table cat s.P.table) in
        let arity = Layout.arity (Rowstore.layout rs) in
        for row = 0 to Rowstore.length rs - 1 do
          for col = 0 to arity - 1 do
            trace (Rowstore.addr rs ~row ~col)
          done
        done)
    | _ -> ());
    List.iter go (P.children p)
  in
  go plan

let engine : Engine_intf.t =
  {
    name = "vectorwise";
    describe = "vectorized columnar stand-in: selection vectors + primitive loops";
    (* Columnar primitives work on one decoded column at a time: member
       chains deeper than a column and whole-group materialization have no
       vectorized form. *)
    caps =
      {
        Engine_intf.caps_any with
        needs_flat_sources = true;
        supports_correlated = false;
        supports_nested_paths = false;
        supports_group_no_selector = false;
      };
    prepare =
      (fun ?instr cat ~param_types:_ plan ->
        (* Interpreted over the shared plan: nothing is generated. *)
        {
          Engine_intf.execute =
            (fun ~params () ->
              (match instr with
              | Some i -> trace_scan_traffic i cat plan
              | None -> ());
              let vc =
                { dict = Catalog.dict cat; params; eval_ctx = Catalog.eval_ctx cat ~params }
              in
              box_dataset vc (run vc cat plan));
          codegen_ms = 0.0;
          source = None;
        });
  }
