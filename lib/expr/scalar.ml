open Lq_value

(* Classic backtracking wildcard matcher; patterns are tiny. Closed
   top-level recursion, so a match allocates nothing (the native tier
   calls it once per row). *)
let rec like_from pattern s p i =
  if p = String.length pattern then i = String.length s
  else
    match pattern.[p] with
    | '%' -> like_any pattern s (p + 1) i
    | '_' -> i < String.length s && like_from pattern s (p + 1) (i + 1)
    | c -> i < String.length s && s.[i] = c && like_from pattern s (p + 1) (i + 1)

and like_any pattern s p j =
  like_from pattern s p j || (j < String.length s && like_any pattern s p (j + 1))

let like_match ~pattern s = like_from pattern s 0 0

let cmp a b =
  match (a, b) with
  | Value.Int x, Value.Float y -> Float.compare (float_of_int x) y
  | Value.Float x, Value.Int y -> Float.compare x (float_of_int y)
  | _ -> Value.compare a b

let bad op args =
  invalid_arg
    (Printf.sprintf "Scalar: %s not defined on (%s)" op
       (String.concat ", " (List.map Value.to_string args)))

let unop (op : Ast.unop) v =
  match (op, v) with
  | Ast.Neg, Value.Int i -> Value.Int (-i)
  | Ast.Neg, Value.Float f -> Value.Float (-.f)
  | Ast.Not, Value.Bool b -> Value.Bool (not b)
  | (Ast.Neg | Ast.Not), _ -> bad "unop" [ v ]

let arith op a b =
  match (a, b) with
  | Value.Int x, Value.Int y -> (
    match op with
    | Ast.Add -> Value.Int (x + y)
    | Ast.Sub -> Value.Int (x - y)
    | Ast.Mul -> Value.Int (x * y)
    | Ast.Div -> if y = 0 then bad "div-by-zero" [ a; b ] else Value.Int (x / y)
    | Ast.Mod -> if y = 0 then bad "mod-by-zero" [ a; b ] else Value.Int (x mod y)
    | _ -> assert false)
  | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
    let x = Value.to_float a and y = Value.to_float b in
    (match op with
    | Ast.Add -> Value.Float (x +. y)
    | Ast.Sub -> Value.Float (x -. y)
    | Ast.Mul -> Value.Float (x *. y)
    | Ast.Div -> Value.Float (x /. y)
    | Ast.Mod -> Value.Float (Float.rem x y)
    | _ -> assert false)
  | _ -> bad "arith" [ a; b ]

let binop (op : Ast.binop) a b =
  match op with
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod -> arith op a b
  | Ast.Eq -> Value.Bool (cmp a b = 0)
  | Ast.Ne -> Value.Bool (cmp a b <> 0)
  | Ast.Lt -> Value.Bool (cmp a b < 0)
  | Ast.Le -> Value.Bool (cmp a b <= 0)
  | Ast.Gt -> Value.Bool (cmp a b > 0)
  | Ast.Ge -> Value.Bool (cmp a b >= 0)
  | Ast.And -> (
    match (a, b) with
    | Value.Bool x, Value.Bool y -> Value.Bool (x && y)
    | _ -> bad "and" [ a; b ])
  | Ast.Or -> (
    match (a, b) with
    | Value.Bool x, Value.Bool y -> Value.Bool (x || y)
    | _ -> bad "or" [ a; b ])

let call (f : Ast.func) args =
  match (f, args) with
  | Ast.Starts_with, [ Value.Str s; Value.Str p ] ->
    Value.Bool (String.length p <= String.length s && String.sub s 0 (String.length p) = p)
  | Ast.Ends_with, [ Value.Str s; Value.Str p ] ->
    let ns = String.length s and np = String.length p in
    Value.Bool (np <= ns && String.sub s (ns - np) np = p)
  | Ast.Contains, [ Value.Str s; Value.Str p ] ->
    Value.Bool (like_match ~pattern:("%" ^ p ^ "%") s)
  | Ast.Like, [ Value.Str s; Value.Str pattern ] -> Value.Bool (like_match ~pattern s)
  | Ast.Lower, [ Value.Str s ] -> Value.Str (String.lowercase_ascii s)
  | Ast.Upper, [ Value.Str s ] -> Value.Str (String.uppercase_ascii s)
  | Ast.Length, [ Value.Str s ] -> Value.Int (String.length s)
  | Ast.Abs, [ Value.Int i ] -> Value.Int (abs i)
  | Ast.Abs, [ Value.Float f ] -> Value.Float (Float.abs f)
  | Ast.Year, [ Value.Date d ] -> Value.Int (Date.year d)
  | Ast.Add_days, [ Value.Date d; Value.Int n ] -> Value.Date (Date.add_days d n)
  | ( ( Ast.Starts_with | Ast.Ends_with | Ast.Contains | Ast.Like | Ast.Lower
      | Ast.Upper | Ast.Length | Ast.Abs | Ast.Year | Ast.Add_days ),
      _ ) ->
    bad "call" args
