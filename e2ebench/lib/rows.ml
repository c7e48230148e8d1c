(* The benchmark's row comparator: an engine's answer against the
   reference interpreter's ([Provider.reference]).

   Floats agree within a relative tolerance of 1e-6, because engines sum
   in different orders (partial-aggregate merges, vectorized folds).
   Rows compare in order when the query's outermost operators sort it,
   and as a multiset otherwise: an unsorted group-by may emit its groups
   in any order. *)

open Lq_value

let tolerance = 1e-6

let rec value_close a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
    x = y
    || Float.abs (x -. y) <= tolerance *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
  | Value.Record fa, Value.Record fb ->
    Array.length fa = Array.length fb
    && Array.for_all2 (fun (na, va) (nb, vb) -> String.equal na nb && value_close va vb) fa fb
  | Value.List xa, Value.List xb ->
    List.length xa = List.length xb && List.for_all2 value_close xa xb
  | _ -> Value.equal a b

let rec sorted_output (q : Lq_expr.Ast.query) =
  match q with
  | Order_by _ -> true
  | Take (q, _) | Skip (q, _) -> sorted_output q
  | _ -> false

let agree_for q ~expected got =
  let expected, got =
    if sorted_output q then (expected, got)
    else (List.sort Value.compare expected, List.sort Value.compare got)
  in
  List.length expected = List.length got && List.for_all2 value_close expected got
