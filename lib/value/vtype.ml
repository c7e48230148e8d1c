type t =
  | Bool
  | Int
  | Float
  | String
  | Date
  | Record of (string * t) list
  | List of t

let rec equal a b =
  match (a, b) with
  | Bool, Bool | Int, Int | Float, Float | String, String | Date, Date -> true
  | Record fa, Record fb ->
    List.length fa = List.length fb
    && List.for_all2 (fun (na, ta) (nb, tb) -> String.equal na nb && equal ta tb) fa fb
  | List a, List b -> equal a b
  | (Bool | Int | Float | String | Date | Record _ | List _), _ -> false

let rec to_string = function
  | Bool -> "bool"
  | Int -> "int"
  | Float -> "float"
  | String -> "string"
  | Date -> "date"
  | Record fields ->
    "{" ^ String.concat "; " (List.map (fun (n, t) -> n ^ ": " ^ to_string t) fields) ^ "}"
  | List t -> "list<" ^ to_string t ^ ">"

let pp fmt t = Format.pp_print_string fmt (to_string t)

let field ty name =
  match ty with
  | Record fields -> List.assoc_opt name fields
  | Bool | Int | Float | String | Date | List _ -> None

let is_scalar = function
  | Bool | Int | Float | String | Date -> true
  | Record _ | List _ -> false

let is_numeric = function
  | Int | Float -> true
  | Bool | String | Date | Record _ | List _ -> false
