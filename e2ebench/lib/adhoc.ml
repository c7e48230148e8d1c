(* Ad-hoc query shapes for the [adhoc-cold] workload.

   Every shape is a lineitem scan with a subset of range predicates, one
   of several group keys and a non-empty subset of aggregates. A shape
   index is a mixed-radix number over those choices:

     7 predicate slots x 4 forms (absent, >=, <, between)   16384
     6 group keys                                           x   6
     127 non-empty aggregate subsets                        x 127
                                                    = 12,484,608 shapes

   Request [i] of a run takes shape [walk ~seed i], an affine permutation
   of the whole space, so no shape repeats within a run and every request
   misses the compiled-plan cache. (Uniform random draws from the space
   would repeat; a permutation cannot.) The constants are drawn per
   request from the seed; they are literals in the query, as an ad-hoc
   caller would write them, and the provider turns them into parameters. *)

open Lq_value
open Lq_expr.Dsl

type column = { name : string; lo : float; hi : float; is_date : bool }

let date_col name =
  {
    name;
    lo = float_of_int Lq_tpch.Dbgen.date_lo;
    hi = float_of_int Lq_tpch.Dbgen.date_hi;
    is_date = true;
  }

let num_col name lo hi = { name; lo; hi; is_date = false }

let pred_columns =
  [|
    date_col "l_shipdate";
    date_col "l_commitdate";
    date_col "l_receiptdate";
    num_col "l_quantity" 1. 50.;
    num_col "l_discount" 0. 0.1;
    num_col "l_extendedprice" 900. 105_000.;
    num_col "l_tax" 0. 0.08;
  |]

let forms = 4

(* (result fields, key expression): the key's fields are copied into the
   result record, as a LINQ caller projecting [g.Key] would. *)
let group_keys =
  let col c = ([ (c, v "g" $. "Key") ], v "l" $. c) in
  [|
    ([], int 1);
    col "l_returnflag";
    col "l_linestatus";
    col "l_shipmode";
    col "l_shipinstruct";
    ( [
        ("l_returnflag", v "g" $. "Key" $. "l_returnflag");
        ("l_linestatus", v "g" $. "Key" $. "l_linestatus");
      ],
      record
        [ ("l_returnflag", v "l" $. "l_returnflag"); ("l_linestatus", v "l" $. "l_linestatus") ] );
  |]

let aggregates =
  [|
    ("sum_price", sum (v "g") "x" (v "x" $. "l_extendedprice"));
    ("sum_qty", sum (v "g") "x" (v "x" $. "l_quantity"));
    ("avg_disc", avg (v "g") "x" (v "x" $. "l_discount"));
    ("max_price", max_of (v "g") "x" (v "x" $. "l_extendedprice"));
    ("min_qty", min_of (v "g") "x" (v "x" $. "l_quantity"));
    ("count", count (v "g"));
    ( "sum_disc_price",
      sum (v "g") "x" ((v "x" $. "l_extendedprice") *: (float 1.0 -: (v "x" $. "l_discount"))) );
  |]

let agg_subsets = (1 lsl Array.length aggregates) - 1

let space_size =
  let preds = ref 1 in
  Array.iter (fun _ -> preds := !preds * forms) pred_columns;
  !preds * Array.length group_keys * agg_subsets

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* [walk ~seed] is a bijection on [0, space_size): i -> (a*i + b) mod N
   with [a] coprime to N, both drawn from the seed. *)
let walk ~seed =
  let rng = Lq_exec.Prng.create (Hashtbl.hash ("adhoc-walk", seed)) in
  let rec multiplier () =
    let a = 1 + Lq_exec.Prng.int rng (space_size - 1) in
    if gcd a space_size = 1 then a else multiplier ()
  in
  let a = multiplier () in
  let b = Lq_exec.Prng.int rng space_size in
  fun i -> ((a * (i mod space_size)) + b) mod space_size

(* A constant at relative position [u] of the column's range. *)
let constant col u =
  let x = col.lo +. (u *. (col.hi -. col.lo)) in
  if col.is_date then const (Value.Date (int_of_float x))
  else float (Float.round (x *. 100.) /. 100.)

(* Predicates keep most rows (each passes 60-100% of them), so a shape
   with five of them still aggregates a sizeable share of the table. *)
let predicate rng col form =
  let u lo hi = lo +. Lq_exec.Prng.float rng (hi -. lo) in
  let c = v "l" $. col.name in
  match form with
  | 1 -> Some (c >=: constant col (u 0. 0.3))
  | 2 -> Some (c <: constant col (u 0.7 1.))
  | 3 -> Some ((c >=: constant col (u 0. 0.2)) &&: (c <: constant col (u 0.8 1.)))
  | _ -> None

let query_of_shape rng shape =
  let agg_mask = (shape mod agg_subsets) + 1 in
  let rest = shape / agg_subsets in
  let key_fields, key = group_keys.(rest mod Array.length group_keys) in
  let rest = ref (rest / Array.length group_keys) in
  let preds =
    Array.to_list pred_columns
    |> List.filter_map (fun col ->
           let form = !rest mod forms in
           rest := !rest / forms;
           predicate rng col form)
  in
  let aggs =
    Array.to_list aggregates |> List.filteri (fun i _ -> agg_mask land (1 lsl i) <> 0)
  in
  let scan =
    match preds with
    | [] -> source "lineitem"
    | p :: ps -> source "lineitem" |> where "l" (List.fold_left ( &&: ) p ps)
  in
  scan |> group_by ~key:("l", key) ~result:("g", record (key_fields @ aggs))

let request ~seed =
  let walk = walk ~seed in
  fun i ->
    let rng = Lq_exec.Prng.create (Hashtbl.hash ("adhoc-consts", seed, i)) in
    query_of_shape rng (walk i)
