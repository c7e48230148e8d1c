(* The types of the shared physical-operator IR, the plan an engine
   prepares from ([Engine_intf.prepare]). [Lq_plan.Plan] re-exports them
   with every function over them. *)

open Lq_expr

type pred = {
  lambda : Ast.lambda;  (** single conjunct *)
  cost : float;  (** [Rewrite.predicate_cost] of the body *)
}

type agg_spec = {
  agg : Ast.agg;
  sel : Ast.lambda option;  (** element selector; [None] counts elements *)
}

type storage =
  | Row  (** fixed-width array-of-structs rowstore scan *)
  | Column of (string * string) list
      (** encoded columnar scan; the [(field, encoding)] pairs cover the
          demanded fields, filled from catalog stats by the lowering
          annotate pass (encodings: plain / dict8 / dict16 / rle) *)

type scan = {
  table : string;
  occ : string;
      (** unique occurrence name ["table#N"], numbered in pre-order — the
          hybrid engine's stage identities (formerly [Split]) *)
  known : bool;  (** resolved in the catalog (occurrence renames are not) *)
  flat : bool;  (** array-of-structs representation (§5) *)
  fields : string list option;
      (** implicit projection: root fields of the element the rest of the
          plan reads; [None] when the whole element is needed *)
  storage : storage;
      (** per-scan backend choice, recorded once here so all engines see
          one decision; rendered by [explain] but not by [shape_key] *)
}

type t = {
  op : op;
  rows : float;  (** cardinality estimate (heuristic, catalog-seeded) *)
}

and op =
  | Scan of scan
  | Filter of t * pred list  (** conjuncts, cheapest first *)
  | Project of t * Ast.lambda
  | Join of join
  | Aggregate of aggregate
  | Sort of t * Ast.sort_key list
  | Top_k of {
      input : t;
      keys : Ast.sort_key list;
      limit : Ast.expr;
    }  (** fused [OrderBy]+[Take]: bounded heap *)
  | Limit of t * Ast.expr
  | Offset of t * Ast.expr
  | Distinct of t

and join = {
  left : t;
  right : t;
  left_key : Ast.lambda;
  right_key : Ast.lambda;
  result : Ast.lambda;
  strategy : [ `Hash | `Nested_loop ];
}

and aggregate = {
  input : t;
  key : Ast.lambda;
  group_result : Ast.lambda option;  (** [None]: emit the group values *)
  aggs : agg_spec list;
      (** the accumulator registry: fused, duplicate-eliminated aggregates
          over the group variable, in first-occurrence order *)
  occ_slots : int list;
      (** accumulator index for each group-variable [Agg] occurrence of the
          result body, in pre-order *)
  fused : bool;  (** false: registry empty, engines re-walk item lists *)
  keep_items : bool;  (** group element lists must be materialized *)
}
