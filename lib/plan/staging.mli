(** Managed/native query splitting for the hybrid backend (§6).

    Decides which parts of a query run in the managed world and which are
    offloaded:

    - filters sitting directly on a source run in C# before staging
      (§6.1.1: "to reduce the number of objects copied to unmanaged
      memory, we apply all filtering operations in C#");
    - every source occurrence becomes a *staged input* with an implicit
      projection: only the member paths the offloaded part still references
      are copied (§6.1.1/§6.2);
    - when results must reference original objects, an index column is
      staged instead of data and results are re-associated in the managed
      world (the Min variant of §7.3); otherwise all needed fields are
      copied and results are rebuilt natively (Max). *)

open Lq_expr

type staged_spec = {
  occ : string;  (** unique occurrence name used in the rewritten query *)
  source : string;  (** catalog table *)
  preds : Ast.lambda list;  (** managed filters, in application order *)
}

val strip_plan : Plan.t -> Ast.query * staged_spec list
(** Derives the managed/native split from a lowered plan: every known scan
    is a stage boundary identified by the occurrence name {!Lower} put on
    it, and the filter conjuncts sitting directly on the scan become the
    managed-side predicates. Returns the offloaded remainder (sources
    renamed to occurrences) and the staged-input specs in scan order. *)

val used_paths : Ast.query -> occ:string -> string list list
(** Member paths of occurrence [occ]'s elements that the (already
    stripped) query dereferences — the implicit projection. The empty path
    means whole elements are needed (they appear in the result). *)

val rewrite_paths :
  Ast.query -> occ:string -> rename:(string list -> string) -> Ast.query
(** Rewrites member chains on [occ]-element variables to flat staged field
    names ([s.Shop.City] becomes [s.Shop_City]). *)

val all_leaf_paths : Lq_value.Vtype.t -> string list list
(** Every scalar leaf path of a (possibly nested) element type, in
    declaration order. *)
