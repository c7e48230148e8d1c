(** Fused push-based plans over boxed values — the generated C# of §4.

    A query compiles into a tree of producers; each producer drives its
    consumer through a plain closure call per element ("the code to
    evaluate a query is structured into one or more tight loops that each
    incorporate a subset of the query's operations"). Pipeline operators
    ([Where]/[Select]/join probe/[Take]/...) fuse into the enclosing loop;
    blocking operators (grouping, sorting, join build) end a loop segment
    and materialize exactly one intermediate per segment. *)

open Lq_value

type t

val compile : ?instr:Lq_catalog.Instr.t -> Lq_catalog.Catalog.t -> Lq_plan.Plan.t -> t
(** Builds the fused plan (the "code generation + compilation" step) from
    the shared physical plan.
    @raise Lq_catalog.Engine_intf.Unsupported for correlated sub-queries —
    run the optimizer's decorrelation first. *)

val execute : t -> params:(string * Value.t) list -> Value.t list

val loop_segments : t -> int
(** Number of loop segments (blocking boundaries + 1); exposed for tests
    asserting fusion actually happened. *)
