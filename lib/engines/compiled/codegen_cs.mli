(** C#-like source listings of compiled plans.

    The paper's provider emits real C# and compiles it in-memory; our plans
    are built as closures instead, and this module renders the source a C#
    backend would have emitted for the same plan — the §4.1 [Executor]
    skeleton with one fused loop per segment. The listing is documentation
    (returned in {!Lq_catalog.Engine_intf.prepared}[.source] and shown by
    the CLI); it is printed from the prepared plan's expression tree
    ({!Lq_plan.Plan.to_ast}). *)

val emit : Lq_expr.Ast.query -> string
