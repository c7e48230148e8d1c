(** The pure-C code-generation backend (§5), as an engine.

    Requires sources registered with flat schemas (the "array of structs"
    precondition); processes everything in tight loops over unboxed rows
    with no data staging — the fastest strategy in every experiment of the
    paper. Refuses queries outside the native subset (correlated
    sub-queries, non-flat intermediates), like Hekaton refusing TPC-H Q2. *)

val engine : Lq_catalog.Engine_intf.t
(** Also the "SQL Server native / Hekaton" stand-in of Table 1, which
    runs this engine under that label. *)
