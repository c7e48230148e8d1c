(** Registry of all execution strategies. *)

val linq_to_objects : Lq_catalog.Engine_intf.t
val compiled_csharp : Lq_catalog.Engine_intf.t
val compiled_c : Lq_catalog.Engine_intf.t
val hybrid : Lq_catalog.Engine_intf.t
val hybrid_buffered : Lq_catalog.Engine_intf.t
val hybrid_min : Lq_catalog.Engine_intf.t
val hybrid_min_buffered : Lq_catalog.Engine_intf.t
val sqlserver_interpreted : Lq_catalog.Engine_intf.t
val vectorwise : Lq_catalog.Engine_intf.t

val compiled_c_parallel : Lq_catalog.Engine_intf.t
(** Extension (§9 future work): domain-parallel native scans. Float
    aggregates may differ from sequential results in the last bits. *)

val compiled_c_jit : Lq_catalog.Engine_intf.t
(** Extension: the emitted C compiled with [cc], dlopened and tiered
    behind the interpreted native program ({!Lq_jit.Jit_engine}). *)

val paper_engines : Lq_catalog.Engine_intf.t list
(** The five series of Figs. 7–14: LINQ-to-objects, C#, C, C#/C,
    C#/C (buffer). *)

val all : Lq_catalog.Engine_intf.t list
val by_name : string -> Lq_catalog.Engine_intf.t option
