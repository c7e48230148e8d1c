(** Flat open-addressing hash table on composite integer keys.

    The hash table the generated C code uses for grouping and join builds:
    dense arrays, linear probing, keys of [nparts] integer components
    (column values, date day-counts, dictionary codes, float bits) verified
    component-wise on probe — no boxing anywhere. Distinct keys receive
    dense slots 0,1,2,... in insertion order, which both the aggregation
    state arrays and ordered output iteration index by.

    With [~trace], every probed bucket reports a synthetic address —
    Fig. 14's "cache misses dominated by hash-table probing" comes from
    these traces. *)

type t

val create : ?trace:(int -> unit) -> nparts:int -> hint:int -> unit -> t

val lookup_or_insert : t -> int array -> int
(** Dense slot of the key (the array holds the [nparts] components);
    inserts on first sight. The key array is copied, callers may reuse
    their scratch buffer. *)

val find : t -> int array -> int
(** Dense slot of the key, or [-1] when it is absent. Like every probe,
    allocates nothing. *)

val count : t -> int
(** Number of distinct keys. *)

val key_part : t -> slot:int -> part:int -> int

(* Row attachment: multimap payloads per key, preserved in insertion
   order — the join build side. *)

val attach : t -> slot:int -> int -> unit
val iter_attached : t -> slot:int -> (int -> unit) -> unit
val attached_count : t -> slot:int -> int

val memory_bytes : t -> int
(** Approximate footprint, for the hybrid-vs-native cache discussion. *)

val clear : t -> unit
(** Empties the table (plan re-execution); capacity is retained. *)
