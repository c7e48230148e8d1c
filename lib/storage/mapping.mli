(** Object-layout → native-layout mappings (§6.2, Figs. 5–6).

    The hybrid engine must copy parts of arbitrarily nested object graphs
    into flat unmanaged rows. A mapping pairs (a) the object-oriented
    representation — paths through nested record fields of the source
    element type — with (b) the chosen native representation — one flat
    field per path.

    {b Naming rule.} The flat field of a path is its member names joined
    by ["_"] ({!name_of_path}): [s.Shop.City] is staged as [Shop_City],
    and a top-level member keeps its own name, so a flat row of top-level
    members reads back as the source record. Two distinct paths that join
    to the same name are rejected.

    The mapping also implements the *implicit projection* of §6.1.1: only
    the paths actually referenced by the query are added, so only those
    fields are staged. When the query's result must reference original
    source objects (the Min variant), an extra [__idx] field carries the
    element's index in the source array so C# — here, the managed side —
    can look the object up again. *)

open Lq_value

type entry = {
  path : string list;  (** member path from the source element *)
  flat_name : string;  (** [name_of_path path] *)
  vty : Vtype.t;  (** scalar host type at the end of the path *)
}

type t

val index_field : string
(** ["__idx"] — the source-array index column of the Min variant. *)

val name_of_path : string list -> string
(** The naming rule: member names joined by ["_"]. *)

val build : source:Vtype.t -> paths:string list list -> with_index:bool -> t
(** [build ~source ~paths ~with_index] resolves each path against the
    (record) element type [source] and lays the flat row out in path order.
    Duplicate paths collapse to one entry.
    @raise Invalid_argument on unknown members, non-scalar leaves or two
    paths with one flat name. *)

val entries : t -> entry list
val layout : t -> Layout.t
(** Flat layout; field names are the [flat_name]s, plus [__idx] last when
    requested. *)

val flat_name : t -> string list -> string option
(** The flat field carrying a given object path. *)

val extract : Value.t -> string list -> Value.t
(** Follows a member path through a boxed value by name. *)

val writer : t -> dict:Dict.t -> bytes -> int -> index:int -> Value.t -> unit
(** [writer m ~dict] compiles the row writer once. Each path is resolved
    to record slot indexes against the source type, each column's row
    offset is fixed and one writer is picked per field type. The result
    [w page off ~index v] performs the implicit projection of one source
    element [v] into the flat row at byte [off] of [page] ([index] fills
    [__idx] when present). A member is read at its static slot after a
    check of its name, falling back to a lookup by name when the runtime
    record is laid out differently — the rule of the compiled C# member
    access. Strings are interned in [dict].
    @raise Invalid_argument when a field holds a value of another type. *)

val describe : t -> string
(** Human-readable two-column rendering of the mapping (object path →
    native field), as in Fig. 5. *)
