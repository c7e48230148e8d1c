(** Array-of-structs row store.

    The "fixed-length array of structs without references" of §5: rows live
    consecutively in one growable byte buffer, giving the native engine the
    same flat, pointer-free memory a C program would scan. Each store draws
    a synthetic base address from {!Addr_space} so instrumented runs can
    feed realistic addresses to the cache simulator. *)

open Lq_value

type t

val create : ?capacity_rows:int -> layout:Layout.t -> dict:Dict.t -> unit -> t
val layout : t -> Layout.t
val dict : t -> Dict.t
val length : t -> int
(** Number of rows. *)

val data : t -> bytes
(** The backing buffer. Re-allocated by appends — re-read after loading. *)

val base_addr : t -> int
(** Synthetic base address of row 0 (stable across growth). *)

val addr : t -> row:int -> col:int -> int
(** Synthetic address of one field, for cache tracing. *)

(* Loading *)

val append_record : t -> Value.t -> unit
(** Appends a boxed record; fields are located by layout field name.
    @raise Invalid_argument on missing fields or type mismatches. *)

val of_records : layout:Layout.t -> dict:Dict.t -> Value.t list -> t

val alloc_row : t -> int
(** Appends one zeroed row and returns its index — intermediate-result
    stores are written field-by-field through the setters. *)

(* Field access. [col] is the layout field index; integer-family fields
   (I32/I64/Date32/Bool8/Str32) read and write through the [int] API. *)

val get_int : t -> row:int -> col:int -> int
val get_float : t -> row:int -> col:int -> float
val set_int : t -> row:int -> col:int -> int -> unit
val set_float : t -> row:int -> col:int -> float -> unit

val get_value : t -> row:int -> col:int -> Value.t
(** Decodes through the field's host type (dict strings, dates, bools). *)

val decode : Dict.t -> bytes -> Layout.field -> int -> Value.t
(** [decode dict data f base] boxes field [f] of the packed row that
    starts at byte [base] of [data] — any buffer laid out by {!Layout},
    such as a native result page. *)

val row_value : t -> int -> Value.t
(** The whole row as a boxed record. *)

(* Monomorphic reader factories: one closure per (store, column), with the
   offset arithmetic resolved once — what the generated C would compile to. *)

val int_reader : ?trace:(int -> unit) -> t -> int -> int -> int
(** [int_reader t col] is a function [row -> value]. With [~trace] every
    read also reports its synthetic address. *)

val float_reader : ?trace:(int -> unit) -> t -> int -> int -> float
val value_reader : ?trace:(int -> unit) -> t -> int -> int -> Value.t

val clear : t -> unit
(** Drops all rows (capacity retained) — intermediate-result stores are
    recycled across plan executions. *)
