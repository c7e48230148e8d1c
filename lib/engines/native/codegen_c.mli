(** The JIT tier's C printer (§5.1, closed loop).

    Prints a loop IR program ({!Loop.t}) as a self-contained C translation
    unit with a single entry point, [lq_query], operating directly on the
    raw row pages the interpreted tier reads:

    {v
    int64_t lq_query(const unsigned char **srcs, const int64_t *nrows,
                     const int64_t *ip, const double *fp,
                     const unsigned char *db, const int32_t *dofs,
                     unsigned char *out, int64_t cap);
    v}

    It returns the total result row count, [-1] when its arena runs out
    of memory, or [-2] on a zero integer divisor. The interpreted tier
    ({!Nplan}) compiles the same IR, so both produce identical rows in
    identical order. The JIT engine ([Lq_jit]) compiles
    [program.c_source] with [cc -O2 -shared -fPIC] and dlopens the result;
    {!emit_lowered} renders the source as a documentation listing
    for [prepared.source]. *)

exception Unsupported_c of string
(** An IR node has no C form: string interning calls, per-execution
    sub-query cells, externally staged sources. The JIT serves such
    shapes from the interpreted tier. *)

val abi_version : int
(** Version of the [lq_query] contract; part of the artifact cache key
    so stale objects from an older emitter are never loaded. *)

type program = {
  c_source : string;
  scan_tables : string list;
      (** tables behind [srcs]/[nrows], in argument order (repeats allowed:
          one entry per scan) *)
  int_params : Loop.reg list;  (** contents of [ip], the IR's int registers *)
  float_params : string list;  (** contents of [fp], the IR's float registers *)
  out_fields : (string * Lq_value.Vtype.t) list;
      (** result row schema; the output buffer is packed with
          [Layout.make out_fields] *)
  out_scalar : bool;
      (** the query yields bare scalars: decode the single [out_fields]
          column as the value itself, not a record *)
  needs_dict : bool;  (** the object reads the dictionary snapshot ([db]/[dofs]) *)
}

val emit_plan : Loop.t -> program
(** @raise Unsupported_c when a node of the program has no C form. *)

val emit_lowered : Loop.t -> string
(** [emit_plan]'s C source as a listing: a program with no C form
    renders as a comment stub naming the reason. *)
