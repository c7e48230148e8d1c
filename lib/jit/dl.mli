(** Minimal dynamic-loading shim over libdl (no ctypes dependency).

    Handles and symbols are raw addresses carried as [nativeint]; they are
    only ever produced and consumed by the C stubs in [jit_stubs.c]. *)

type handle = nativeint
type symbol = nativeint

val dlopen : string -> handle
(** [RTLD_NOW | RTLD_LOCAL]. @raise Failure with [dlerror ()] text. *)

val dlsym : handle -> string -> symbol
(** @raise Failure when the symbol is absent (or resolves to NULL). *)

val dlclose : handle -> unit

val raw_call :
  symbol ->
  bytes array ->
  int array ->
  bytes ->
  bytes ->
  bytes ->
  bytes ->
  bytes ->
  int ->
  int
(** [raw_call fn srcs nrows ip fp db dofs out cap] invokes an [lq_query]
    entry point (ABI v2, see {!Lq_native.Codegen_c}): [srcs]/[nrows] are
    the row pages and row counts of each scan, [ip]/[fp] the packed
    int64-LE / f64-LE parameter registers, [db]/[dofs] the dictionary
    snapshot (concatenated strings + int32-LE offsets), [out] the packed
    result buffer of capacity [cap] rows. Returns the {e total} row count
    (rows beyond [cap] are counted, not written — grow and call again),
    [-1] if the object ran out of arena memory, or [-2] on a zero integer
    divisor.

    The OCaml runtime lock is held for the whole call. *)
