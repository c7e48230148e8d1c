(** The interpreted native tier (§5): a closure compiler over the loop IR.

    Every IR node is matched once, at compile time, into push-based
    segments whose inner loops read unboxed fields through monomorphic
    cursors — the execution behaviour of the paper's generated C:

    - source scans iterate the array-of-structs row store directly, no
      staging;
    - projections stay pending (computed field closures) until a blocking
      operator forces exactly one flat intermediate per segment;
    - joins build flat open-addressing tables ({!Ht}) keyed on integer
      images of the key columns and probe them in the enclosing loop;
    - grouping fuses all aggregates into one pass, with accumulators in
      dense unboxed arrays indexed by group slot;
    - sorting extracts key columns into arrays and quicksorts an index
      array (§7.2), or keeps a bounded heap for top-K;
    - float expressions compile in destination-passing style: a computed
      float node stores into its slot of one unboxed per-plan register
      file (which also holds float parameters, sub-query cells and
      literals), and column reads load in place, so no float is boxed
      between the scan and the result;
    - results are boxed only as they are emitted ("return result").

    A warm execution's row loops allocate nothing: the heap sees only
    the per-execution set-up and the boxed result rows. *)

type t

val compile : ?trace:(int -> unit) -> ?drive:(string -> (int -> unit) -> unit) -> Loop.t -> t
(** [trace] receives the synthetic address of every row-store read and
    hash-table probe (the cache-model traces). [drive name] is called once
    per staged scan of [name]: the returned function runs once per
    execution, stages data and calls back with the store row index of
    each available row, in order — the hybrid backend's bridge (its
    buffered variant refills the store between callbacks).
    @raise Invalid_argument for a staged scan without a driver. *)

val execute : t -> params:(string * Lq_value.Value.t) list -> unit -> Lq_value.Value.t list
(** Binds the registers ({!Loop.bind}), fills the sub-query cells and
    runs the program. Executions of one plan are serialized. *)
