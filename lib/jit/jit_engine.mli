(** The [compiled-c-jit] engine: true native execution, tiered.

    [prepare] lowers once and builds {e both} backends from the same
    physical plan: the interpreted native program ([Nplan]) and the C
    emission ([Codegen_c]). Execution starts on the interpreted tier
    immediately. Compiling pays off only for a shape that runs again, so
    the C source is compiled ([cc -O2 -shared -fPIC]) on the background
    worker Domain only once the prepared plan executes a {e second} time;
    exactly one execution queues it, however Domains race. Once the
    object is dlopened, the plan's tier slot is atomically swapped — later
    executions run the native object. Shapes with no C form (correlated
    sub-queries, interning operators...) serve interpreted permanently.

    [LQ_JIT=off] disables compilation (pure interpreted);
    [LQ_JIT_MODE=sync] compiles inside [prepare] and raises a typed
    [Codegen_error] fault on compiler failure — the deterministic mode
    the differential tests and the service's breaker/fallback ladder
    exercise. Both are read once per prepare. Execute spans carry a
    ["tier"] attribute (["jit"] / ["interpreted"]); [service/jit/*]
    counters live in {!Backend.counters}, [service/jit/queued] counting
    the compile jobs scheduled in either mode. *)

val engine : Lq_catalog.Engine_intf.t
