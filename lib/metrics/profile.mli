(** The wall clock every timer in the system reads. Per-phase cost
    breakdowns (Figs. 8, 10, 12) are not kept here: they are a fold over
    trace spans ({!Lq_trace.Trace.phases}). *)

val now_ms : unit -> float
(** Monotonic clock (CLOCK_MONOTONIC) in milliseconds. The origin is
    arbitrary — only differences are meaningful — but successive samples
    never decrease, even across wall-clock adjustments. *)
