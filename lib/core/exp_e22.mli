(** E22 — the million-flow day: heavy-tailed open-loop traffic against
    both stacks on the 8-core machine, tail latency from streaming
    mergeable quantile sketches, the offered-load knee sweep (closing the
    E15-admission-on-SMP carry-over), weighted-fair-share composition and
    a bit-for-bit replay check. *)

val experiment : Experiment.t

type stack = Scenario.stack = Vmm | Uk

val segment_starts : Vmk_workloads.Scenario.config -> int array
(** The first cycle of each ramp segment: the least [c >= 0] with
    [float_of_int c /. horizon >= start], in ramp order. *)

val peak_test : Vmk_workloads.Scenario.config -> int -> bool
(** [peak_test cfg] is, once built, the integer-compare form of
    [Scenario.ramp_mult cfg ~frac:(float_of_int t0 /. horizon) >= 0.95]:
    whether a packet injected at cycle [t0] counts toward the peak-hour
    tail. *)

val bench_slice : stack:stack -> unit -> int
(** Run a small fixed-size day slice (quick schedule, naive mode) against
    one stack and return the delivered-packet count — the bench harness
    entry point ([e22_day_slice_*]). Deterministic per stack. *)
