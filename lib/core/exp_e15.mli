(** E15: end-to-end overload robustness — offered-load sweep on both
    structures, naive vs. policied, measuring timely goodput, tail
    latency and the itemized drop/shed/retry budget. *)

val experiment : Experiment.t

(** {1 The single-guest receive probe}

    Shared with E16, which sweeps the same rig across delivery
    disciplines. *)

type stack = Scenario.stack = Vmm | Uk

val capacity_period : stack -> int64
(** 1x capacity: one packet per this many cycles, per structure. *)

val mults : (int * int) list
(** Offered-load multipliers [num, den] of the stack's capacity. *)

val mult_label : int * int -> string
val period_of : stack -> int * int -> int64
val count_of : base:int -> int * int -> int

type 'a probe = {
  injected : int;
  received : int;
  timely : int;  (** Arrived within the 1M-cycle latency budget. *)
  offered : float;  (** Injected packets per Mcycle of the offered window. *)
  goodput : float;  (** Timely packets per Mcycle of the offered window. *)
  p99 : float;  (** p99 delivery latency in cycles, over received packets. *)
  nic_drops : int;
  items : 'a;  (** The experiment's own itemization of the run. *)
  fp : Scenario.fingerprint;
}

type rig =
  traffic:Scenario.traffic_spec -> app:(unit -> unit) -> Scenario.outcome
(** A {!Scenario.run_xen} / {!Scenario.run_l4} call with its backend
    options applied. *)

val xen_rig :
  ?net_admit:Vmk_overload.Overload.Token_bucket.t ->
  ?net_napi:int ->
  ?net_poll:int64 ->
  ?mitigation:int64 ->
  ?deadline:int64 ->
  unit ->
  rig
(** The VMM in the naive overload configuration: seed 41, Dom0 at
    double the guest's scheduler weight, no blk channel, 2M-cycle guest
    I/O timeout. *)

val l4_rig :
  ?admit:Vmk_overload.Overload.Token_bucket.t ->
  ?rx_capacity:int ->
  ?napi:int ->
  ?poll:int64 ->
  ?retry:(Vmk_hw.Machine.t -> Vmk_guest.Port_l4.retry) ->
  ?mitigation:int64 ->
  ?deadline:int64 ->
  unit ->
  rig
(** The microkernel in the naive overload configuration: seed 42,
    unbounded net-server queue, no blk server. *)

val rx_probe :
  period:int64 ->
  count:int ->
  items:(Vmk_hw.Machine.t -> received:int -> 'a) ->
  rig ->
  'a probe
(** Offer [count] packets, one per [period] cycles, to the guest app on
    [rig], which records every arrival. *)

val efficiency : 'a probe -> float
(** Timely packets over injected packets. *)

val probe_periods : int64 list
(** The knee probe's ladder of absolute arrival periods. *)

val probe_runs :
  ?periods:int64 list ->
  base:int ->
  (period:int64 -> count:int -> 'a probe) ->
  (int64 * 'a probe) list
(** One run per period of [periods] (default {!probe_periods}), each
    offering load for the same virtual window. *)

val knee : (int64 * 'a probe) list -> float
(** Offered load of the first rung whose efficiency falls below 0.9;
    [infinity] when none does. *)

(** {1 Test hooks} *)

type mode = Naive | Policied
type run

val run_one : stack -> mode -> base:int -> int * int -> run
(** One run at offered-load multiplier [num, den] of the stack's
    capacity, injecting [base * num / den] packets. *)

val fp : run -> Scenario.fingerprint
val received : run -> int
