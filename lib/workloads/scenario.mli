(** Deterministic open-loop scenario generator for datacenter-scale runs
    (E22): Zipf flow sizes x Poisson arrivals x on/off tenants under a
    piecewise diurnal rate ramp, all drawn from the seeded simulation
    Rng so the same seed yields a bit-for-bit identical schedule.

    The emitted schedule is {e open-loop}: arrival times are fixed at
    generation time and never back off when the system under test
    congests — overload surfaces as tail latency and loss at the sink,
    not reduced offered load at the source. *)

type config = {
  tenants : int;  (** independent on/off sources, 1..4095 *)
  guests : int;  (** fabric endpoints; tenant t sources from guest (t mod guests)+1 *)
  mean_flow_gap : float;
      (** mean cycles between flow starts per tenant while ON at ramp
          multiplier 1.0 (Poisson arrivals) *)
  zipf_alpha : float;  (** flow-size tail exponent (density ~ s^-alpha) *)
  size_min : int;  (** packets per flow, power-law lower bound (>= 1) *)
  size_max : int;  (** upper bound (< 2^20) *)
  on_mean : float;  (** mean ON dwell, cycles (exponential) *)
  off_mean : float;  (** mean OFF dwell, cycles (exponential) *)
  ramp : (float * float) array;
      (** piecewise-constant rate ramp: (start fraction of horizon,
          multiplier); starts must begin at 0.0 and increase *)
  horizon : int64;  (** length of the simulated day, cycles (1..2^40) *)
}

val flat : (float * float) array
(** Single segment, multiplier 1.0 — no diurnal shape. *)

val diurnal : (float * float) array
(** Stylised datacenter day: trough, climb, midday peak, shoulder,
    evening peak, wind-down. *)

val ramp_mult : config -> frac:float -> float
(** Rate multiplier in effect at [frac] (fraction of horizon elapsed). *)

val zipf : Vmk_sim.Rng.t -> alpha:float -> lo:int -> hi:int -> int
(** Bounded power-law sample in [lo, hi] by inversion of the truncated
    Pareto CDF (discretised by flooring). *)

type t
(** A materialised schedule: flows sorted by arrival time. *)

val generate : ?seed:int64 -> ?tenant_rate:(int -> float) -> config -> t
(** [generate ?seed ?tenant_rate cfg] materialises the schedule.
    [tenant_rate] scales a tenant's flow arrival rate (default 1.0 for
    all) — the hook the fairness cells use to make one tenant an
    aggressor. Raises [Invalid_argument] on malformed configs. *)

val config : t -> config
val flows : t -> int
val total_packets : t -> int

val fingerprint : t -> int
(** Deterministic digest of the whole schedule (arrival times + flow
    metadata), for same-seed replay checks. *)

val at : t -> int -> int
(** Arrival cycle of flow [i]; nondecreasing in [i]. *)

val size : t -> int -> int
val tenant : t -> int -> int
val src : t -> int -> int
val dst : t -> int -> int

val on_fraction : t -> tenant:int -> float
(** Fraction of the horizon the tenant spent ON (duty-cycle accounting). *)

val iter :
  t ->
  (flow:int -> at:int -> tenant:int -> src:int -> dst:int -> size:int -> unit) ->
  unit
