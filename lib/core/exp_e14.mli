(** E14 — SMP scalability: multi-server vs. centralized Dom0.

    Sweeps core count over the E3-style I/O storm on four SMP
    configurations: microkernel with colocated per-core net servers,
    microkernel with pinned server cores, VMM with a single Dom0 backend
    and VMM with a driver domain per core. Measures throughput scaling
    and itemizes the cross-CPU overheads (IPIs, TLB shootdowns, spinlock
    spin) from the per-CPU accounts, then checks the paper-shaped
    verdicts: the single Dom0 plateaus, the multi-server and
    disaggregated layouts scale, and same-seed reruns are bit-for-bit
    identical. *)

type kind =
  | Uk_colocated
  | Uk_pinned
  | Vmm_dom0
  | Vmm_drivers
  | Vmm_fleet of int
      (** A fixed fleet of [n] driver domains spread over the cores
          (E18's deployment shape). *)

val label : kind -> string

type run = {
  completed : int;
  wall : int64;
  contended : int;
  spin : int64;
  fp : Scenario.fingerprint;
      (** Counters and (per-CPU) accounts of the finished run; the run
          keeps this record, not its machine. *)
}

val run_case :
  ?seed:int64 -> ?coalesce:int -> kind:kind -> cores:int -> packets:int -> unit -> run
(** The one SMP storm: one configuration at one core count (seed
    default 14, E14's own). Builds a fresh [cores]-vCPU machine, spawns
    8 guests then the configuration's servers, and injects [packets]
    512-byte packets round-robin over the guests, one every 400 cycles,
    each costing its guest 2600 cycles of application work; runs to
    completion. [coalesce] is E16's interrupt mitigation factor
    (default 1, every packet interrupts). Deterministic per seed.

    @raise Invalid_argument when [cores < 1] or [kind] is
    [Vmm_fleet n] with [n < 1]. *)

val irq_cycles : run -> int64
(** Interrupt-entry cycles (the ["smp.irq"] account). *)

val coalescing_storms :
  seed:int64 -> packets:int -> (kind * (int * run) list) list
(** The 8-core storm in the two scalable configurations ([Uk_colocated],
    [Vmm_drivers]), each at coalescing factor 1 and 8 — how E16 and E17
    check that interrupt mitigation composes with per-core placement. *)

val composes : (int * run) list -> bool
(** Coalescing 8 against 1: same packets completed, fewer IRQ-entry
    cycles, wall time no worse. *)

val throughput : run -> float
(** Packets per million cycles of virtual wall time. *)

val experiment : Experiment.t
