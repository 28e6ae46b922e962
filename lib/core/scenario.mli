(** Uniform system-under-test construction.

    Builds the three hosting structures around the same application body
    and returns a comparable outcome: total virtual cycles, per-account
    cycle balances and all runtime counters. One fresh machine per run;
    nothing leaks between scenarios.

    Traffic sources are attached through a callback receiving the machine
    and a readiness gate that opens once the I/O stack is up. *)

type outcome = {
  cycles : int64;  (** Virtual time at workload completion. *)
  busy_cycles : int64;  (** Sum of all non-idle accounts. *)
  accounts : (string * int64) list;
  counters : (string * int) list;
  counter_set : Vmk_trace.Counter.set;  (** For {!Ipc_equiv}/{!Audit}. *)
  completed : bool;  (** The application body ran to completion. *)
  icache_misses : int;  (** Kernel-path i-cache misses (experiment E9). *)
  icache_miss_cycles : int;
}

type traffic_spec =
  Vmk_hw.Machine.t -> gate:(unit -> bool) -> Vmk_workloads.Traffic.t

type stack = Vmm | Uk
(** The two stacks the storm experiments (E15–E17, E22) compare: the
    Xen-style VMM and the multi-server microkernel. *)

val stack_label : stack -> string
(** ["vmm"] or ["uk"]. *)

val account_cycles : outcome -> string -> int64
val counter : outcome -> string -> int

(** What a same-seed rerun must reproduce bit-for-bit: the one run
    record every replay verdict and replay test compares with structural
    equality. *)
type fingerprint = {
  f_wall : int64;  (** Virtual time at the end of the run. *)
  f_packets : int;  (** Packets the run injected, sent or completed. *)
  f_arrivals : (int * int64) list;  (** (tag, arrival time), sorted. *)
  f_counters : (string * int) list;
  f_accounts : (string * int64) list;
  f_cpu_accounts : (string * int64) list list;  (** One list per CPU. *)
}

val fingerprint :
  Vmk_hw.Machine.t -> packets:int -> arrivals:(int * int64) list -> fingerprint
(** Fingerprint of a finished run on [mach]. *)

val fp_counter : fingerprint -> string -> int
(** A counter's value; 0 when the run never touched it. *)

val fp_account : ?cpu:int -> fingerprint -> string -> int64
(** An account's balance, in total or in one CPU's bucket; 0 when
    nothing was charged to it. *)

val run_native :
  ?arch:Vmk_hw.Arch.profile ->
  ?seed:int64 ->
  ?traffic:traffic_spec ->
  app:(unit -> unit) ->
  unit ->
  outcome
(** Mini-OS directly on the machine ({!Vmk_guest.Port_native}). *)

(** {1 Hosted stacks}

    Both run the app to completion, then up to 100k further dispatches
    so in-flight I/O drains. With [deadline] the run instead stops at
    completion or at that virtual time, whichever is first, and skips
    the drain — the engine of a polling driver never goes idle.
    [mitigation] opens the NIC's interrupt hold-off window
    ({!Vmk_hw.Nic.set_mitigation}). *)

val run_xen :
  ?arch:Vmk_hw.Arch.profile ->
  ?seed:int64 ->
  ?rx_mode:Vmk_vmm.Net_channel.rx_mode ->
  ?net:bool ->
  ?blk:bool ->
  ?fast_syscall:bool ->
  ?glibc_tls:bool ->
  ?dom0_weight:int ->
  ?net_admit:Vmk_overload.Overload.Token_bucket.t ->
  ?net_napi:int ->
  ?net_poll:int64 ->
  ?io_timeout:int64 ->
  ?mitigation:int64 ->
  ?deadline:int64 ->
  ?traffic:traffic_spec ->
  app:(unit -> unit) ->
  unit ->
  outcome
(** Hypervisor + Dom0 (with the requested backends) + one guest domain
    running the app ({!Vmk_guest.Port_xen}). Defaults: net and blk on,
    page-flip receive, trap-gate shortcut registered, no TLS. The Dom0
    scheduler weight and its netback options ({!Vmk_vmm.Dom0.body}) and
    the guest's I/O timeout pass through. *)

val run_l4 :
  ?arch:Vmk_hw.Arch.profile ->
  ?seed:int64 ->
  ?net:bool ->
  ?blk:bool ->
  ?admit:Vmk_overload.Overload.Token_bucket.t ->
  ?rx_capacity:int ->
  ?napi:int ->
  ?poll:int64 ->
  ?retry:(Vmk_hw.Machine.t -> Vmk_guest.Port_l4.retry) ->
  ?mitigation:int64 ->
  ?deadline:int64 ->
  ?traffic:traffic_spec ->
  app:(unit -> unit) ->
  unit ->
  outcome
(** Microkernel + user-level driver servers + guest-kernel server + one
    application thread ({!Vmk_guest.Port_l4}). The net server's
    admission and delivery options ({!Vmk_ukernel.Net_server.body})
    pass through; [retry] builds the guest kernel's driver-RPC retry
    policy on the fresh machine. The traffic gate opens whenever the net
    server has receive buffers posted. *)

(** {1 The fault-recovery rig}

    The supervised driver stacks E13 and E18 kill drivers on: one build
    per stack, so both experiments restart the same servers under the
    same supervision constants. *)

val supervision_period : int64
(** Watchdog and Dom0-supervisor period: 1M cycles. *)

type l4_rig = {
  rig_mach : Vmk_hw.Machine.t;
  rig_kernel : Vmk_ukernel.Kernel.t;
  blk_svc : Vmk_ukernel.Svc.entry;
  net_svc : Vmk_ukernel.Svc.entry;
  watchdog : Vmk_ukernel.Watchdog.t;
}

val supervised_l4 : Vmk_hw.Machine.t -> Vmk_ukernel.Kernel.t -> l4_rig
(** Spawns [blk-server] then [net-server] (priority 2), registers them
    as services ["blk"] and ["net"], and spawns a watchdog (priority 1)
    that pings both every {!supervision_period} with a 200k-cycle ping
    timeout and respawns a dead one. *)

val recovering_guest_kernel :
  l4_rig -> name:string -> net:bool -> blk:bool -> Vmk_ukernel.Sysif.tid
(** Spawns a guest kernel (priority 3) bound through the service
    registry to the rig's servers it uses ([net], [blk]), so it follows
    respawns. Its driver RPC makes up to 8 attempts with a 1M-cycle
    timeout and a 100k-cycle base delay, on its own
    {!Vmk_sim.Rng.split} of the machine rng, taken at the call. *)

val kill_server : l4_rig -> string -> unit
(** Kill the live incarnation of ["blk-server"] or ["net-server"]; a
    fault plan's kill hook. Other targets are ignored. *)

val supervised_dom0 :
  Vmk_hw.Machine.t ->
  Vmk_vmm.Hypervisor.t ->
  ?net:Vmk_vmm.Net_channel.t list ->
  ?blk:Vmk_vmm.Blk_channel.t list ->
  unit ->
  Vmk_vmm.Hcall.domid * Vmk_vmm.Hypervisor.supervisor
(** Creates Dom0 serving [net]/[blk] (10M-cycle connect timeout) and a
    supervisor that polls it every {!supervision_period} and restarts a
    dead incarnation under the next reconnect generation. *)

val kill_dom0 :
  Vmk_vmm.Hypervisor.t -> Vmk_vmm.Hypervisor.supervisor -> string -> unit
(** Kill the live Dom0 incarnation when the target is {!Vmk_vmm.Dom0.name};
    a fault plan's kill hook. *)

val blk_probe :
  Vmk_hw.Machine.t ->
  stats:Vmk_workloads.Apps.stats ->
  log:(int64 * bool) list ref ->
  ops:int ->
  unit ->
  unit
(** The storage client both experiments run across a kill: [ops] paced
    block operations with client-side retry, each (time, ok) outcome
    pushed onto [log], newest first. *)

val ok_times : (int64 * bool) list -> int64 list
(** The times of the successful entries of an oldest-first op log. *)

val first_after : int64 -> int64 list -> int64 option
(** [first_after at times]: how long after [at] the first of [times]
    later than [at] came — the recovery latency of a kill at [at]. *)
