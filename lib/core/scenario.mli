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
