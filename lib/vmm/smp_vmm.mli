(** Xen-style VMM stack on an SMP machine: the per-packet cost recipe.

    The E3 I/O-storm pipeline (NIC interrupt -> backend -> frontend
    upcall) priced for {!Vmk_smp.Smp} with the same {!Costs} constants
    as the single-CPU hypervisor. E14's storm ([Vmk_core.Exp_e14])
    runs it; E22 charges {!costs} per packet. Three backend layouts
    probe [CG05]'s centralized-Dom0 bottleneck:
    {ul
    {- [Single_dom0]: every packet's grant check and page flip runs in
       one domain pinned to core 0 — adding guest cores cannot add
       backend capacity, so throughput plateaus at Dom0 saturation.}
    {- [Driver_domains]: a driver domain per core with private grant
       tables; only the frame-ownership check stays under the shared
       lock, so backends scale with cores (contention itemized in
       ["smp.spin"]).}
    {- [Fixed_domains n]: E18's deployment shape — a fixed fleet of [n]
       driver domains (the netdrv/blkdrv/bridge split) spread
       round-robin over the cores, private tables as above. Capacity
       tops out at [min n cores] busy backends, which is how the
       disaggregated stack tracks the multi-server L4 curve until the
       fleet itself saturates.}} *)

type backend = Single_dom0 | Driver_domains | Fixed_domains of int

val netback_work : int
(** Backend cycles per packet, outside the lock. *)

val frontend_work : int
(** Guest frontend cycles per packet, on top of the upcall. *)

val flip_batch : int
(** Flipped-out pages are invalidated in TLB-shootdown batches of this
    many packets. *)

val flip_cost : Vmk_hw.Arch.profile -> int
(** One page flip: the fixed part plus two page-table updates. *)

val costs : ?backend:backend -> Vmk_hw.Arch.profile -> Vmk_smp.Smp.costs
(** The backend's per-packet recipe: netback work and the event-channel
    send outside the lock; grant check and page flip under the global
    grant-table lock ([Single_dom0], the default), or the flip under a
    private table and only the grant check under the shared lock
    (driver domains). *)
