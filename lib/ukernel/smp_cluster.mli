(** Multi-server microkernel stack on an SMP machine: the per-packet
    cost recipe.

    The E3 I/O-storm pipeline (NIC interrupt -> net server -> guest
    app) priced for {!Vmk_smp.Smp} with the same {!Costs} constants as
    the single-CPU kernel: net servers forward packets by IPC and
    serialize mapping-database updates under one spinlock; guests batch
    buffer unmaps into TLB-shootdown broadcasts. E14's storm
    ([Vmk_core.Exp_e14]) runs it, with the servers colocated with their
    guests or pinned to dedicated cores; E22 charges {!costs} per
    packet. *)

val driver_work : int
(** Net-server driver cycles per packet, outside the lock. *)

val unmap_batch : int
(** Guests unmap consumed buffers in TLB-shootdown batches of this many
    packets, per the mapdb's lazy revoke. *)

val handoff : Vmk_hw.Arch.profile -> int
(** The IPC that hands the mapped page to the guest. *)

val costs : Vmk_hw.Arch.profile -> Vmk_smp.Smp.costs
(** A net server's per-packet recipe: driver work and the IPC handing
    the mapped page to the guest on the server's own core, the
    mapping-database update under the shared lock. *)
