module Arch = Vmk_hw.Arch
module Smp = Vmk_smp.Smp

(* Per-packet work beyond the arch/Costs-priced pieces. *)
let driver_work = 600
let unmap_batch = 16

(* The IPC that hands the mapped page to the guest. *)
let handoff arch = Costs.ipc_path + arch.Arch.page_map_cost

(* Driver work and the hand-off IPC run on the server's own core; only
   the mapping-database update is under the shared lock. *)
let costs arch =
  {
    Smp.free = driver_work + handoff arch;
    locked = 2 * arch.Arch.pt_update_cost;
    irq = arch.Arch.irq_entry_cost + Costs.irq_to_ipc;
  }
