module Arch = Vmk_hw.Arch
module Smp = Vmk_smp.Smp

type backend = Single_dom0 | Driver_domains | Fixed_domains of int

let netback_work = 400
let frontend_work = 300
let flip_batch = 16

let flip_cost arch = Costs.page_flip_fixed + (2 * arch.Arch.pt_update_cost)

(* Netback work and the event-channel send that hands the packet to the
   guest run outside the lock. Single_dom0 does the grant check and page
   flip under the global grant-table lock; a driver domain flips under
   its private table, so only the frame-ownership check hits the shared
   lock. *)
let costs ?(backend = Single_dom0) arch =
  let irq = arch.Arch.irq_entry_cost + Costs.irq_route in
  let outside = netback_work + Costs.evtchn_send in
  match backend with
  | Single_dom0 ->
      { Smp.free = outside; locked = Costs.grant_check + flip_cost arch; irq }
  | Driver_domains | Fixed_domains _ ->
      { Smp.free = outside + flip_cost arch; locked = Costs.grant_check; irq }
