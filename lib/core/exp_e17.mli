(** E17: the inter-guest communication fabric — N mini-OS instances
    exchanging vnet-addressed packets through the Dom0 software bridge
    (every packet crosses Dom0 twice) vs L4-style direct guest-to-guest
    IPC channels (the net server only brokers connection setup),
    measuring fabric cycles, privileged transitions and middleman
    touches per packet, plus the flow-cache sweep, weighted fair-share
    and ECN satellites, the E14 storm composition and bit-for-bit
    replay. *)

val experiment : Experiment.t

(** {1 Portable application bodies}

    Identical on both stacks; E19's revocation storm reuses them. *)

val sender :
  sent:int ref -> src:int -> dst:int -> count:int -> pace:int -> unit -> unit
(** Send [count] vnet packets [src] -> [dst], burning [pace] cycles
    after each and counting successful sends in [sent], then drain the
    transmit queue. *)

val receiver :
  Vmk_hw.Machine.t ->
  record:(tag:int -> at:int64 -> unit) ->
  packets:int ->
  work:int ->
  unit ->
  unit
(** Receive up to [packets] packets, reporting each arrival through
    [record] and burning [work] cycles per packet. *)

(** {1 Test hooks}

    The replay test drives single runs directly and compares their
    fingerprints bit-for-bit. *)

type stack = Scenario.stack = Vmm | Uk
type run

val pairwise : stack:stack -> guests:int -> count:int -> run
(** One pairwise run: [guests/2] unidirectional flows of [count]
    packets each (odd ports send to port+1). *)

val fp : run -> Scenario.fingerprint
val received : run -> int

(** {1 The two fabrics}

    Each fabric is built in one step and runs its applications in a
    second, so a caller can add a side party between the two (E19's
    revocation storm). [mk_apps] returns one [(port, body)] per guest,
    in port order from 1; the bodies report arrivals through [record]
    and count successful sends in [sent]. The run step returns once
    every body has finished and in-flight packets have drained. *)

type xen_fabric = {
  x_mach : Vmk_hw.Machine.t;
  x_hyp : Vmk_vmm.Hypervisor.t;
  x_chans : Vmk_vmm.Net_channel.t list;  (** One per guest, port order. *)
  x_bridge : Vmk_vmm.Hcall.domid;
}

val xen_fabric :
  guests:int ->
  ?mark_at:int ->
  ?port_capacity:int ->
  ?mk_fair:(Vmk_hw.Machine.t -> Vmk_overload.Overload.Weighted_buckets.t) ->
  unit ->
  xen_fabric
(** Machine seed 41 and a privileged bridge domain (weight 512) switching
    one page-flip channel per guest. [mark_at], [port_capacity] and the
    fair-share gate built by [mk_fair] configure the bridge. *)

val xen_apps :
  xen_fabric ->
  mk_apps:
    (mach:Vmk_hw.Machine.t ->
    record:(tag:int -> at:int64 -> unit) ->
    sent:int ref ->
    (int * (unit -> unit)) list) ->
  run
(** One paravirt guest domain per app, attached to its port's channel. *)

type uk_fabric = {
  u_mach : Vmk_hw.Machine.t;
  u_kernel : Vmk_ukernel.Kernel.t;
  u_broker : Vmk_ukernel.Sysif.tid;  (** The net server brokering lookups. *)
  u_vnets : Vmk_guest.Port_l4.vnet list;  (** One per guest, port order. *)
  u_gks : Vmk_ukernel.Sysif.tid list;  (** Guest kernels, port order. *)
}

val uk_fabric : guests:int -> ?mark_at:int -> unit -> uk_fabric
(** Machine seed 42, the net server as vnet broker and one guest kernel
    per port, run until every guest kernel has attached to the broker. *)

val uk_apps :
  uk_fabric ->
  mk_apps:
    (mach:Vmk_hw.Machine.t ->
    record:(tag:int -> at:int64 -> unit) ->
    sent:int ref ->
    (int * (unit -> unit)) list) ->
  side:(unit -> unit) ->
  run
(** One application thread per app on its port's guest kernel; [side]
    runs after they are spawned and before the kernel runs them. *)
