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

type stack = Vmm | Uk
type run

val pairwise : stack:stack -> guests:int -> count:int -> run
(** One pairwise run: [guests/2] unidirectional flows of [count]
    packets each (odd ports send to port+1). *)

val fp : run -> Scenario.fingerprint
val received : run -> int
