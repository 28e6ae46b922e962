(** Minimum binary heap keyed by [(time, sequence)].

    The event queue of the discrete-event engine. Entries with equal
    timestamps pop in insertion order (FIFO), which the engine relies on
    for deterministic device/interrupt interleaving. Entries live in
    parallel arrays, so once they have grown neither {!push} nor
    {!pop_exn} allocates. *)

type 'a t
(** A min-heap of values of type ['a] keyed by time. *)

val create : unit -> 'a t
(** [create ()] is an empty heap. *)

val length : 'a t -> int
(** Number of queued entries. *)

val is_empty : 'a t -> bool

val push : 'a t -> time:int -> arg:int -> 'a -> unit
(** [push h ~time ~arg v] queues [v] at timestamp [time] with the int
    payload [arg] (see {!top_arg}). *)

val min_time_or : 'a t -> int -> int
(** [min_time_or h default] is the timestamp of the earliest entry, or
    [default] when empty; nothing is allocated. *)

val top_arg : 'a t -> int
(** The int payload of the earliest entry; read it before {!pop_exn}.
    Unspecified when empty. *)

exception Empty

val pop_exn : 'a t -> 'a
(** Remove and return the earliest entry's value without materializing
    a [(time, value)] pair. Ties break in insertion order; read the
    entry's time first with {!min_time_or}.
    @raise Empty when the heap is empty. *)

val clear : 'a t -> unit
(** Drop all entries. *)
