(** Minimum binary heap keyed by [(time, sequence)].

    The event queue of the discrete-event engine. Entries with equal
    timestamps pop in insertion order (FIFO), which the engine relies on
    for deterministic device/interrupt interleaving. *)

type 'a t
(** A min-heap of values of type ['a] keyed by time. *)

val create : unit -> 'a t
(** [create ()] is an empty heap. *)

val length : 'a t -> int
(** Number of queued entries. *)

val is_empty : 'a t -> bool

val push : 'a t -> time:int64 -> 'a -> unit
(** [push h ~time v] queues [v] at timestamp [time]. *)

val min_time_or : 'a t -> int64 -> int64
(** [min_time_or h default] is the timestamp of the earliest entry, or
    [default] when empty; no option is allocated. *)

exception Empty

val pop_exn : 'a t -> 'a
(** Remove and return the earliest entry's value without materializing
    a [(time, value)] pair. Ties break in insertion order; read the
    entry's time first with {!min_time_or}.
    @raise Empty when the heap is empty. *)

val clear : 'a t -> unit
(** Drop all entries. *)
