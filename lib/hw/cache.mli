(** Instruction-cache footprint model.

    Experiment E9 tests the paper's §2.2 claim that a single combined IPC
    primitive has a smaller cache footprint than a set of dedicated VMM
    primitives. We model a fully-associative LRU cache of line identifiers;
    each kernel path declares the code lines it touches ("ipc.path",
    [n] lines) and the model yields hit/miss counts and the extra refill
    cycles caused by competing paths evicting each other.

    The LRU is exact: a miss into a full cache evicts the line whose
    last touch is the oldest, the same line a most-recently-used-first
    list would drop from its tail. {!touch} resolves its region once
    (one string hash), then costs O(1) per line; a touch whose lines
    are all resident allocates nothing. Storage grows on first touch,
    by one slot per distinct line ever touched. *)

type t

val create : lines:int -> line_bytes:int -> refill_cost:int -> t
(** @raise Invalid_argument if any parameter is [< 1]. *)

val of_profile : Arch.profile -> t
(** Cache dimensioned from a platform profile; refill cost approximated by
    the profile's TLB refill (an L2 hit, roughly). *)

val touch : t -> region:string -> lines:int -> int
(** [touch t ~region ~lines] simulates executing [lines] cache lines of the
    code region named [region]; returns the cycles spent on misses. Lines
    are addressed as [(region, 0) … (region, lines-1)], so re-running a
    resident path is free. *)

val footprint_bytes : t -> region:string -> int
(** Bytes of the region currently resident. *)

val resident_lines : t -> int
val hits : t -> int
val misses : t -> int
val miss_cycles : t -> int
val flush : t -> unit
val reset_stats : t -> unit
