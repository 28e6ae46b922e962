(** Streaming quantile estimators: bounded memory, allocated per touched
    decade, online, built for the million-sample runs of E22 where O(n)
    sample buffers are off-limits. *)

module Sketch : sig
  (** Log-linear bucket sketch over non-negative integer samples with
      bounded relative error [2^-7] and {e exact} mergeability:
      merging per-shard sketches is elementwise bucket addition, so the
      merged sketch is bit-identical to a single sketch fed the
      concatenated stream in any order. *)

  type t

  val create : unit -> t
  (** An empty sketch with a 7-bit subbucket mantissa: quantile
      estimates are within relative error [2^-7]; values below [2^7]
      are stored exactly. No bucket is allocated yet: each power-of-two
      decade gets its [2^7] buckets on the first sample that lands in
      it, so memory is bounded (57 decades) and grows only with the
      decades a stream touches. *)

  val add : t -> int -> unit
  (** O(1). Allocates only the bucket block of a decade not touched
      before; an add into a touched decade allocates nothing. Raises
      [Invalid_argument] on negatives. *)

  val count : t -> int
  val min_value : t -> int
  val max_value : t -> int
  val mean : t -> float

  val quantile : t -> float -> float
  (** [quantile t q] for [q] in [0,1]: nearest-rank estimate, clamped to
      the exact observed [min,max] (so constant streams are exact).
      Returns [0.0] on an empty sketch. *)

  val merge_into : into:t -> t -> unit
  (** Elementwise bucket addition; decades [src] never touched are
      skipped. *)

  val fingerprint : t -> int
  (** Deterministic digest of the full bucket state, for bit-for-bit
      replay checks. It does not depend on which decades were
      allocated, only on the counts. *)
end
