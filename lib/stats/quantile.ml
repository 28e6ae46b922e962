(* Streaming quantile estimators for datacenter-scale runs (E22).

   [Sketch] is an HDR-histogram-style log-linear bucket sketch over
   non-negative integer samples (cycle latencies): bounded memory,
   allocated per touched decade, O(1) add, bounded *relative* error
   2^-7, and — crucially for per-core shards — *exact* mergeability:
   merging shard sketches is elementwise bucket addition, so
   merge-of-shards is bit-identical to feeding one sketch the
   concatenated stream in any order. That property is what lets Exp_e22
   keep one sketch per SMP core with no cross-core locks and still
   report global p50/p99/p999. *)

module Sketch = struct
  (* Subbucket (mantissa) bits: relative error <= 2^-bits. *)
  let bits = 7
  let block = 1 lsl bits

  (* Values below 2^bits get exact unit buckets (block 0); above, each
     power-of-two decade [2^p, 2^(p+1)) splits into 2^bits subbuckets,
     one block per decade. p ranges up to 62 on a 63-bit native int, so
     (64 - bits) blocks cover everything. A block is allocated by the
     first sample that lands in it; until then its slot holds [untouched]
     and it reads as all zeros. Bucket [i] is slot [i land (block - 1)]
     of block [i lsr bits], so walking the touched blocks in order
     visits buckets in index order. *)
  let nblocks = 64 - bits
  let untouched : int array = [||]

  type t = {
    blocks : int array array;
    mutable count : int;
    mutable min : int;
    mutable max : int;
    sum : float array;  (* one unboxed cell: an add boxes nothing *)
  }

  let create () =
    {
      blocks = Array.make nblocks untouched;
      count = 0;
      min = max_int;
      max = 0;
      sum = [| 0.0 |];
    }

  let[@inline] msb v =
    (* Position of the highest set bit of [v >= 1], branch-light. *)
    let v = ref v and p = ref 0 in
    if !v lsr 32 <> 0 then (p := !p + 32; v := !v lsr 32);
    if !v lsr 16 <> 0 then (p := !p + 16; v := !v lsr 16);
    if !v lsr 8 <> 0 then (p := !p + 8; v := !v lsr 8);
    if !v lsr 4 <> 0 then (p := !p + 4; v := !v lsr 4);
    if !v lsr 2 <> 0 then (p := !p + 2; v := !v lsr 2);
    if !v lsr 1 <> 0 then p := !p + 1;
    !p

  let[@inline] index v =
    if v < block then v
    else
      let shift = msb v - bits in
      ((shift + 1) lsl bits) + ((v lsr shift) - block)

  (* Midpoint representative of bucket [i]; exact for the unit buckets. *)
  let repr i =
    if i < block then i
    else
      let shift = (i lsr bits) - 1 in
      let mant = i land (block - 1) in
      let lo = (block + mant) lsl shift in
      lo + ((1 lsl shift) / 2)

  let touch t b =
    let blk = t.blocks.(b) in
    if blk != untouched then blk
    else begin
      let blk = Array.make block 0 in
      t.blocks.(b) <- blk;
      blk
    end

  let add t v =
    if v < 0 then invalid_arg "Quantile.Sketch.add: negative sample";
    let i = index v in
    let blk = touch t (i lsr bits) in
    let j = i land (block - 1) in
    blk.(j) <- blk.(j) + 1;
    t.count <- t.count + 1;
    if v < t.min then t.min <- v;
    if v > t.max then t.max <- v;
    t.sum.(0) <- t.sum.(0) +. float_of_int v

  let count t = t.count
  let min_value t = if t.count = 0 then 0 else t.min
  let max_value t = t.max
  let mean t = if t.count = 0 then 0.0 else t.sum.(0) /. float_of_int t.count

  let quantile t q =
    if q < 0.0 || q > 1.0 then invalid_arg "Quantile.Sketch.quantile: q";
    if t.count = 0 then 0.0
    else begin
      (* Nearest-rank: smallest bucket whose cumulative count reaches
         ceil(q * n); clamp to the exact observed [min, max] so degenerate
         streams (all-equal samples) come back exact. Untouched blocks
         add nothing to the running count, so they are skipped. *)
      let target =
        let r = int_of_float (ceil (q *. float_of_int t.count)) in
        if r < 1 then 1 else if r > t.count then t.count else r
      in
      let cum = ref 0 and found = ref (-1) and b = ref 0 in
      while !found < 0 && !b < nblocks do
        let blk = t.blocks.(!b) in
        if blk != untouched then begin
          let j = ref 0 in
          while !found < 0 && !j < block do
            cum := !cum + blk.(!j);
            if !cum >= target then found := (!b lsl bits) lor !j;
            incr j
          done
        end;
        incr b
      done;
      let v = repr (if !found < 0 then 0 else !found) in
      let v = if v < t.min then t.min else if v > t.max then t.max else v in
      float_of_int v
    end

  let merge_into ~into src =
    for b = 0 to nblocks - 1 do
      let sblk = src.blocks.(b) in
      if sblk != untouched then begin
        let blk = touch into b in
        for j = 0 to block - 1 do
          blk.(j) <- blk.(j) + sblk.(j)
        done
      end
    done;
    into.count <- into.count + src.count;
    if src.count > 0 then begin
      if src.min < into.min then into.min <- src.min;
      if src.max > into.max then into.max <- src.max
    end;
    into.sum.(0) <- into.sum.(0) +. src.sum.(0)

  let fingerprint t =
    let h = ref (Hashtbl.hash (bits, t.count, t.min, t.max)) in
    for b = 0 to nblocks - 1 do
      let blk = t.blocks.(b) in
      if blk != untouched then
        for j = 0 to block - 1 do
          let c = blk.(j) in
          if c > 0 then h := Hashtbl.hash (!h, (b lsl bits) lor j, c)
        done
    done;
    !h
end
