(* Span recorder for the traced ledger run.

   A span is one call into a layer: its kind, parent span, start and end
   on the monotonic clock, and the minor-heap word count at both ends.
   Spans live in preallocated bigarrays (outside the OCaml heap, so the
   GC never scans them) until [summarize] folds them at the end of a
   run. Recording allocates nothing on the minor heap.

   Spans must nest: a span is closed before the fiber that opened it
   suspends. Calls that suspend the fiber ([Smp.recv], [Smp.burn],
   [Smp.locked]) are therefore only counted — a span around them would
   cover other fibers' work.

   A recorder created with [~on:false] records nothing; [enter] returns
   [-1] and [leave]/[count] are no-ops, so the untraced run pays one
   branch per site. *)

external now_ns : unit -> (int[@untagged])
  = "vmkbench_now_ns_byte" "vmkbench_now_ns"
[@@noalloc]

let minor_words () = int_of_float (Gc.minor_words ())

type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let make_buf n : buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

type t = {
  on : bool;
  mutable n : int;
  mutable kind : buf;
  mutable parent : buf;
  mutable t0 : buf;
  mutable t1 : buf;
  mutable w0 : buf;
  mutable w1 : buf;
  mutable top : int;
  counts : int array;  (** count-only calls, by kind *)
}

let create ~on ~kinds =
  let cap = if on then 1 lsl 16 else 1 in
  {
    on;
    n = 0;
    kind = make_buf cap;
    parent = make_buf cap;
    t0 = make_buf cap;
    t1 = make_buf cap;
    w0 = make_buf cap;
    w1 = make_buf cap;
    top = -1;
    counts = Array.make kinds 0;
  }

let grow t =
  let cap = 2 * Bigarray.Array1.dim t.kind in
  let widen (b : buf) =
    let b' = make_buf cap in
    Bigarray.Array1.blit b (Bigarray.Array1.sub b' 0 (Bigarray.Array1.dim b));
    b'
  in
  t.kind <- widen t.kind;
  t.parent <- widen t.parent;
  t.t0 <- widen t.t0;
  t.t1 <- widen t.t1;
  t.w0 <- widen t.w0;
  t.w1 <- widen t.w1

let enter t k =
  if not t.on then -1
  else begin
    if t.n = Bigarray.Array1.dim t.kind then grow t;
    let i = t.n in
    t.n <- i + 1;
    t.kind.{i} <- k;
    t.parent.{i} <- t.top;
    t.top <- i;
    t.w0.{i} <- minor_words ();
    t.t0.{i} <- now_ns ();
    i
  end

let leave t i =
  if i >= 0 then begin
    t.t1.{i} <- now_ns ();
    t.w1.{i} <- minor_words ();
    t.top <- t.parent.{i}
  end

let count t k = if t.on then t.counts.(k) <- t.counts.(k) + 1

(* Per-kind totals; [self_*] is a span's duration (or words) minus what
   its direct children cover. *)
type totals = {
  calls : int array;
  total_ns : int array;
  self_ns : int array;
  total_w : int array;
  self_w : int array;
  counted : int array;
}

let empty_totals kinds =
  {
    calls = Array.make kinds 0;
    total_ns = Array.make kinds 0;
    self_ns = Array.make kinds 0;
    total_w = Array.make kinds 0;
    self_w = Array.make kinds 0;
    counted = Array.make kinds 0;
  }

(* Fold this recorder's spans into [acc], then forget them. *)
let summarize t acc =
  let child_ns = Array.make t.n 0 and child_w = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.{i} in
    if p >= 0 then begin
      child_ns.(p) <- child_ns.(p) + (t.t1.{i} - t.t0.{i});
      child_w.(p) <- child_w.(p) + (t.w1.{i} - t.w0.{i})
    end
  done;
  for i = 0 to t.n - 1 do
    let k = t.kind.{i} in
    let d = t.t1.{i} - t.t0.{i} and w = t.w1.{i} - t.w0.{i} in
    acc.calls.(k) <- acc.calls.(k) + 1;
    acc.total_ns.(k) <- acc.total_ns.(k) + d;
    acc.self_ns.(k) <- acc.self_ns.(k) + d - child_ns.(i);
    acc.total_w.(k) <- acc.total_w.(k) + w;
    acc.self_w.(k) <- acc.self_w.(k) + w - child_w.(i)
  done;
  Array.iteri (fun k c -> acc.counted.(k) <- acc.counted.(k) + c) t.counts;
  t.n <- 0;
  t.top <- -1;
  Array.fill t.counts 0 (Array.length t.counts) 0
