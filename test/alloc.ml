(* Exact minor-heap allocation of a closure, for zero-allocation
   assertions. Reading [Gc.minor_words] boxes one float; that constant
   is measured with an empty bracket and subtracted, so a closure that
   allocates nothing reads exactly 0. Build the closure before calling
   [words]: only what running it allocates is counted. *)

let words f =
  let c0 = Gc.minor_words () in
  let c1 = Gc.minor_words () in
  let overhead = c1 -. c0 in
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  int_of_float (w1 -. w0 -. overhead)
