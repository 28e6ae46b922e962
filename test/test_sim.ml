(* Unit and property tests for the simulation substrate: clock, heap,
   engine, RNG. *)

open Vmk_sim

let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)
let check_bool = Alcotest.(check bool)

(* --- Clock --- *)

let test_clock_starts_at_zero () =
  let c = Clock.create () in
  check_i64 "fresh clock" 0L (Clock.now c)

let test_clock_advance () =
  let c = Clock.create () in
  Clock.advance c 10L;
  Clock.advance c 32L;
  check_i64 "cumulative" 42L (Clock.now c)

let test_clock_advance_negative_rejected () =
  let c = Clock.create () in
  Alcotest.check_raises "negative advance"
    (Invalid_argument "Clock.advance: negative cycle count") (fun () ->
      Clock.advance c (-1L))

let test_clock_advance_to_is_monotonic () =
  let c = Clock.create () in
  Clock.advance_to c 100L;
  Clock.advance_to c 50L;
  check_i64 "never rewinds" 100L (Clock.now c)

let test_clock_reset () =
  let c = Clock.create () in
  Clock.advance c 5L;
  Clock.reset c;
  check_i64 "reset" 0L (Clock.now c)

(* --- Heap --- *)

let test_heap_empty () =
  let h : int Heap.t = Heap.create () in
  check_bool "is_empty" true (Heap.is_empty h);
  Alcotest.check_raises "pop_exn empty" Heap.Empty (fun () ->
      ignore (Heap.pop_exn h));
  check_i64 "min_time_or empty" 7L (Heap.min_time_or h 7L)

let test_heap_orders_by_time () =
  let h = Heap.create () in
  Heap.push h ~time:30L "c";
  Heap.push h ~time:10L "a";
  Heap.push h ~time:20L "b";
  let order = List.init 3 (fun _ -> Heap.pop_exn h) in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] order

let test_heap_fifo_on_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~time:5L v) [ 1; 2; 3; 4 ];
  let order = List.init 4 (fun _ -> Heap.pop_exn h) in
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3; 4 ] order

let test_heap_length_and_clear () =
  let h = Heap.create () in
  for i = 1 to 100 do
    Heap.push h ~time:(Int64.of_int i) i
  done;
  check_int "length" 100 (Heap.length h);
  Heap.clear h;
  check_int "cleared" 0 (Heap.length h)

let prop_heap_pops_sorted =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let h = Heap.create () in
      List.iteri (fun i t -> Heap.push h ~time:(Int64.of_int t) i) times;
      let rec drain last =
        Heap.is_empty h
        ||
        let t = Heap.min_time_or h Int64.max_int in
        ignore (Heap.pop_exn h);
        Int64.compare last t <= 0 && drain t
      in
      drain Int64.min_int)

(* --- Engine --- *)

let test_engine_fires_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.at e 20L (fun () -> log := 20 :: !log);
  Engine.at e 10L (fun () -> log := 10 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "order" [ 10; 20 ] (List.rev !log);
  check_i64 "clock at last event" 20L (Engine.now e)

let test_engine_burn_dispatches_due () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.after e 50L (fun () -> fired := true);
  Engine.burn e 49L;
  check_bool "not yet" false !fired;
  Engine.burn e 1L;
  check_bool "fired at due time" true !fired

let test_engine_events_can_reschedule () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec step () =
    incr count;
    if !count < 5 then Engine.after e 10L step
  in
  Engine.after e 10L step;
  Engine.run e;
  check_int "chain of events" 5 !count;
  check_i64 "time" 50L (Engine.now e)

let test_engine_every_stops_on_false () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.every e 10L (fun () ->
      incr count;
      !count < 3);
  Engine.run e;
  check_int "three ticks" 3 !count

let test_engine_run_until_limit () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.at e 10L (fun () -> incr fired);
  Engine.at e 100L (fun () -> incr fired);
  Engine.run ~until:50L e;
  check_int "only events within limit" 1 !fired;
  check_int "one still queued" 1 (Engine.pending e)

let test_engine_idle_to_next () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.at e 1000L (fun () -> fired := true);
  check_bool "advanced" true (Engine.idle_to_next e);
  check_bool "event ran" true !fired;
  check_i64 "clock skipped ahead" 1000L (Engine.now e);
  check_bool "empty now" false (Engine.idle_to_next e)

let test_engine_past_event_fires_on_next_dispatch () =
  let e = Engine.create () in
  Engine.burn e 100L;
  let fired = ref false in
  Engine.at e 10L (fun () -> fired := true);
  Engine.dispatch_due e;
  check_bool "late event still fires" true !fired

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7L () and b = Rng.create ~seed:7L () in
  let xs = List.init 32 (fun _ -> Rng.int32 a) in
  let ys = List.init 32 (fun _ -> Rng.int32 b) in
  check_bool "same seed, same stream" true (xs = ys)

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1L () and b = Rng.create ~seed:2L () in
  let xs = List.init 8 (fun _ -> Rng.int32 a) in
  let ys = List.init 8 (fun _ -> Rng.int32 b) in
  check_bool "different streams" false (xs = ys)

let test_rng_split_independent () =
  let a = Rng.create ~seed:3L () in
  let b = Rng.split a in
  let xs = List.init 8 (fun _ -> Rng.int32 a) in
  let ys = List.init 8 (fun _ -> Rng.int32 b) in
  check_bool "split stream differs" false (xs = ys)

let test_rng_int_bound_zero_rejected () =
  let r = Rng.create () in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int stays in [0, bound)" ~count:500
    QCheck.(pair (int_bound 1_000_000) small_int)
    (fun (seed, bound) ->
      let bound = bound + 1 in
      let r = Rng.create ~seed:(Int64.of_int seed) () in
      let x = Rng.int r bound in
      x >= 0 && x < bound)

let prop_rng_int64_range =
  QCheck.Test.make ~name:"Rng.int64_range stays in range" ~count:500
    QCheck.(triple small_int small_int small_int)
    (fun (seed, a, b) ->
      let lo = Int64.of_int (min a b) and hi = Int64.of_int (max a b) in
      let r = Rng.create ~seed:(Int64.of_int seed) () in
      let x = Rng.int64_range r lo hi in
      Int64.compare lo x <= 0 && Int64.compare x hi <= 0)

let test_rng_exponential_positive () =
  let r = Rng.create () in
  for _ = 1 to 1000 do
    let x = Rng.exponential r ~mean:100.0 in
    if x < 0.0 then Alcotest.fail "negative exponential draw"
  done

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:11L () in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:50.0
  done;
  let mean = !sum /. float_of_int n in
  check_bool "mean within 5%" true (abs_float (mean -. 50.0) < 2.5)

let test_rng_shuffle_permutes () =
  let r = Rng.create ~seed:5L () in
  let arr = Array.init 20 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 20 (fun i -> i)) sorted

let test_rng_pick_from_singleton () =
  let r = Rng.create () in
  check_int "only choice" 9 (Rng.pick r [| 9 |])

let suite =
  [
    Alcotest.test_case "clock: starts at zero" `Quick test_clock_starts_at_zero;
    Alcotest.test_case "clock: advance accumulates" `Quick test_clock_advance;
    Alcotest.test_case "clock: negative advance rejected" `Quick
      test_clock_advance_negative_rejected;
    Alcotest.test_case "clock: advance_to monotonic" `Quick
      test_clock_advance_to_is_monotonic;
    Alcotest.test_case "clock: reset" `Quick test_clock_reset;
    Alcotest.test_case "heap: empty behaviour" `Quick test_heap_empty;
    Alcotest.test_case "heap: orders by time" `Quick test_heap_orders_by_time;
    Alcotest.test_case "heap: FIFO on equal times" `Quick test_heap_fifo_on_ties;
    Alcotest.test_case "heap: length and clear" `Quick test_heap_length_and_clear;
    QCheck_alcotest.to_alcotest prop_heap_pops_sorted;
    Alcotest.test_case "engine: fires in order" `Quick test_engine_fires_in_order;
    Alcotest.test_case "engine: burn dispatches due events" `Quick
      test_engine_burn_dispatches_due;
    Alcotest.test_case "engine: events reschedule" `Quick
      test_engine_events_can_reschedule;
    Alcotest.test_case "engine: every stops on false" `Quick
      test_engine_every_stops_on_false;
    Alcotest.test_case "engine: run ~until" `Quick test_engine_run_until_limit;
    Alcotest.test_case "engine: idle_to_next" `Quick test_engine_idle_to_next;
    Alcotest.test_case "engine: past event fires" `Quick
      test_engine_past_event_fires_on_next_dispatch;
    Alcotest.test_case "rng: deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: seeds differ" `Quick test_rng_seeds_differ;
    Alcotest.test_case "rng: split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "rng: zero bound rejected" `Quick
      test_rng_int_bound_zero_rejected;
    QCheck_alcotest.to_alcotest prop_rng_int_in_bounds;
    QCheck_alcotest.to_alcotest prop_rng_int64_range;
    Alcotest.test_case "rng: exponential positive" `Quick
      test_rng_exponential_positive;
    Alcotest.test_case "rng: exponential mean" `Quick test_rng_exponential_mean;
    Alcotest.test_case "rng: shuffle permutes" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "rng: pick singleton" `Quick test_rng_pick_from_singleton;
  ]
