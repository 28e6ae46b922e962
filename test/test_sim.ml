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
  check_int "min_time_or empty" 7 (Heap.min_time_or h 7)

let test_heap_orders_by_time () =
  let h = Heap.create () in
  Heap.push h ~time:30 ~arg:0 "c";
  Heap.push h ~time:10 ~arg:0 "a";
  Heap.push h ~time:20 ~arg:0 "b";
  let order = List.init 3 (fun _ -> Heap.pop_exn h) in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] order

let test_heap_fifo_on_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~time:5 ~arg:0 v) [ 1; 2; 3; 4 ];
  let order = List.init 4 (fun _ -> Heap.pop_exn h) in
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3; 4 ] order

let test_heap_length_and_clear () =
  let h = Heap.create () in
  for i = 1 to 100 do
    Heap.push h ~time:i ~arg:0 i
  done;
  check_int "length" 100 (Heap.length h);
  Heap.clear h;
  check_int "cleared" 0 (Heap.length h)

let prop_heap_pops_sorted =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let h = Heap.create () in
      List.iteri (fun i t -> Heap.push h ~time:t ~arg:0 i) times;
      let rec drain last =
        Heap.is_empty h
        ||
        let t = Heap.min_time_or h max_int in
        ignore (Heap.pop_exn h);
        last <= t && drain t
      in
      drain min_int)

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

(* --- allocation --- *)

let test_heap_push_pop_allocation_free () =
  let h = Heap.create () in
  for i = 0 to 63 do
    Heap.push h ~time:i ~arg:0 i
  done;
  while not (Heap.is_empty h) do
    ignore (Heap.pop_exn h)
  done;
  let cycle () =
    for i = 1 to 1000 do
      Heap.push h ~time:7 ~arg:i i;
      Heap.push h ~time:5 ~arg:i i;
      ignore (Heap.pop_exn h);
      ignore (Heap.pop_exn h)
    done
  in
  check_int "minor words for 2000 push/pop pairs" 0 (Alloc.words cycle);
  check_bool "drained" true (Heap.is_empty h)

let test_heap_payload_follows_entry () =
  let h = Heap.create () in
  List.iter
    (fun (time, arg) -> Heap.push h ~time ~arg (string_of_int arg))
    [ (30, 3); (10, 1); (20, 2); (10, 4) ];
  let popped =
    List.init 4 (fun _ ->
        let due = Heap.min_time_or h (-1) and arg = Heap.top_arg h in
        (due, arg, Heap.pop_exn h))
  in
  Alcotest.(check (list (triple int int string)))
    "time order, FIFO ties, payload kept"
    [ (10, 1, "1"); (10, 4, "4"); (20, 2, "2"); (30, 3, "3") ]
    popped;
  check_int "empty sentinel" (-1) (Heap.min_time_or h (-1))

let test_engine_int_events_in_order () =
  (* Int events and thunks share one queue and one insertion order. *)
  let e = Engine.create () in
  let log = ref [] in
  let h = Engine.handler e (fun _ arg -> log := arg :: !log) in
  Engine.at_int e 20 h 2;
  Engine.at e 10L (fun () -> log := 1 :: !log);
  Engine.at_int e 10 h 11;
  Engine.at e 20L (fun () -> log := 22 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "order" [ 1; 11; 2; 22 ] (List.rev !log)

let test_engine_int_event_reschedules_itself () =
  let e = Engine.create () in
  let fired = ref [] in
  let h =
    Engine.handler e (fun self n ->
        fired := (n, Engine.now e) :: !fired;
        if n < 3 then Engine.at_int e ((n + 1) * 100) self (n + 1))
  in
  Engine.at_int e 100 h 1;
  Engine.run e;
  Alcotest.(check (list (pair int int64)))
    "chain" [ (1, 100L); (2, 200L); (3, 300L) ] (List.rev !fired)

let test_engine_int_events_allocation_free () =
  let e = Engine.create () in
  let sum = ref 0 in
  let h = Engine.handler e (fun _ arg -> sum := !sum + arg) in
  for i = 1 to 64 do
    Engine.at_int e 0 h i
  done;
  Engine.dispatch_due e;
  let cycle () =
    for i = 1 to 1000 do
      Engine.at_int e 0 h i;
      Engine.at_int e 0 h i;
      Engine.dispatch_due e
    done
  in
  let words = Alloc.words cycle in
  check_int "minor words for 2000 scheduled + dispatched events" 0 words;
  check_int "every event fired" ((64 * 65 / 2) + (1000 * 1001)) !sum

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
    Alcotest.test_case "heap: push/pop allocation-free after growth" `Quick
      test_heap_push_pop_allocation_free;
    Alcotest.test_case "heap: int payload follows its entry" `Quick
      test_heap_payload_follows_entry;
    Alcotest.test_case "engine: int events share the queue order" `Quick
      test_engine_int_events_in_order;
    Alcotest.test_case "engine: int event reschedules itself" `Quick
      test_engine_int_event_reschedules_itself;
    Alcotest.test_case "engine: int events allocation-free" `Quick
      test_engine_int_events_allocation_free;
  ]
