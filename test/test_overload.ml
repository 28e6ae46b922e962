(* The overload policy library (E15): deterministic token buckets,
   bounded queues with explicit full-queue policies, seeded backoff —
   and the end-to-end property that a policied overload run replays
   bit-for-bit, jitter included. *)

module Machine = Vmk_hw.Machine
module Nic = Vmk_hw.Nic
module Rng = Vmk_sim.Rng
module Counter = Vmk_trace.Counter
module Kernel = Vmk_ukernel.Kernel
module Sysif = Vmk_ukernel.Sysif
module Net_server = Vmk_ukernel.Net_server
module Port_l4 = Vmk_guest.Port_l4
module Traffic = Vmk_workloads.Traffic
module Apps = Vmk_workloads.Apps
module Overload = Vmk_overload.Overload
module Tb = Overload.Token_bucket
module Bq = Overload.Bounded_queue

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- token bucket --- *)

let test_bucket_burst_then_rate () =
  let b = Tb.create ~period:100L ~burst:2 () in
  check_bool "burst admits" true (Tb.admit b ~now:0L);
  check_bool "burst admits twice" true (Tb.admit b ~now:0L);
  check_bool "third is shed" false (Tb.admit b ~now:0L);
  check_bool "still dry before refill" false (Tb.admit b ~now:99L);
  check_bool "one token after a period" true (Tb.admit b ~now:100L);
  check_bool "and only one" false (Tb.admit b ~now:100L);
  (* A long idle gap refills only up to burst. *)
  check_int "capped refill" 2 (Tb.available b ~now:10_000L);
  check_int "admitted tally" 3 (Tb.admitted b);
  check_int "denied tally" 3 (Tb.denied b)

let prop_bucket_rate_bound =
  QCheck.Test.make ~name:"token bucket: admitted <= burst + w/period + 1"
    ~count:200
    QCheck.(
      triple (int_range 1 50) (int_range 1 8)
        (list_of_size Gen.(1 -- 60) (int_range 0 30)))
    (fun (period, burst, gaps) ->
      let b = Tb.create ~period:(Int64.of_int period) ~burst () in
      let now = ref 0L in
      let admitted = ref 0 in
      List.iter
        (fun gap ->
          now := Int64.add !now (Int64.of_int gap);
          if Tb.admit b ~now:!now then incr admitted)
        gaps;
      let w = Int64.to_int !now in
      !admitted <= burst + (w / period) + 1)

(* --- bounded queue --- *)

let test_queue_reject () =
  let q = Bq.create ~capacity:2 () in
  check_bool "first accepted" true (Bq.push q ~now:0L 1 = Bq.Accepted);
  check_bool "second accepted" true (Bq.push q ~now:0L 2 = Bq.Accepted);
  check_bool "full rejects the newest" true (Bq.push q ~now:0L 3 = Bq.Rejected);
  check_int "length bounded" 2 (Bq.length q);
  check_bool "FIFO kept" true (Bq.pop q = Some 1);
  check_bool "after a pop there is room" true (Bq.push q ~now:1L 4 = Bq.Accepted);
  check_int "rejected tally" 1 (Bq.rejected q);
  check_int "peak" 2 (Bq.peak q)

let test_queue_drop_oldest () =
  let q = Bq.create ~policy:Bq.Drop_oldest ~capacity:2 () in
  ignore (Bq.push q ~now:0L 1);
  ignore (Bq.push q ~now:0L 2);
  check_bool "full displaces the head" true (Bq.push q ~now:0L 3 = Bq.Displaced 1);
  check_bool "fresh data won" true (Bq.pop q = Some 2);
  check_bool "newest survived" true (Bq.pop q = Some 3);
  check_int "displaced tally" 1 (Bq.displaced q)

let test_queue_deadline () =
  let q = Bq.create ~policy:(Bq.Block_with_deadline 500L) ~capacity:1 () in
  ignore (Bq.push q ~now:0L 1);
  check_bool "full returns the retry deadline" true
    (Bq.push q ~now:100L 2 = Bq.Retry_until 600L);
  check_int "nothing was enqueued" 1 (Bq.length q)

let prop_queue_bounded =
  QCheck.Test.make
    ~name:"bounded queue: length and peak never exceed capacity" ~count:200
    QCheck.(
      pair (int_range 1 6)
        (list_of_size Gen.(1 -- 80) (pair bool (int_range 0 100))))
    (fun (capacity, ops) ->
      let policies =
        [ Bq.Reject; Bq.Drop_oldest; Bq.Block_with_deadline 10L ]
      in
      List.for_all
        (fun policy ->
          let q = Bq.create ~policy ~capacity () in
          let now = ref 0L in
          List.for_all
            (fun (is_push, v) ->
              now := Int64.add !now 1L;
              if is_push then ignore (Bq.push q ~now:!now v)
              else ignore (Bq.pop q);
              Bq.length q <= capacity && Bq.peak q <= capacity)
            ops)
        policies)

let test_queue_peak_counter () =
  let c = Counter.create_set () in
  Overload.note_queue_peak c ~name:"rx" 3;
  Overload.note_queue_peak c ~name:"rx" 7;
  Overload.note_queue_peak c ~name:"rx" 5;
  check_int "counter keeps the maximum" 7
    (Counter.get c (Overload.queue_peak_prefix ^ "rx"))

(* --- backoff --- *)

let test_backoff_replays () =
  let schedule seed =
    let mach = Machine.create ~seed () in
    let b =
      Overload.Backoff.create ~attempts:6 ~base:100L ~cap:1_000L
        (Rng.split mach.Machine.rng)
    in
    List.init 5 (fun n -> Overload.Backoff.delay b ~attempt:n)
  in
  check_bool "same seed, same delays (jitter included)" true
    (schedule 9L = schedule 9L);
  check_bool "different seed, different jitter" true
    (schedule 9L <> schedule 10L)

let test_backoff_run_counts () =
  let mach = Machine.create ~seed:5L () in
  let counters = mach.Machine.counters in
  let b =
    Overload.Backoff.create ~attempts:5 ~base:100L ~jitter:1
      (Rng.split mach.Machine.rng)
  in
  let slept = ref 0L in
  let tries = ref 0 in
  let try_once () =
    incr tries;
    if !tries < 4 then None else Some !tries
  in
  let result =
    Overload.Backoff.run b ~counters ~sleep:(fun d -> slept := Int64.add !slept d)
      try_once
  in
  check_bool "succeeded on the fourth attempt" true (result = Some 4);
  check_int "three retries counted" 3 (Counter.get counters Overload.retry_counter);
  check_bool "waited the scheduled cycles" true
    (Int64.of_int (Counter.get counters Overload.backoff_counter) = !slept);
  (* Exhausting the budget gives up with None. *)
  let b2 =
    Overload.Backoff.create ~attempts:2 ~base:10L (Rng.split mach.Machine.rng)
  in
  check_bool "gives up after the budget" true
    (Overload.Backoff.run b2 ~counters ~sleep:(fun _ -> ()) (fun () -> None)
    = None)

(* --- kernel send timeout --- *)

let test_send_timeout_drops_sender () =
  let mach = Machine.create ~seed:6L () in
  let k = Kernel.create mach in
  let receiver =
    Kernel.spawn k ~name:"deaf" (fun () ->
        (* Busy elsewhere while the sender waits, then finally listen:
           the timed-out sender must be gone from the queue. *)
        Sysif.sleep 10_000L;
        match Sysif.recv ~timeout:1_000L Sysif.Any with
        | _ -> ()
        | exception Sysif.Ipc_error _ -> ())
  in
  let timed_out = ref false in
  let _sender =
    Kernel.spawn k ~name:"sender" (fun () ->
        match Sysif.send ~timeout:1_000L receiver (Sysif.msg 7) with
        | () -> ()
        | exception Sysif.Ipc_error Sysif.Timeout -> timed_out := true)
  in
  ignore (Kernel.run k);
  check_bool "send timed out" true !timed_out;
  check_int "send timeout itemized" 1
    (Counter.get mach.Machine.counters "uk.ipc.send_timeout")

(* --- end-to-end replay --- *)

(* A policied microkernel stack under 4x overload, twice from the same
   seed: wall clock, every counter (drops, sheds, retries, backoff
   cycles, queue peaks) and the app's arrival record must be identical
   bit-for-bit. *)
let overloaded_run () =
  let mach = Machine.create ~seed:99L () in
  let k = Kernel.create mach in
  let admit = Tb.create ~period:4_000L ~burst:4 () in
  let net =
    Kernel.spawn k ~name:"net-server" ~priority:2 ~account:Net_server.account
      (fun () -> Net_server.body mach ~admit ~rx_capacity:8 ())
  in
  let retry =
    Port_l4.retry ~mach ~attempts:3 ~timeout:200_000L ~base_delay:10_000L
      (Rng.split mach.Machine.rng)
  in
  let gk =
    Kernel.spawn k ~name:"guest-kernel" ~priority:3 ~account:Port_l4.gk_account
      (Port_l4.guest_kernel_body ~retry ~net:(Some net) ~blk:None)
  in
  let arrivals = ref [] in
  let completed = ref false in
  let _app =
    Kernel.spawn k ~name:"app" ~priority:4 ~account:"app"
      (Port_l4.app_body mach ~gk (fun () ->
           Apps.net_rx_probe
             ~now:(fun () -> Machine.now mach)
             ~record:(fun ~tag ~at -> arrivals := (tag, at) :: !arrivals)
             ~packets:40 () ();
           completed := true))
  in
  let _src =
    Traffic.constant_rate mach
      ~gate:(fun () -> Nic.rx_buffers_posted mach.Machine.nic > 0)
      ~period:1_000L ~len:256 ~count:40 ()
  in
  ignore (Kernel.run k ~until:(fun () -> !completed));
  ignore (Kernel.run k ~max_dispatches:100_000);
  ( Machine.now mach,
    Counter.to_list mach.Machine.counters,
    List.sort compare !arrivals )

let test_overload_run_replays () =
  let a = overloaded_run () in
  let b = overloaded_run () in
  let wall_a, counters_a, arrivals_a = a in
  let _, _, _ = b in
  check_bool "same seed, same overloaded run" true (a = b);
  check_bool "the run did shed or drop" true
    (List.exists
       (fun (name, _) ->
         name = Overload.shed_counter || name = Overload.drop_counter)
       counters_a);
  check_bool "virtual time advanced" true (Int64.compare wall_a 0L > 0);
  check_bool "packets arrived" true (arrivals_a <> [])

let test_queue_push_pop_exn_allocation_free () =
  let q = Bq.create ~capacity:64 () in
  for i = 1 to 64 do
    ignore (Bq.push q ~now:0L i)
  done;
  while not (Bq.is_empty q) do
    ignore (Bq.pop_exn q)
  done;
  let sum = ref 0 in
  let cycle () =
    for i = 1 to 1000 do
      ignore (Bq.push q ~now:0L i);
      sum := !sum + Bq.pop_exn q
    done
  in
  check_int "minor words for 1000 push/pop_exn pairs" 0 (Alloc.words cycle);
  check_int "FIFO values" (1000 * 1001 / 2) !sum;
  Alcotest.check_raises "empty" Bq.Empty (fun () -> ignore (Bq.pop_exn q))

let suite =
  [
    Alcotest.test_case "bucket: burst then steady rate" `Quick
      test_bucket_burst_then_rate;
    QCheck_alcotest.to_alcotest prop_bucket_rate_bound;
    Alcotest.test_case "queue: reject policy" `Quick test_queue_reject;
    Alcotest.test_case "queue: drop-oldest policy" `Quick
      test_queue_drop_oldest;
    Alcotest.test_case "queue: block-with-deadline policy" `Quick
      test_queue_deadline;
    QCheck_alcotest.to_alcotest prop_queue_bounded;
    Alcotest.test_case "queue peak counter keeps the max" `Quick
      test_queue_peak_counter;
    Alcotest.test_case "backoff: jitter replays from the seed" `Quick
      test_backoff_replays;
    Alcotest.test_case "backoff: run itemizes retries and cycles" `Quick
      test_backoff_run_counts;
    Alcotest.test_case "kernel: send timeout drops the queued sender" `Quick
      test_send_timeout_drops_sender;
    Alcotest.test_case "policied overload run replays bit-for-bit" `Quick
      test_overload_run_replays;
    Alcotest.test_case "queue: push/pop_exn allocation-free" `Quick
      test_queue_push_pop_exn_allocation_free;
  ]
