(* Tests for the workload library: app bodies on the native port and the
   traffic generators. *)

module Machine = Vmk_hw.Machine
module Nic = Vmk_hw.Nic
module Engine = Vmk_sim.Engine
module Counter = Vmk_trace.Counter
module Port_native = Vmk_guest.Port_native
module Apps = Vmk_workloads.Apps
module Traffic = Vmk_workloads.Traffic

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let on_native app =
  let mach = Machine.create ~seed:9L () in
  Port_native.run mach app;
  mach

let test_null_syscalls_counts () =
  let stats = Apps.stats () in
  let mach = on_native (Apps.null_syscalls ~stats ~iterations:25 ()) in
  check_int "completed" 25 stats.Apps.completed;
  check_int "errors" 0 stats.Apps.errors;
  check_int "gsys counter" 25 (Counter.get mach.Machine.counters "gsys.count")

let test_compute_burns () =
  let stats = Apps.stats () in
  let mach = on_native (Apps.compute ~stats ~iterations:10 ~work:1_000 ()) in
  check_int "completed" 10 stats.Apps.completed;
  check_bool "clock moved at least 10k" true (Machine.now mach >= 10_000L)

let test_blk_mix_verifies_readback () =
  let stats = Apps.stats () in
  let _mach = on_native (Apps.blk_mix ~stats ~ops:30 ~span:8 ~seed:3 ()) in
  check_int "completed all ops" 30 stats.Apps.completed;
  check_int "no corruption" 0 stats.Apps.errors;
  check_bool "bytes counted" true (stats.Apps.bytes = 30 * 512)

let test_blk_mix_base_offsets_disjoint () =
  (* Two runs with different bases on the same machine must not clash. *)
  let mach = Machine.create ~seed:9L () in
  let s1 = Apps.stats () and s2 = Apps.stats () in
  Port_native.run mach (fun () ->
      Apps.blk_mix ~stats:s1 ~base:0 ~ops:20 ~span:8 ~seed:1 () ();
      Apps.blk_mix ~stats:s2 ~base:1000 ~ops:20 ~span:8 ~seed:1 () ());
  check_int "first clean" 0 s1.Apps.errors;
  check_int "second clean" 0 s2.Apps.errors

let test_fs_churn_verifies () =
  let stats = Apps.stats () in
  let _mach = on_native (Apps.fs_churn ~stats ~files:3 ~blocks_per_file:4 ()) in
  check_int "no errors" 0 stats.Apps.errors;
  check_int "writes+reads" (3 * 4 * 2) stats.Apps.completed

let test_mixed_profile () =
  let stats = Apps.stats () in
  let mach =
    on_native
      (Apps.mixed ~stats ~rounds:20 ~syscalls_per_round:5 ~net_every:2
         ~blk_every:4 ())
  in
  check_int "no errors" 0 stats.Apps.errors;
  (* 20*5 getpids + 10 sends + 5 write/read pairs *)
  check_int "op count" ((20 * 5) + 10 + 10) stats.Apps.completed;
  check_bool "net tx happened" true (Nic.tx_submitted mach.Machine.nic = 10)

let test_traffic_constant_rate_gated () =
  let mach = Machine.create ~seed:9L () in
  let open_gate = ref false in
  let t =
    Traffic.constant_rate mach
      ~gate:(fun () -> !open_gate)
      ~period:1_000L ~len:100 ~count:5 ()
  in
  Machine.burn mach 10_000;
  check_int "gated: nothing injected" 0 (Traffic.injected t);
  open_gate := true;
  Machine.burn mach 10_000;
  check_int "all injected after gate" 5 (Traffic.injected t);
  check_bool "done" true (Traffic.done_ t);
  Machine.burn mach 10_000;
  check_int "stops at count" 5 (Traffic.injected t)

let test_traffic_poisson_reaches_count () =
  let mach = Machine.create ~seed:9L () in
  let t =
    Traffic.poisson_rate mach
      ~gate:(fun () -> true)
      ~mean_period:500.0 ~len:64 ~count:20 ()
  in
  Machine.burn mach 100_000;
  check_bool "all injected eventually" true (Traffic.done_ t);
  check_int "exactly count" 20 (Traffic.injected t)

let test_traffic_tags_carry_demux_key () =
  let mach = Machine.create ~seed:9L () in
  Nic.post_rx_buffer mach.Machine.nic
    (Vmk_hw.Frame.alloc mach.Machine.frames ~owner:"t" ());
  let _t =
    Traffic.constant_rate mach
      ~gate:(fun () -> true)
      ~period:100L ~len:64 ~count:1 ~key:7 ()
  in
  Machine.burn mach 1_000;
  match Nic.rx_ready mach.Machine.nic with
  | Some ev -> check_int "demux key" 7 (ev.Nic.tag / 1_000_000)
  | None -> Alcotest.fail "no packet"

(* --- Scenario generator (E22) --- *)

module Scenario = Vmk_workloads.Scenario
module Rng = Vmk_sim.Rng

let small_cfg =
  {
    Scenario.tenants = 4;
    guests = 4;
    mean_flow_gap = 5_000.0;
    zipf_alpha = 2.2;
    size_min = 1;
    size_max = 256;
    on_mean = 80_000.0;
    off_mean = 40_000.0;
    ramp = Scenario.diurnal;
    horizon = 2_000_000L;
  }

let test_scenario_same_seed_bit_for_bit () =
  let a = Scenario.generate ~seed:11L small_cfg in
  let b = Scenario.generate ~seed:11L small_cfg in
  check_int "same flow count" (Scenario.flows a) (Scenario.flows b);
  check_int "same fingerprint" (Scenario.fingerprint a)
    (Scenario.fingerprint b);
  for i = 0 to Scenario.flows a - 1 do
    if
      Scenario.at a i <> Scenario.at b i
      || Scenario.size a i <> Scenario.size b i
      || Scenario.tenant a i <> Scenario.tenant b i
      || Scenario.dst a i <> Scenario.dst b i
    then Alcotest.failf "flow %d differs between same-seed runs" i
  done;
  let c = Scenario.generate ~seed:12L small_cfg in
  check_bool "different seed diverges" true
    (Scenario.fingerprint a <> Scenario.fingerprint c)

let test_scenario_sorted_and_packed_fields () =
  let s = Scenario.generate ~seed:3L small_cfg in
  check_bool "nonempty" true (Scenario.flows s > 100);
  let total = ref 0 in
  for i = 0 to Scenario.flows s - 1 do
    if i > 0 && Scenario.at s i < Scenario.at s (i - 1) then
      Alcotest.fail "arrivals not sorted";
    let sz = Scenario.size s i
    and tn = Scenario.tenant s i
    and src = Scenario.src s i
    and dst = Scenario.dst s i in
    check_bool "size in bounds" true (sz >= 1 && sz <= 256);
    check_bool "tenant in range" true (tn >= 0 && tn < 4);
    check_int "src follows tenant" ((tn mod 4) + 1) src;
    check_bool "dst is another guest" true
      (dst >= 1 && dst <= 4 && dst <> src);
    total := !total + sz
  done;
  check_int "total_packets consistent" !total (Scenario.total_packets s)

let test_zipf_tail_exponent () =
  (* Rank-frequency sanity: for a bounded power law with density ~ s^-a,
     the ccdf slope between well-populated sizes approximates -(a-1). *)
  let rng = Rng.create ~seed:21L () in
  let n = 50_000 and alpha = 2.5 in
  let le8 = ref 0 and le64 = ref 0 in
  for _ = 1 to n do
    let v = Scenario.zipf rng ~alpha ~lo:1 ~hi:4096 in
    check_bool "in bounds" true (v >= 1 && v <= 4096);
    if v > 8 then incr le8;
    if v > 64 then incr le64
  done;
  let ccdf8 = float_of_int !le8 /. float_of_int n
  and ccdf64 = float_of_int !le64 /. float_of_int n in
  check_bool "tail populated" true (ccdf64 > 0.0);
  let slope = log (ccdf8 /. ccdf64) /. log (64.0 /. 8.0) in
  if abs_float (slope -. (alpha -. 1.0)) > 0.35 then
    Alcotest.failf "tail slope %.3f, expected ~%.1f" slope (alpha -. 1.0)

let test_scenario_poisson_mean () =
  (* Flat ramp, effectively always-ON single tenant: the flow count must
     match horizon/mean_gap within a few standard deviations. *)
  let cfg =
    {
      small_cfg with
      Scenario.tenants = 1;
      ramp = Scenario.flat;
      on_mean = 1e12;
      off_mean = 1.0;
      mean_flow_gap = 1_000.0;
      horizon = 20_000_000L;
    }
  in
  let s = Scenario.generate ~seed:4L cfg in
  let expected = 20_000.0 in
  let got = float_of_int (Scenario.flows s) in
  if abs_float (got -. expected) > 5.0 *. sqrt expected then
    Alcotest.failf "poisson count %.0f, expected %.0f +- %.0f" got expected
      (5.0 *. sqrt expected);
  check_bool "always on" true (Scenario.on_fraction s ~tenant:0 > 0.999)

let test_scenario_duty_cycle () =
  (* Long horizon, many dwell alternations: ON fraction ~ on/(on+off). *)
  let cfg =
    {
      small_cfg with
      Scenario.tenants = 2;
      ramp = Scenario.flat;
      on_mean = 50_000.0;
      off_mean = 150_000.0;
      horizon = 40_000_000L;
    }
  in
  let s = Scenario.generate ~seed:8L cfg in
  for tn = 0 to 1 do
    let f = Scenario.on_fraction s ~tenant:tn in
    if abs_float (f -. 0.25) > 0.08 then
      Alcotest.failf "tenant %d duty %.3f, expected ~0.25" tn f
  done

let test_scenario_tenant_rate_hook () =
  let cfg = { small_cfg with Scenario.ramp = Scenario.flat } in
  let s =
    Scenario.generate ~seed:5L
      ~tenant_rate:(fun tn -> if tn = 0 then 8.0 else 1.0)
      cfg
  in
  let per = Array.make 4 0 in
  Scenario.iter s (fun ~flow:_ ~at:_ ~tenant ~src:_ ~dst:_ ~size:_ ->
      per.(tenant) <- per.(tenant) + 1);
  check_bool "aggressor dominates" true
    (per.(0) > 3 * per.(1) && per.(0) > 3 * per.(2) && per.(0) > 3 * per.(3))

let test_traffic_replay_open_loop () =
  (* Replay injects the whole schedule against the NIC with no gate. *)
  let cfg =
    {
      small_cfg with
      Scenario.tenants = 2;
      guests = 2;
      mean_flow_gap = 20_000.0;
      size_max = 4;
      horizon = 400_000L;
    }
  in
  let s = Scenario.generate ~seed:6L cfg in
  check_bool "has flows" true (Scenario.flows s > 0);
  let mach = Machine.create ~seed:9L () in
  let arrivals = ref [] in
  let t =
    Traffic.replay mach s ~len:64 ~pkt_gap:100L
      ~on_inject:(fun ~tag ~at -> arrivals := (tag, at) :: !arrivals)
      ()
  in
  Machine.burn mach (Int64.to_int cfg.Scenario.horizon + 400_000);
  check_bool "open loop: everything went in" true (Traffic.done_ t);
  check_int "count = total packets" (Scenario.total_packets s)
    (Traffic.injected t)

(* E22's peak-hour test is integer compares against precomputed
   segment starts; it must agree with the float predicate it replaces
   on every cycle, so probe each start, its neighbours, and random
   cycles, over horizons whose divisions round differently. *)
let test_peak_cutoffs_match_ramp_mult () =
  let rng = Rng.create ~seed:31L () in
  List.iter
    (fun (ramp, horizon) ->
      let cfg = { small_cfg with Scenario.ramp; horizon } in
      let horizon_f = Int64.to_float horizon in
      let float_peak t0 =
        Scenario.ramp_mult cfg ~frac:(float_of_int t0 /. horizon_f) >= 0.95
      in
      let peak = Vmk_core.Exp_e22.peak_test cfg in
      let starts = Vmk_core.Exp_e22.segment_starts cfg in
      Array.iteri
        (fun k c ->
          let start = fst ramp.(k) in
          check_bool "start satisfies the predicate" true
            (float_of_int c /. horizon_f >= start);
          check_bool "start is the first such cycle" true
            (c = 0 || float_of_int (c - 1) /. horizon_f < start);
          List.iter
            (fun t0 ->
              if peak t0 <> float_peak t0 then
                Alcotest.failf "horizon %Ld: t0 = %d disagrees" horizon t0)
            [ c - 1; c; c + 1 ])
        starts;
      let span = Int64.to_int horizon + (Int64.to_int horizon / 4) + 1 in
      for _ = 1 to 2000 do
        let t0 = Rng.int rng span in
        if peak t0 <> float_peak t0 then
          Alcotest.failf "horizon %Ld: random t0 = %d disagrees" horizon t0
      done)
    [
      (Scenario.diurnal, 2_000_000L);
      (Scenario.diurnal, 1_234_567_891L);
      (Scenario.diurnal, 999_999_937L);
      (Scenario.diurnal, 7L);
      (Scenario.flat, 2_000_000L);
      (Scenario.flat, 1L);
    ]

let suite =
  [
    Alcotest.test_case "null_syscalls counts" `Quick test_null_syscalls_counts;
    Alcotest.test_case "compute burns" `Quick test_compute_burns;
    Alcotest.test_case "blk_mix verifies readback" `Quick
      test_blk_mix_verifies_readback;
    Alcotest.test_case "blk_mix disjoint bases" `Quick
      test_blk_mix_base_offsets_disjoint;
    Alcotest.test_case "fs_churn verifies" `Quick test_fs_churn_verifies;
    Alcotest.test_case "mixed profile" `Quick test_mixed_profile;
    Alcotest.test_case "traffic: constant rate gated" `Quick
      test_traffic_constant_rate_gated;
    Alcotest.test_case "traffic: poisson count" `Quick
      test_traffic_poisson_reaches_count;
    Alcotest.test_case "traffic: demux key" `Quick
      test_traffic_tags_carry_demux_key;
    Alcotest.test_case "scenario: same seed bit-for-bit" `Quick
      test_scenario_same_seed_bit_for_bit;
    Alcotest.test_case "scenario: sorted, packed fields" `Quick
      test_scenario_sorted_and_packed_fields;
    Alcotest.test_case "scenario: zipf tail exponent" `Quick
      test_zipf_tail_exponent;
    Alcotest.test_case "scenario: poisson mean" `Quick
      test_scenario_poisson_mean;
    Alcotest.test_case "scenario: on/off duty cycle" `Quick
      test_scenario_duty_cycle;
    Alcotest.test_case "scenario: tenant rate hook" `Quick
      test_scenario_tenant_rate_hook;
    Alcotest.test_case "traffic: replay is open-loop" `Quick
      test_traffic_replay_open_loop;
    Alcotest.test_case "scenario: E22 peak cutoffs match ramp_mult" `Quick
      test_peak_cutoffs_match_ramp_mult;
  ]
