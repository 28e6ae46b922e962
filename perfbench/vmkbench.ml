(* The benchmark's measuring process; perfbench/run.py drives it.

     vmkbench.exe setup               link and initialise everything, then exit
     vmkbench.exe workload NAME       run workload NAME once, untraced
     vmkbench.exe trace NAME SEED     the traced per-layer run

   Workloads call Vmk_core.Registry entries in-process:
     day    e22 with ~quick:true (a 20k-flow day)
     suite  the other 27 entries at full size
     quick  all 28 entries with ~quick:true

   Output is line-oriented, for run.py:
     exp SIZE ID WALL_NS HOLDS DIGEST   one per experiment call; DIGEST is the
                                        MD5 of the rendered pp_report text
     peak_rss_kb N                      VmHWM at exit (workload mode)
     check NAME 0|1                     a ledger correctness check
     metric NAME VALUE UNIT             a per-layer metric (trace mode)
   Lines starting with '#' are for people. *)

module Experiment = Vmk_core.Experiment
module Registry = Vmk_core.Registry
module Exp_e22 = Vmk_core.Exp_e22
module Scenario = Vmk_workloads.Scenario

let pr fmt = Printf.printf (fmt ^^ "\n%!")

(* --- workloads --- *)

let day = List.filter (fun e -> e.Experiment.id = "e22") Registry.all
let suite = List.filter (fun e -> e.Experiment.id <> "e22") Registry.all

let workload = function
  | "day" -> (true, day)
  | "suite" -> (false, suite)
  | "quick" -> (true, Registry.all)
  | w ->
      prerr_endline ("vmkbench: unknown workload " ^ w);
      exit 2

(* Run one experiment; only [run] is timed. *)
let run_exp ~quick e =
  let t0 = Span.now_ns () in
  let report = e.Experiment.run ~quick in
  let wall = Span.now_ns () - t0 in
  let text = Format.asprintf "%a" Experiment.pp_report (e, report) in
  pr "exp %s %s %d %d %s"
    (if quick then "quick" else "full")
    e.Experiment.id wall
    (if Experiment.all_hold report then 1 else 0)
    (Digest.to_hex (Digest.string text));
  wall

let peak_rss_kb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" Fun.id
    | _ -> find ()
    | exception End_of_file -> -1
  in
  let kb = find () in
  close_in ic;
  kb

let run_workload name =
  let quick, exps = workload name in
  List.iter (fun e -> ignore (run_exp ~quick e)) exps;
  pr "peak_rss_kb %d" (peak_rss_kb ())

(* --- traced run --- *)

let metric name unit v = pr "metric %s %.9g %s" name v unit
let check name ok = pr "check %s %d" name (if ok then 1 else 0)
let fdiv a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Every registry entry at full size with a span around [run]
   ([core.exp_s.<id>]); the Gc.quick_stat delta around the workload's
   own calls ([gc.*]). The workload's calls go first so [top_heap_mb]
   is its own high-water mark. *)
let trace_core name =
  let quick, own = workload name in
  let g0 = Gc.quick_stat () in
  let times = List.map (fun e -> (e.Experiment.id, run_exp ~quick e)) own in
  let g1 = Gc.quick_stat () in
  let rest =
    if quick then Registry.all
    else List.filter (fun e -> not (List.memq e own)) Registry.all
  in
  let times =
    (if quick then [] else times)
    @ List.map (fun e -> (e.Experiment.id, run_exp ~quick:false e)) rest
  in
  List.iter
    (fun e ->
      let id = e.Experiment.id in
      metric ("core.exp_s." ^ id) "s" (float_of_int (List.assoc id times) /. 1e9))
    Registry.all;
  metric "core.exp_max_s" "s"
    (float_of_int (List.fold_left (fun a (_, t) -> max a t) 0 times) /. 1e9);
  metric "gc.minor_mwords" "Mwords" ((g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6);
  metric "gc.promoted_mwords" "Mwords"
    ((g1.Gc.promoted_words -. g0.Gc.promoted_words) /. 1e6);
  metric "gc.major_collections" "count"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  metric "gc.top_heap_mb" "MB"
    (float_of_int (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0)

let ledger_flows = 60_000
let untraced_reps = 3

(* Host ns per packet of [Exp_e22.bench_slice]: the product's own packet
   path, the denominator of [ledger.coverage]. *)
let slice_ns_per_pkt stack =
  let pkts = Exp_e22.bench_slice ~stack () in
  let walls =
    List.init 5 (fun _ ->
        Gc.full_major ();
        let t0 = Span.now_ns () in
        ignore (Exp_e22.bench_slice ~stack ());
        float_of_int (Span.now_ns () - t0))
  in
  Micro.median walls /. float_of_int pkts

let trace_ledger ~seed ~stack ~sched =
  let sfx = "." ^ Ledger.stack_name stack in
  let off = Span.create ~on:false ~kinds:Ledger.kinds in
  let on = Span.create ~on:true ~kinds:Ledger.kinds in
  let tot = Span.empty_totals Ledger.kinds in
  let modes = [ Ledger.Naive; Ledger.Policied ] in
  (* Untraced reps: host ns and minor words per cell. *)
  let untraced mode =
    List.init untraced_reps (fun _ ->
        Gc.full_major ();
        let w0 = Gc.minor_words () in
        let t0 = Span.now_ns () in
        let r = Ledger.run_cell off ~stack ~mode ~sched in
        let wall = Span.now_ns () - t0 in
        (r, wall, Gc.minor_words () -. w0))
  in
  let cells =
    List.map
      (fun mode ->
        let plain = untraced mode in
        Gc.full_major ();
        let traced = Ledger.run_cell on ~stack ~mode ~sched in
        Span.summarize on tot;
        (mode, plain, traced))
      modes
  in
  let inj = List.fold_left (fun a (_, _, r) -> a + r.Ledger.r_injected) 0 cells in
  List.iter
    (fun (mode, plain, traced) ->
      let tag = Printf.sprintf "%s/%s/seed%d" (Ledger.stack_name stack)
          (Ledger.mode_name mode) seed in
      check ("conservation:" ^ tag)
        (List.for_all (fun (r, _, _) -> Ledger.conserved r) plain
        && Ledger.conserved traced);
      check ("trace_invariant:" ^ tag)
        (List.for_all
           (fun (r, _, _) -> r.Ledger.r_outcome = traced.Ledger.r_outcome)
           plain))
    cells;
  let per_rep f =
    List.init untraced_reps (fun i ->
        List.fold_left (fun a (_, plain, _) -> a +. f (List.nth plain i)) 0.0 cells)
  in
  let walls = per_rep (fun (_, w, _) -> float_of_int w) in
  let words = per_rep (fun (_, _, w) -> w) in
  let ns_per_pkt =
    Micro.median walls /. float_of_int inj
  and words_per_pkt = Micro.median words /. float_of_int inj in
  let calls k = tot.Span.calls.(k) in
  let mean_ns k = fdiv tot.Span.total_ns.(k) (calls k) in
  let traced_ns_per_pkt = fdiv tot.Span.total_ns.(Ledger.k_cell) inj in
  let maxr f = List.fold_left (fun a (_, _, r) -> max a (f r)) 0 cells in
  let sumr f = List.fold_left (fun a (_, _, r) -> a + f r) 0 cells in
  let m name unit v = metric (name ^ sfx) unit v in
  m "sim.at_ns" "ns" (mean_ns Ledger.k_at);
  m "sim.events_per_pkt" "events/pkt" (fdiv (calls Ledger.k_at) inj);
  m "sim.heap_peak" "events" (float_of_int (maxr (fun r -> r.Ledger.r_heap_peak)));
  m "smp.self_ns_per_pkt" "ns/pkt" (fdiv tot.Span.self_ns.(Ledger.k_run) inj);
  m "smp.post_ns" "ns" (mean_ns Ledger.k_post);
  m "smp.wakeups_per_pkt" "wakeups/pkt" (fdiv (calls Ledger.k_post) inj);
  m "smp.suspends_per_pkt" "calls/pkt"
    (fdiv
       (tot.Span.counted.(Ledger.k_recv) + tot.Span.counted.(Ledger.k_burn)
       + tot.Span.counted.(Ledger.k_locked))
       inj);
  m "overload.push_ns" "ns" (mean_ns Ledger.k_push);
  m "overload.pop_ns" "ns" (mean_ns Ledger.k_pop);
  m "overload.admit_ns" "ns" (mean_ns Ledger.k_admit);
  m "overload.queue_peak" "pkts" (float_of_int (maxr (fun r -> r.Ledger.r_queue_peak)));
  m "overload.shed_ratio" "frac"
    (fdiv (sumr (fun r -> r.Ledger.r_shed + r.Ledger.r_drops)) inj);
  m "vnet.forward_ns" "ns" (mean_ns Ledger.k_forward);
  m "vnet.discard_ns" "ns" (mean_ns Ledger.k_discard);
  m "vnet.words_per_pkt" "words/pkt"
    (fdiv
       (tot.Span.total_w.(Ledger.k_forward) + tot.Span.total_w.(Ledger.k_discard))
       (calls Ledger.k_forward));
  m "vnet.switch_create_us" "us" (mean_ns Ledger.k_sw_create /. 1e3);
  m "stats.sketch_add_ns" "ns" (mean_ns Ledger.k_sk_add);
  m "stats.merge_us" "us" (mean_ns Ledger.k_sk_merge /. 1e3);
  m "stats.sketch_create_us" "us" (mean_ns Ledger.k_sk_create /. 1e3);
  m "ledger.ns_per_pkt" "ns/pkt" ns_per_pkt;
  m "ledger.words_per_pkt" "words/pkt" words_per_pkt;
  m "ledger.traced_ns_per_pkt" "ns/pkt" traced_ns_per_pkt;
  m "ledger.trace_overhead" "frac" ((traced_ns_per_pkt /. ns_per_pkt) -. 1.0);
  m "ledger.coverage" "frac"
    (ns_per_pkt
    /. slice_ns_per_pkt
         (match stack with Ledger.Vmm -> Exp_e22.Vmm | Ledger.Uk -> Exp_e22.Uk));
  (* The per-layer table: self time and words per injected packet. *)
  pr "# ledger %s: %d packets over %d traced cells, %.0f ns/pkt traced"
    (Ledger.stack_name stack) inj (List.length cells) traced_ns_per_pkt;
  pr "# %-20s %10s %12s %12s %8s" "span" "calls/pkt" "self ns/pkt"
    "self w/pkt" "share";
  Array.iteri
    (fun k name ->
      let c = calls k + tot.Span.counted.(k) in
      if c > 0 then
        pr "# %-20s %10.3f %12.1f %12.1f %7.1f%%" name (fdiv c inj)
          (fdiv tot.Span.self_ns.(k) inj)
          (fdiv tot.Span.self_w.(k) inj)
          (100.0 *. fdiv tot.Span.self_ns.(k) tot.Span.total_ns.(Ledger.k_cell)))
    Ledger.kind_names

let run_trace name seed =
  trace_core name;
  let cfg = Ledger.day_config ~flows:ledger_flows in
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let t0 = Span.now_ns () in
  let sched = Scenario.generate ~seed:(Int64.of_int seed) cfg in
  let gen_ns = Span.now_ns () - t0 in
  let gen_w = Gc.minor_words () -. w0 in
  metric "workloads.generate_s" "s" (float_of_int gen_ns /. 1e9);
  metric "workloads.words_per_flow" "words/flow"
    (gen_w /. float_of_int (Scenario.flows sched));
  List.iter
    (fun stack -> trace_ledger ~seed ~stack ~sched)
    [ Ledger.Vmm; Ledger.Uk ];
  List.iter (fun (name, unit, v) -> metric name unit v) (Micro.metrics ())

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "setup" ] -> ()
  | [ "workload"; name ] -> run_workload name
  | [ "trace"; name; seed ] -> run_trace name (int_of_string seed)
  | _ ->
      prerr_endline "usage: vmkbench.exe (setup | workload NAME | trace NAME SEED)";
      exit 2
