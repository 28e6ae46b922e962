(* E15: end-to-end overload robustness. Sweep offered network load from
   0.25x to 8x of the admission-policy capacity on both structures, with
   and without the overload policies of [lib/overload], and measure how
   goodput degrades past saturation.

   The metric is TIMELY goodput: a packet counts only if it reaches the
   application within [latency_budget] cycles of hitting the wire. Raw
   delivery counts hide the failure mode of an unpoliced stack — nothing
   is dropped, the backlog is simply delivered arbitrarily late — so the
   latency budget is what turns queueing-delay blowup into measurable
   collapse, mirroring how [MR96] diagnose receive livelock.

   Naive configurations: the VMM runs a CPU-boosted Dom0 (the backend
   monopolizes the processor under load, starving the guest that must
   consume the packets) and the microkernel net server queues received
   packets without bound. Policied configurations add token-bucket
   admission at the backend/server IRQ path (shed cheap, before the
   expensive per-packet work), a bounded drop-oldest receive queue, and
   client-side retry with seeded exponential backoff. *)

module Table = Vmk_stats.Table
module Summary = Vmk_stats.Summary
module Machine = Vmk_hw.Machine
module Nic = Vmk_hw.Nic
module Rng = Vmk_sim.Rng
module Counter = Vmk_trace.Counter
module Overload = Vmk_overload.Overload
module Port_l4 = Vmk_guest.Port_l4
module Traffic = Vmk_workloads.Traffic
module Apps = Vmk_workloads.Apps

type stack = Scenario.stack = Vmm | Uk
type mode = Naive | Policied

let stacks = [ Vmm; Uk ]
let modes = [ Naive; Policied ]
let mode_label = function Naive -> "naive" | Policied -> "policied"

let config_label stack mode =
  Printf.sprintf "%s/%s" (Scenario.stack_label stack) (mode_label mode)

(* 1x capacity: one packet per [capacity_period] cycles, which is also
   the token-bucket refill period of the policied configurations. The
   capacities differ per structure because the per-packet I/O path costs
   differ (the E3 result): the VMM's world switches, grant operations
   and page flips make its sustainable rate roughly half the
   microkernel's, and admission control is always provisioned against
   the stack's own measured capacity. The saturation-knee comparison
   between structures is therefore made in absolute offered load. *)
let capacity_period = function Vmm -> 60_000L | Uk -> 30_000L

let packet_len = 512
let latency_budget = 1_000_000L
let admit_burst = 16
let rx_queue_cap = 64

(* Offered-load multipliers as exact rationals num/den of the stack's
   capacity rate. The injection count scales with the rate so every run
   offers load for the same virtual window
   (count x period = base_count x capacity_period). *)
let mults = [ (1, 4); (1, 2); (1, 1); (2, 1); (4, 1); (8, 1) ]
let mult_value (n, d) = float_of_int n /. float_of_int d

let mult_label (n, d) =
  if d = 1 then Printf.sprintf "%dx" n else Printf.sprintf "%.2fx" (mult_value (n, d))

let period_of stack (n, d) =
  Int64.div
    (Int64.mul (capacity_period stack) (Int64.of_int d))
    (Int64.of_int n)

let count_of ~base (n, d) = base * n / d

(* --- the single-guest receive probe (E15, E16) --- *)

type 'a probe = {
  injected : int;
  received : int;
  timely : int;
  offered : float;  (** Injected packets per Mcycle of the offered window. *)
  goodput : float;  (** Timely packets per Mcycle of the offered window. *)
  p99 : float;  (** p99 delivery latency in cycles, over received packets. *)
  nic_drops : int;
  items : 'a;
  fp : Scenario.fingerprint;
}

type rig =
  traffic:Scenario.traffic_spec -> app:(unit -> unit) -> Scenario.outcome

(* Both structures in the naive overload configuration unless the caller
   adds policy: the VMM runs Dom0 at double the guest's scheduler weight
   (the backend path wins the CPU under load — the centralized-backend
   livelock configuration), the microkernel net server queues without
   bound. Neither has a blk channel, and the guest's 2M-cycle I/O
   timeout ends the app once traffic stops arriving. *)
let xen_rig ?net_admit ?net_napi ?net_poll ?mitigation ?deadline () : rig =
 fun ~traffic ~app ->
  Scenario.run_xen ~seed:41L ~blk:false ~dom0_weight:512
    ~io_timeout:2_000_000L ?net_admit ?net_napi ?net_poll ?mitigation
    ?deadline ~traffic ~app ()

let l4_rig ?admit ?rx_capacity ?napi ?poll ?retry ?mitigation ?deadline () :
    rig =
 fun ~traffic ~app ->
  Scenario.run_l4 ~seed:42L ~blk:false ?admit ?rx_capacity ?napi ?poll ?retry
    ?mitigation ?deadline ~traffic ~app ()

(* One run: a constant-rate source offers [count] packets, one per
   [period] cycles, and the guest app records each arrival. The gate
   latches open: once the stack is up, injection never pauses again, so
   NIC-level drops after that point are wire loss and count against the
   run. [items] itemizes the finished machine. *)
let rx_probe ~period ~count ~items (rig : rig) =
  let inject_times = Hashtbl.create 256 in
  let arrivals = ref [] in
  let wired = ref None in
  let traffic mach ~gate =
    let up = ref false in
    let gate () =
      if not !up then up := gate ();
      !up
    in
    let source =
      Traffic.constant_rate mach ~gate ~period ~len:packet_len ~count
        ~on_inject:(fun ~tag ~at -> Hashtbl.replace inject_times tag at)
        ()
    in
    wired := Some (mach, source);
    source
  in
  let app () =
    let mach, _ = Option.get !wired in
    Apps.net_rx_probe
      ~now:(fun () -> Machine.now mach)
      ~record:(fun ~tag ~at -> arrivals := (tag, at) :: !arrivals)
      ~packets:count () ()
  in
  ignore (rig ~traffic ~app);
  let mach, source = Option.get !wired in
  let arrivals = !arrivals and injected = Traffic.injected source in
  let duration = Int64.mul period (Int64.of_int count) in
  let latencies =
    List.rev_map
      (fun (tag, at) ->
        match Hashtbl.find_opt inject_times tag with
        | Some t0 -> Int64.sub at t0
        | None -> Int64.max_int)
      arrivals
  in
  let timely =
    List.length
      (List.filter (fun l -> Int64.compare l latency_budget <= 0) latencies)
  in
  let s = Summary.create () in
  List.iter (Summary.add_int64 s) latencies;
  let received = List.length arrivals in
  {
    injected;
    received;
    timely;
    offered = float_of_int injected *. 1e6 /. Int64.to_float duration;
    goodput = float_of_int timely *. 1e6 /. Int64.to_float duration;
    p99 = Summary.percentile s 99.0;
    nic_drops = Nic.rx_dropped mach.Machine.nic;
    items = items mach ~received;
    fp = Scenario.fingerprint mach ~packets:injected ~arrivals;
  }

(* Delivery efficiency: what fraction of what was actually offered
   arrived in time. *)
let efficiency r =
  if r.injected = 0 then 0.0 else float_of_int r.timely /. float_of_int r.injected

(* The capacity sweep is in multiples of each stack's own provisioned
   capacity, so the knees it finds are not comparable between
   structures. The knee probe drives the stacks at a common ladder of
   absolute rates spanning the gap the coarse sweep leaves between
   "fine at 4x" and "collapsed at 8x", and the knee is the first rung
   where timely efficiency falls below 0.9. *)
let probe_periods = [ 15_000L; 12_500L; 10_000L; 8_750L; 7_500L ]

let probe_runs ?(periods = probe_periods) ~base run =
  let window = Int64.mul 30_000L (Int64.of_int base) in
  List.map
    (fun period ->
      let count = Int64.to_int (Int64.div window period) in
      (period, run ~period ~count))
    periods

let knee runs =
  let rec find = function
    | [] -> infinity
    | (_, r) :: rest -> if efficiency r < 0.9 then r.offered else find rest
  in
  find runs

(* --- E15's configurations --- *)

type items = {
  drops : int;
  sheds : int;
  retries : int;
  backoff_cycles : int;
  queue_peak : int;
}

type run = items probe

let overload_items mach ~received:_ =
  let c = mach.Machine.counters in
  {
    drops = Counter.get c Overload.drop_counter + Nic.rx_dropped mach.Machine.nic;
    sheds = Counter.get c Overload.shed_counter;
    retries = Counter.get c Overload.retry_counter;
    backoff_cycles = Counter.get c Overload.backoff_counter;
    queue_peak = Counter.sum_matching c ~prefix:Overload.queue_peak_prefix;
  }

let admit_bucket stack =
  Overload.Token_bucket.create ~period:(capacity_period stack)
    ~burst:admit_burst ()

(* Policied adds token-bucket shedding at the backend/server IRQ path
   (ahead of the expensive per-packet work); on the microkernel also a
   bounded drop-oldest receive queue and busy replies retried on the
   seeded backoff schedule. *)
let run_mode stack mode ~period ~count : run =
  rx_probe ~period ~count ~items:overload_items
    (match (stack, mode) with
    | Vmm, Naive -> xen_rig ()
    | Vmm, Policied -> xen_rig ~net_admit:(admit_bucket Vmm) ()
    | Uk, Naive -> l4_rig ()
    | Uk, Policied ->
        l4_rig ~admit:(admit_bucket Uk) ~rx_capacity:rx_queue_cap
          ~retry:(fun mach ->
            Port_l4.retry ~mach ~attempts:4 ~timeout:1_000_000L
              (Rng.split mach.Machine.rng))
          ())

let run_one stack mode ~base m =
  run_mode stack mode ~period:(period_of stack m) ~count:(count_of ~base m)

let fp r = r.fp
let received r = r.received

let peak_goodput curve =
  List.fold_left (fun acc (_, r) -> Float.max acc r.goodput) 0.0 curve

let experiment =
  {
    Experiment.id = "e15";
    title = "Overload robustness: admission control and graceful degradation";
    paper_claim =
      "A structured system should degrade gracefully under overload: with \
       backpressure and admission control, goodput plateaus at capacity \
       instead of collapsing (receive livelock, [MR96]), and the \
       microkernel's multi-server I/O path should saturate later than the \
       VMM's centralized Dom0 backend.";
    run =
      (fun ~quick ->
        let base = if quick then 60 else 150 in
        let results =
          List.map
            (fun stack ->
              ( stack,
                List.map
                  (fun mode ->
                    ( mode,
                      List.map (fun m -> (m, run_one stack mode ~base m)) mults
                    ))
                  modes ))
            stacks
        in
        let curve stack mode = List.assoc mode (List.assoc stack results) in
        let get stack mode m = List.assoc m (curve stack mode) in
        let top = List.nth mults (List.length mults - 1) in
        (* --- one degradation table per stack --- *)
        let degradation stack =
          let t =
            Table.create
              ~header:
                [
                  "load";
                  "offered pkt/Mcyc";
                  "naive good";
                  "naive p99 kcyc";
                  "naive eff";
                  "pol good";
                  "pol p99 kcyc";
                  "pol eff";
                ]
          in
          List.iter
            (fun m ->
              let n = get stack Naive m and p = get stack Policied m in
              Table.add_row t
                [
                  mult_label m;
                  Table.cellf "%.1f" n.offered;
                  Table.cellf "%.1f" n.goodput;
                  Table.cellf "%.0f" (n.p99 /. 1e3);
                  Table.cellf "%.2f" (efficiency n);
                  Table.cellf "%.1f" p.goodput;
                  Table.cellf "%.0f" (p.p99 /. 1e3);
                  Table.cellf "%.2f" (efficiency p);
                ])
            mults;
          t
        in
        (* --- overload itemization at the top multiplier --- *)
        let itemized =
          Table.create
            ~header:
              [
                "config";
                "injected";
                "received";
                "timely";
                "nic drop";
                "drops";
                "sheds";
                "retries";
                "backoff cyc";
                "queue peak";
              ]
        in
        List.iter
          (fun stack ->
            List.iter
              (fun mode ->
                let r = get stack mode top in
                Table.add_row itemized
                  [
                    config_label stack mode;
                    string_of_int r.injected;
                    string_of_int r.received;
                    string_of_int r.timely;
                    string_of_int r.nic_drops;
                    string_of_int r.items.drops;
                    string_of_int r.items.sheds;
                    string_of_int r.items.retries;
                    string_of_int r.items.backoff_cycles;
                    string_of_int r.items.queue_peak;
                  ])
              modes)
          stacks;
        (* --- verdicts --- *)
        let naive_collapse stack =
          let c = curve stack Naive in
          let r = get stack Naive top in
          r.goodput < 0.8 *. peak_goodput c
          && r.p99 > Int64.to_float latency_budget
        in
        let policied_graceful stack =
          let c = curve stack Policied in
          let r = get stack Policied top in
          r.goodput >= 0.8 *. peak_goodput c
          && r.p99 <= Int64.to_float latency_budget
        in
        let vmm_probe = probe_runs ~base (run_mode Vmm Naive) in
        let uk_probe = probe_runs ~base (run_mode Uk Naive) in
        let vmm_knee = knee vmm_probe in
        let uk_knee = knee uk_probe in
        let probe_table =
          let t =
            Table.create
              ~header:
                [
                  "offered pkt/Mcyc";
                  "vmm eff";
                  "vmm p99 kcyc";
                  "uk eff";
                  "uk p99 kcyc";
                ]
          in
          List.iter2
            (fun (_, v) (_, u) ->
              Table.add_row t
                [
                  Table.cellf "%.0f" v.offered;
                  Table.cellf "%.2f" (efficiency v);
                  Table.cellf "%.0f" (v.p99 /. 1e3);
                  Table.cellf "%.2f" (efficiency u);
                  Table.cellf "%.0f" (u.p99 /. 1e3);
                ])
            vmm_probe uk_probe;
          t
        in
        let rerun_vmm = run_one Vmm Naive ~base top in
        let rerun_uk = run_one Uk Policied ~base top in
        let deterministic =
          (get Vmm Naive top).fp = rerun_vmm.fp
          && (get Uk Policied top).fp = rerun_uk.fp
        in
        let fmt_knee k =
          if k = infinity then ">133" else Printf.sprintf "%.0f" k
        in
        let verdicts =
          [
            Experiment.verdict
              ~claim:"Unpoliced stacks collapse past saturation [MR96]"
              ~expected:
                "naive goodput at 8x < 0.8x its peak and p99 > 1M cycles, on \
                 both structures"
              ~measured:
                (Printf.sprintf
                   "vmm %.1f vs peak %.1f (p99 %.0fk); uk %.1f vs peak %.1f \
                    (p99 %.0fk)"
                   (get Vmm Naive top).goodput
                   (peak_goodput (curve Vmm Naive))
                   ((get Vmm Naive top).p99 /. 1e3)
                   (get Uk Naive top).goodput
                   (peak_goodput (curve Uk Naive))
                   ((get Uk Naive top).p99 /. 1e3))
              (naive_collapse Vmm && naive_collapse Uk);
            Experiment.verdict
              ~claim:"Admission control + backpressure degrade gracefully"
              ~expected:
                "policied goodput at 8x >= 0.8x its peak and p99 <= 1M \
                 cycles, on both structures"
              ~measured:
                (Printf.sprintf
                   "vmm %.1f/%.1f p99 %.0fk; uk %.1f/%.1f p99 %.0fk"
                   (get Vmm Policied top).goodput
                   (peak_goodput (curve Vmm Policied))
                   ((get Vmm Policied top).p99 /. 1e3)
                   (get Uk Policied top).goodput
                   (peak_goodput (curve Uk Policied))
                   ((get Uk Policied top).p99 /. 1e3))
              (policied_graceful Vmm && policied_graceful Uk);
            Experiment.verdict
              ~claim:"The centralized Dom0 saturates before the multi-server \
                      microkernel"
              ~expected:
                "naive vmm knee at a lower absolute offered load than naive uk"
              ~measured:
                (Printf.sprintf "vmm knee at %s pkt/Mcyc, uk at %s pkt/Mcyc"
                   (fmt_knee vmm_knee) (fmt_knee uk_knee))
              (vmm_knee < uk_knee);
            Experiment.verdict ~claim:"Overload runs stay deterministic"
              ~expected:
                "same-seed rerun at 8x: identical arrival times, counters \
                 and accounts"
              ~measured:
                (if deterministic then "bit-for-bit identical" else "diverged")
              deterministic;
          ]
        in
        {
          Experiment.tables =
            [
              ("VMM degradation under offered load", degradation Vmm);
              ("Microkernel degradation under offered load", degradation Uk);
              ("Naive saturation knee probe (common absolute rates)", probe_table);
              ( Printf.sprintf "Overload itemization at %s" (mult_label top),
                itemized );
            ];
          verdicts;
        });
  }
