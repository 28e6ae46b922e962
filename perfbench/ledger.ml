(* The layer ledger: E22's packet path, replayed call for call.

   [run_cell] is [Exp_e22.run_cell] rewritten against the same public
   functions of lib/workloads, lib/sim, lib/smp, lib/overload, lib/vnet
   and lib/stats, in the same order, with a span around each layer call
   (see [Span]). The cost recipe and the E22 constants are copied
   because the library keeps them private; [ledger.coverage] compares
   this replay's host cost per packet with [Exp_e22.bench_slice]'s, so
   drift between the two copies shows up as a number.

   Each cell also checks packet conservation (injected = delivered +
   shed + dropped), flow conservation (done + failed = flows), that the
   merged sketch counts every delivered packet, and that the run drained
   to idle. A violation is counted as a failure by the caller. *)

module Machine = Vmk_hw.Machine
module Cpu = Vmk_hw.Cpu
module Arch = Vmk_hw.Arch
module Engine = Vmk_sim.Engine
module Sketch = Vmk_stats.Quantile.Sketch
module Smp = Vmk_smp.Smp
module Scenario = Vmk_workloads.Scenario
module Vnet = Vmk_vnet.Vnet
module Token_bucket = Vmk_overload.Overload.Token_bucket
module Bounded_queue = Vmk_overload.Overload.Bounded_queue
module Weighted_buckets = Vmk_overload.Overload.Weighted_buckets
module Vcosts = Vmk_vmm.Costs
module Ucosts = Vmk_ukernel.Costs

type stack = Vmm | Uk
type mode = Naive | Policied

let stack_name = function Vmm -> "vmm" | Uk -> "uk"
let mode_name = function Naive -> "naive" | Policied -> "policied"

(* --- span kinds --- *)

let k_cell = 0
let k_machine = 1
let k_smp_create = 2
let k_spawn = 3
let k_run = 4
let k_post = 5
let k_at = 6
let k_push = 7
let k_pop = 8
let k_admit = 9
let k_ovl_create = 10
let k_sw_create = 11
let k_sw_setup = 12
let k_forward = 13
let k_discard = 14
let k_sk_add = 15
let k_sk_merge = 16
let k_sk_create = 17
let k_inject = 18
let k_serve = 19
let k_recv = 20
let k_burn = 21
let k_locked = 22

let kind_names =
  [|
    "cell"; "hw.machine_create"; "smp.create"; "smp.spawn"; "smp.run";
    "smp.post"; "sim.at"; "overload.push"; "overload.pop"; "overload.admit";
    "overload.create"; "vnet.create"; "vnet.setup"; "vnet.forward";
    "vnet.discard"; "stats.add"; "stats.merge"; "stats.create";
    "ledger.inject"; "ledger.serve"; "smp.recv"; "smp.burn"; "smp.locked";
  |]

let kinds = Array.length kind_names

(* --- the E22 cost recipe (Exp_e22.costs_of) --- *)

let netback_work = 400
let driver_work = 600
let service_batch = 16

type costs = { c_free : int; c_locked : int; c_irq : int }

let costs_of ~stack (arch : Arch.profile) =
  match stack with
  | Vmm ->
      let flip = Vcosts.page_flip_fixed + (2 * arch.Arch.pt_update_cost) in
      {
        c_free = netback_work + Vcosts.evtchn_send;
        c_locked = Vcosts.grant_check + flip;
        c_irq = arch.Arch.irq_entry_cost + Vcosts.irq_route;
      }
  | Uk ->
      {
        c_free = driver_work + Ucosts.ipc_path + arch.Arch.page_map_cost;
        c_locked = 2 * arch.Arch.pt_update_cost;
        c_irq = arch.Arch.irq_entry_cost + Ucosts.irq_to_ipc;
      }

let svc_cycles ~stack arch =
  let c = costs_of ~stack arch in
  c.c_free + c.c_locked + Vnet.flow_hit_cost + Vnet.enqueue_cost

(* --- the day-shaped schedule (Exp_e22.day_sched at a chosen size) --- *)

let mean_mult ramp =
  let n = Array.length ramp in
  let acc = ref 0.0 in
  Array.iteri
    (fun i (start, mult) ->
      let stop = if i + 1 < n then fst ramp.(i + 1) else 1.0 in
      acc := !acc +. ((stop -. start) *. mult))
    ramp;
  !acc

let pareto_mean ~alpha ~lo ~hi =
  let flo = float_of_int lo and fhi = float_of_int (hi + 1) in
  let a1 = 1.0 -. alpha and a2 = 2.0 -. alpha in
  let c = a1 /. ((fhi ** a1) -. (flo ** a1)) in
  c *. ((fhi ** a2) -. (flo ** a2)) /. a2

let day_config ~flows =
  let arch = (Machine.create ~seed:1L ()).Machine.arch in
  let tenants = 32 and guests = 8 in
  let alpha = 2.6 and size_min = 1 and size_max = 2048 in
  let on_mean = 300_000.0 and off_mean = 100_000.0 in
  let duty = on_mean /. (on_mean +. off_mean) in
  let ramp = Scenario.diurnal in
  let msize = pareto_mean ~alpha ~lo:size_min ~hi:size_max in
  let cap = float_of_int (svc_cycles ~stack:Vmm arch) in
  let peak_flow_rate = 1.3 /. cap /. msize in
  let gap = float_of_int tenants *. duty /. peak_flow_rate in
  let horizon =
    float_of_int flows *. gap /. (float_of_int tenants *. duty *. mean_mult ramp)
  in
  {
    Scenario.tenants;
    guests;
    mean_flow_gap = gap;
    zipf_alpha = alpha;
    size_min;
    size_max;
    on_mean;
    off_mean;
    ramp;
    horizon = Int64.of_float horizon;
  }

(* E22's day cells use this intra-flow gap and latency budget. *)
let day_gap = 1200
let budget = 100_000

(* --- one cell --- *)

type result = {
  r_injected : int;
  r_delivered : int;
  r_shed : int;
  r_drops : int;
  r_flows : int;
  r_flows_done : int;
  r_flows_failed : int;
  r_sketch_count : int;
  r_clean : bool;
  r_queue_peak : int;
  r_heap_peak : int;
  r_outcome : string;
      (** every simulated result, to compare traced and untraced runs *)
}

let conserved r =
  r.r_injected = r.r_delivered + r.r_shed + r.r_drops
  && r.r_flows_done + r.r_flows_failed = r.r_flows
  && r.r_sketch_count = r.r_delivered
  && r.r_clean

type shard = {
  sh_q : int Bounded_queue.t;
  sh_tb : Token_bucket.t option;
  sh_sw : Vnet.Switch.t;
  sh_sw_burn : int ref;
  sh_scratch : int array;
  sh_cpu : Cpu.t;
  mutable sh_tid : Smp.tid;
  mutable sh_parked : bool;
  sh_pkt : Sketch.t;
  sh_peak : Sketch.t;
  sh_flow : Sketch.t;
  mutable sh_delivered : int;
}

let flow_bits = 22
let flow_mask = (1 lsl flow_bits) - 1

let sketch_create tr =
  let sp = Span.enter tr k_sk_create in
  let s = Sketch.create () in
  Span.leave tr sp;
  s

let sketch_add tr sk v =
  let sp = Span.enter tr k_sk_add in
  Sketch.add sk v;
  Span.leave tr sp

let run_cell tr ~stack ~mode ~sched =
  let root = Span.enter tr k_cell in
  let cfg = Scenario.config sched in
  let guests = cfg.Scenario.guests and tenants = cfg.Scenario.tenants in
  let sp = Span.enter tr k_machine in
  let mach = Machine.create ~cpus:8 ~seed:220L () in
  Span.leave tr sp;
  let engine = mach.Machine.engine in
  let arch = mach.Machine.arch in
  let sp = Span.enter tr k_smp_create in
  let smp = Smp.create mach in
  Span.leave tr sp;
  let nshards = match stack with Vmm -> 1 | Uk -> Machine.ncpus mach in
  let c = costs_of ~stack arch in
  let svc = svc_cycles ~stack arch in
  let lock =
    Smp.lock_create smp ~name:(match stack with Vmm -> "gnt" | Uk -> "mapdb")
  in
  let fair =
    match mode with
    | Naive -> None
    | Policied ->
        let period =
          Int64.of_int (max 1 (tenants * svc * 110 / (100 * nshards)))
        in
        let sp = Span.enter tr k_ovl_create in
        let fb =
          Weighted_buckets.create ~counters:mach.Machine.counters ~period
            ~burst:32 ()
        in
        Span.leave tr sp;
        Some fb
  in
  let qcap = match mode with Naive -> 1 lsl 19 | Policied -> 512 in
  let nflows = Scenario.flows sched in
  let rem = Array.make nflows 0 in
  for f = 0 to nflows - 1 do
    rem.(f) <- Scenario.size sched f
  done;
  let horizon_f = Int64.to_float cfg.Scenario.horizon in
  let peak_of t0 =
    Scenario.ramp_mult cfg ~frac:(float_of_int t0 /. horizon_f) >= 0.95
  in
  let timely_pkts = ref 0
  and flows_done = ref 0
  and flows_timely = ref 0
  and flows_failed = ref 0 in
  let tenant_flows = Array.make tenants 0
  and tenant_timely = Array.make tenants 0 in
  let tenant_sk = Array.init tenants (fun _ -> sketch_create tr) in
  for f = 0 to nflows - 1 do
    let tn = Scenario.tenant sched f in
    tenant_flows.(tn) <- tenant_flows.(tn) + 1
  done;
  let make_shard i =
    let sw_burn = ref 0 in
    let sp = Span.enter tr k_sw_create in
    let sw =
      Vnet.Switch.create ~counters:mach.Machine.counters
        ~burn:(fun cy -> sw_burn := !sw_burn + cy)
        ()
    in
    Span.leave tr sp;
    let sp = Span.enter tr k_sw_setup in
    for p = 1 to guests do
      ignore (Vnet.Switch.add_port sw ~id:p)
    done;
    for src = 1 to guests do
      let dst = (src mod guests) + 1 in
      ignore
        (Vnet.Switch.forward_to sw ~now:0L ~in_port:src ~src ~dst ~len:512
           ~tag:0)
    done;
    for p = 1 to guests do
      while Vnet.Switch.discard sw ~port:p do
        ()
      done
    done;
    Span.leave tr sp;
    sw_burn := 0;
    let sp = Span.enter tr k_ovl_create in
    let tb =
      match mode with
      | Naive -> None
      | Policied ->
          Some
            (Token_bucket.create
               ~period:(Int64.of_int (svc * 105 / 100))
               ~burst:16 ())
    in
    let q = Bounded_queue.create ~capacity:qcap () in
    Span.leave tr sp;
    {
      sh_q = q;
      sh_tb = tb;
      sh_sw = sw;
      sh_sw_burn = sw_burn;
      sh_scratch = Array.make service_batch 0;
      sh_cpu = Machine.cpu mach i;
      sh_tid = -1;
      sh_parked = false;
      sh_pkt = sketch_create tr;
      sh_peak = sketch_create tr;
      sh_flow = sketch_create tr;
      sh_delivered = 0;
    }
  in
  let shards = Array.init nshards make_shard in
  let record_delivery s now_i packed =
    let t0 = packed lsr flow_bits and f = packed land flow_mask in
    let lat = now_i - t0 in
    sketch_add tr s.sh_pkt lat;
    if peak_of t0 then sketch_add tr s.sh_peak lat;
    if lat <= budget then incr timely_pkts;
    s.sh_delivered <- s.sh_delivered + 1;
    let r = rem.(f) in
    if r > 0 then begin
      rem.(f) <- r - 1;
      if r = 1 then begin
        let tn = Scenario.tenant sched f in
        let ideal =
          Scenario.at sched f + ((Scenario.size sched f - 1) * day_gap)
        in
        let excess = max 0 (now_i - ideal) in
        sketch_add tr s.sh_flow excess;
        sketch_add tr tenant_sk.(tn) excess;
        incr flows_done;
        if excess <= budget then begin
          incr flows_timely;
          tenant_timely.(tn) <- tenant_timely.(tn) + 1
        end
      end
    end
  in
  let rec serve s =
    let seg = Span.enter tr k_serve in
    let n = ref 0 in
    s.sh_sw_burn := 0;
    while !n < service_batch && not (Bounded_queue.is_empty s.sh_q) do
      let sp = Span.enter tr k_pop in
      let popped = Bounded_queue.pop s.sh_q in
      Span.leave tr sp;
      match popped with
      | Some packed ->
          s.sh_scratch.(!n) <- packed;
          let f = packed land flow_mask in
          let src = Scenario.src sched f and dst = Scenario.dst sched f in
          let sp = Span.enter tr k_forward in
          ignore
            (Vnet.Switch.forward_to s.sh_sw ~now:s.sh_cpu.Cpu.now ~in_port:src
               ~src ~dst ~len:512 ~tag:f);
          Span.leave tr sp;
          let sp = Span.enter tr k_discard in
          ignore (Vnet.Switch.discard s.sh_sw ~port:dst);
          Span.leave tr sp;
          incr n
      | None -> ()
    done;
    Span.leave tr seg;
    if !n = 0 then begin
      s.sh_parked <- true;
      Span.count tr k_recv;
      ignore (Smp.recv ());
      s.sh_parked <- false
    end
    else begin
      Span.count tr k_burn;
      Smp.burn ((!n * c.c_free) + !(s.sh_sw_burn));
      Span.count tr k_locked;
      Smp.locked lock ~cycles:(!n * c.c_locked);
      let seg = Span.enter tr k_serve in
      let now_i = Int64.to_int s.sh_cpu.Cpu.now in
      for k = 0 to !n - 1 do
        record_delivery s now_i s.sh_scratch.(k)
      done;
      Span.leave tr seg
    end;
    serve s
  in
  Array.iteri
    (fun i s ->
      let name =
        match stack with Vmm -> "dom0.netback" | Uk -> Printf.sprintf "net%d" i
      in
      let sp = Span.enter tr k_spawn in
      s.sh_tid <- Smp.spawn smp ~name ~cpu:i (fun () -> serve s);
      Span.leave tr sp)
    shards;
  let injected = ref 0 and drops = ref 0 and shed = ref 0 in
  let heap_peak = ref 0 in
  let fail_flow f =
    if rem.(f) > 0 then begin
      rem.(f) <- -1;
      incr flows_failed
    end
  in
  let admit_fair fb f now =
    let sp = Span.enter tr k_admit in
    let ok = Weighted_buckets.admit fb ~key:(Scenario.tenant sched f) ~now in
    Span.leave tr sp;
    ok
  in
  let admit_tb tb now =
    let sp = Span.enter tr k_admit in
    let ok = Token_bucket.admit tb ~now in
    Span.leave tr sp;
    ok
  in
  let inject_pkt f =
    let seg = Span.enter tr k_inject in
    incr injected;
    let now = Engine.now engine in
    let ok_fair =
      match fair with None -> true | Some fb -> admit_fair fb f now
    in
    if not ok_fair then begin
      incr shed;
      fail_flow f
    end
    else begin
      let dst = Scenario.dst sched f in
      let s =
        shards.(match stack with Vmm -> 0 | Uk -> (dst - 1) mod nshards)
      in
      let ok_tb = match s.sh_tb with None -> true | Some tb -> admit_tb tb now in
      if not ok_tb then begin
        incr shed;
        fail_flow f
      end
      else begin
        let sp = Span.enter tr k_push in
        let outcome =
          Bounded_queue.push s.sh_q ~now ((Int64.to_int now lsl flow_bits) lor f)
        in
        Span.leave tr sp;
        match outcome with
        | Bounded_queue.Accepted ->
            if s.sh_parked && Bounded_queue.length s.sh_q = 1 then begin
              let sp = Span.enter tr k_post in
              Smp.post smp ~irq_cost:c.c_irq ~dst:s.sh_tid 0;
              Span.leave tr sp
            end
        | Bounded_queue.Rejected ->
            incr drops;
            fail_flow f
        | Bounded_queue.Displaced _ | Bounded_queue.Retry_until _ ->
            assert false (* Reject policy only *)
      end
    end;
    Span.leave tr seg
  in
  let schedule at fn =
    let sp = Span.enter tr k_at in
    Engine.at engine at fn;
    Span.leave tr sp;
    if tr.Span.on then heap_peak := max !heap_peak (Engine.pending engine)
  in
  let gap64 = Int64.of_int day_gap in
  let rec chain f seq at =
    schedule at (fun () ->
        inject_pkt f;
        if seq + 1 < Scenario.size sched f then
          chain f (seq + 1) (Int64.add at gap64))
  in
  let rec walk i =
    if i < nflows then
      schedule
        (Int64.of_int (Scenario.at sched i))
        (fun () ->
          inject_pkt i;
          if Scenario.size sched i > 1 then
            chain i 1 (Int64.add (Int64.of_int (Scenario.at sched i)) gap64);
          walk (i + 1))
  in
  walk 0;
  let max_rounds = (Int64.to_int cfg.Scenario.horizon / 1000 * 8) + 4_000_000 in
  let sp = Span.enter tr k_run in
  let stop = Smp.run ~max_rounds smp in
  Span.leave tr sp;
  let pkt = sketch_create tr and peak = sketch_create tr and flow = sketch_create tr in
  Array.iter
    (fun s ->
      List.iter
        (fun (into, from) ->
          let sp = Span.enter tr k_sk_merge in
          Sketch.merge_into ~into from;
          Span.leave tr sp)
        [ (pkt, s.sh_pkt); (peak, s.sh_peak); (flow, s.sh_flow) ])
    shards;
  let delivered = Array.fold_left (fun a s -> a + s.sh_delivered) 0 shards in
  let queue_peak =
    Array.fold_left (fun a s -> max a (Bounded_queue.peak s.sh_q)) 0 shards
  in
  Span.leave tr root;
  {
    r_injected = !injected;
    r_delivered = delivered;
    r_shed = !shed;
    r_drops = !drops;
    r_flows = nflows;
    r_flows_done = !flows_done;
    r_flows_failed = !flows_failed;
    r_sketch_count = Sketch.count pkt;
    r_clean = (match stop with Smp.Rounds -> false | _ -> true);
    r_queue_peak = queue_peak;
    r_heap_peak = !heap_peak;
    r_outcome =
      String.concat " "
        (List.map string_of_int
           ([
              Int64.to_int (Machine.now mach); delivered; !shed; !drops;
              !timely_pkts; !flows_done; !flows_timely; !flows_failed;
              Sketch.fingerprint pkt; Sketch.fingerprint peak;
              Sketch.fingerprint flow; Smp.lock_contended lock;
              Int64.to_int (Smp.lock_spin_cycles lock);
            ]
           @ Array.to_list tenant_timely
           @ List.map Sketch.fingerprint (Array.to_list tenant_sk)));
  }
