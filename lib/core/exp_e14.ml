module Table = Vmk_stats.Table
module Machine = Vmk_hw.Machine
module Arch = Vmk_hw.Arch
module Engine = Vmk_sim.Engine
module Smp = Vmk_smp.Smp
module Cluster = Vmk_ukernel.Smp_cluster
module Svmm = Vmk_vmm.Smp_vmm

type kind = Uk_colocated | Uk_pinned | Vmm_dom0 | Vmm_drivers | Vmm_fleet of int

let kinds = [ Uk_colocated; Uk_pinned; Vmm_dom0; Vmm_drivers ]

let label = function
  | Uk_colocated -> "uk/colocated"
  | Uk_pinned -> "uk/pinned"
  | Vmm_dom0 -> "vmm/single-dom0"
  | Vmm_drivers -> "vmm/driver-domains"
  | Vmm_fleet n -> Printf.sprintf "vmm/%d-domain-fleet" n

type run = {
  completed : int;
  wall : int64;
  contended : int;
  spin : int64;
  fp : Scenario.fingerprint;
}

(* The storm's workload: the packets are split over 8 guests, 512 bytes
   each, one arriving every 400 cycles (saturating), each costing its
   guest 2600 cycles of application work. *)
let guests = 8
let packet_len = 512
let period = 400L
let app_cycles = 2_600

(* What one stack brings to the storm. Server [s] runs on core
   [s mod cores] and serves every guest [g] with [g mod servers = s].
   Guests share the cores round-robin with the servers, or, when the
   servers are [dedicated], take the cores after the first [servers]
   (all on core 0 of a 1-core machine). *)
type layout = {
  lock : string;  (* The one lock every server's critical section takes. *)
  costs : Smp.costs;
  servers : int;
  server_name : int -> string;  (* Also the server's account. *)
  dedicated : bool;
  guest_step : int -> unit;  (* After the guest receives its n-th packet. *)
  server_step : Smp.lock -> int -> unit;
      (* Between the server receiving its n-th packet and handing it to
         the guest with a [handoff]-cycle send. *)
  handoff : int;
}

(* Single_dom0 serializes every page flip through one domain on core 0,
   guests on the remaining cores; driver domains flip under a private
   grant table, leaving only the frame-ownership check under the shared
   lock. *)
let vmm_layout backend ~servers arch =
  let c = Svmm.costs ~backend arch in
  let single = backend = Svmm.Single_dom0 in
  let flip = Svmm.flip_cost arch in
  let guest_work =
    Vmk_vmm.Costs.upcall + Svmm.frontend_work + app_cycles
    + Arch.copy_cost arch ~bytes:packet_len
  in
  {
    lock = "grant";
    costs = c;
    servers;
    server_name =
      (fun d -> if single then "dom0" else Printf.sprintf "drv%d" d);
    dedicated = single;
    guest_step = (fun _ -> Smp.burn guest_work);
    server_step =
      (fun lock n ->
        Smp.burn Svmm.netback_work;
        if not single then Smp.burn flip;
        Smp.locked lock ~cycles:c.Smp.locked;
        (* Flipped-out pages invalidated in batches. *)
        if n mod Svmm.flip_batch = 0 then Smp.shootdown ~pages:Svmm.flip_batch);
    handoff = Vmk_vmm.Costs.evtchn_send;
  }

(* Colocated runs one net server per core next to its guests (same-core
   IPC); pinned dedicates the first cores to net servers, so every
   server->guest IPC crosses cores and pays IPIs — the paper's "servers
   in their own address spaces on their own cores" arrangement. *)
let uk_layout ~servers ~dedicated arch =
  let c = Cluster.costs arch in
  let guest_work = app_cycles + Arch.copy_cost arch ~bytes:packet_len in
  {
    lock = "mapdb";
    costs = c;
    servers;
    server_name = Printf.sprintf "net%d";
    dedicated;
    guest_step =
      (fun n ->
        Smp.burn guest_work;
        (* Batched unmap of consumed buffers: one broadcast per batch,
           per the mapdb's lazy revoke. *)
        if n mod Cluster.unmap_batch = 0 then
          Smp.shootdown ~pages:Cluster.unmap_batch);
    server_step =
      (fun lock _ ->
        Smp.burn Cluster.driver_work;
        Smp.locked lock ~cycles:c.Smp.locked);
    handoff = Cluster.handoff arch;
  }

let layout_of kind ~cores =
  match kind with
  | Uk_colocated -> uk_layout ~servers:cores ~dedicated:false
  | Uk_pinned -> uk_layout ~servers:(max 1 (cores / 4)) ~dedicated:true
  | Vmm_dom0 -> vmm_layout Svmm.Single_dom0 ~servers:1
  | Vmm_drivers -> vmm_layout Svmm.Driver_domains ~servers:cores
  | Vmm_fleet n ->
      (* E18's deployment shape: a fixed fleet of driver domains
         (netdrv/blkdrv/bridge-sized) spread round-robin over the cores,
         however many cores there are. *)
      if n < 1 then invalid_arg "Exp_e14.run_case: Vmm_fleet";
      vmm_layout (Svmm.Fixed_domains n) ~servers:n

(* Build the machine, spawn guests then servers, inject one packet per
   period round-robin over the guests as an interrupt to the guest's
   server, and run to completion. *)
let run_case ?(seed = 14L) ?(coalesce = 1) ~kind ~cores ~packets () =
  if cores < 1 then invalid_arg "Exp_e14.run_case: cores";
  let mach = Machine.create ~cpus:cores ~seed () in
  let arch = mach.Machine.arch in
  let l = layout_of kind ~cores arch in
  let smp = Smp.create mach in
  let lock = Smp.lock_create smp ~name:l.lock in
  let guest_cpu i =
    if l.dedicated && cores > 1 then
      l.servers + (i mod max 1 (cores - l.servers))
    else i mod cores
  in
  let guest_count =
    Array.init guests (fun i ->
        (packets / guests) + if i < packets mod guests then 1 else 0)
  in
  let quota = Array.make l.servers 0 in
  Array.iteri
    (fun i n -> quota.(i mod l.servers) <- quota.(i mod l.servers) + n)
    guest_count;
  let guest_tids =
    Array.init guests (fun i ->
        let count = guest_count.(i) in
        Smp.spawn smp ~name:(Printf.sprintf "guest%d" i) ~cpu:(guest_cpu i)
          (fun () ->
            for n = 1 to count do
              ignore (Smp.recv ());
              l.guest_step n
            done))
  in
  let server_tids =
    Array.init l.servers (fun s ->
        let quota = quota.(s) in
        Smp.spawn smp ~name:(l.server_name s) ~cpu:(s mod cores) (fun () ->
            for n = 1 to quota do
              let dst = Smp.recv () in
              l.server_step lock n;
              Smp.send ~dst ~tag:dst ~cycles:l.handoff
            done))
  in
  let sent = ref 0 in
  let coalesce = max 1 coalesce in
  Engine.every mach.Machine.engine period (fun () ->
      if !sent < packets then begin
        let g = !sent mod guests in
        (* With mitigation (E16) only every [coalesce]-th packet pays the
           full interrupt entry; the rest land under the open hold-off
           window and cost one poll-batch read. *)
        let irq_cost =
          if !sent mod coalesce = 0 then l.costs.Smp.irq
          else arch.Arch.poll_batch_cost
        in
        incr sent;
        Smp.post smp ~irq_cost
          ~dst:server_tids.(g mod l.servers)
          guest_tids.(g);
        !sent < packets
      end
      else false);
  (match Smp.run smp with Smp.Idle | Smp.Condition | Smp.Rounds -> ());
  let completed = ref 0 in
  Array.iteri
    (fun i tid ->
      if Smp.is_done smp tid then completed := !completed + guest_count.(i))
    guest_tids;
  {
    completed = !completed;
    wall = Machine.now mach;
    contended = Smp.lock_contended lock;
    spin = Smp.lock_spin_cycles lock;
    fp = Scenario.fingerprint mach ~packets:!completed ~arrivals:[];
  }

let irq_cycles r = Scenario.fp_account r.fp "smp.irq"

let coalescing_storms ~seed ~packets =
  List.map
    (fun kind ->
      ( kind,
        List.map
          (fun coalesce ->
            (coalesce, run_case ~seed ~coalesce ~kind ~cores:8 ~packets ()))
          [ 1; 8 ] ))
    [ Uk_colocated; Vmm_drivers ]

let composes runs =
  let c1 = List.assoc 1 runs and c8 = List.assoc 8 runs in
  c8.completed = c1.completed
  && Int64.compare (irq_cycles c8) (irq_cycles c1) < 0
  && Int64.compare c8.wall c1.wall <= 0

(* Packets completed per million cycles of virtual wall time. *)
let throughput r =
  if Int64.compare r.wall 0L <= 0 then 0.0
  else float_of_int r.completed *. 1e6 /. Int64.to_float r.wall

let experiment =
  {
    Experiment.id = "e14";
    title = "SMP scalability: multi-server vs. centralized Dom0";
    paper_claim =
      "[CG05] measured Dom0 as a centralized I/O bottleneck; the paper's \
       multi-server architecture (and Xen's own driver-domain \
       disaggregation) should instead scale I/O throughput with cores.";
    run =
      (fun ~quick ->
        let packets = if quick then 240 else 640 in
        let core_counts = if quick then [ 1; 2; 4; 8 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
        let results =
          List.map
            (fun cores ->
              (cores, List.map (fun kind -> (kind, run_case ~kind ~cores ~packets ())) kinds))
            core_counts
        in
        let tput ~cores ~kind =
          let row = List.assoc cores results in
          throughput (List.assoc kind row)
        in
        (* --- throughput scaling table --- *)
        let scaling =
          Table.create
            ~header:("cores" :: List.map (fun k -> label k ^ " pkt/Mcyc") kinds)
        in
        List.iter
          (fun (cores, row) ->
            Table.add_row scaling
              (string_of_int cores
              :: List.map (fun (_, r) -> Table.cellf "%.1f" (throughput r)) row))
          results;
        (* --- cross-CPU overhead itemization at max cores --- *)
        let max_cores = List.fold_left max 1 core_counts in
        let top = List.assoc max_cores results in
        let overhead =
          Table.create
            ~header:
              [
                "config";
                "IPIs";
                "shootdowns";
                "acks";
                "lock contended";
                "spin cyc";
                "ipi cyc";
                "shootdown cyc";
              ]
        in
        List.iter
          (fun (kind, r) ->
            let counter = Scenario.fp_counter r.fp in
            let account = Scenario.fp_account r.fp in
            Table.add_row overhead
              [
                label kind;
                string_of_int (counter "smp.ipi");
                string_of_int (counter "smp.shootdown");
                string_of_int (counter "smp.shootdown.acks");
                string_of_int r.contended;
                Int64.to_string r.spin;
                Int64.to_string (account "smp.ipi");
                Int64.to_string (account "smp.shootdown");
              ])
          top;
        (* --- per-CPU account breakdown for the bottleneck config --- *)
        let dom0_run = List.assoc Vmm_dom0 top in
        let fp = dom0_run.fp in
        let ncpu = List.length fp.Scenario.f_cpu_accounts in
        let breakdown =
          Table.create
            ~header:
              ("account" :: "total cyc"
              :: List.init ncpu (fun i -> Printf.sprintf "cpu%d" i))
        in
        let accounts_of_interest =
          "dom0"
          :: List.filter
               (fun n -> String.length n >= 4 && String.sub n 0 4 = "smp.")
               (List.map fst fp.Scenario.f_accounts)
        in
        List.iter
          (fun name ->
            Table.add_row breakdown
              (name
              :: Int64.to_string (Scenario.fp_account fp name)
              :: List.init ncpu (fun cpu ->
                     Int64.to_string (Scenario.fp_account ~cpu fp name))))
          accounts_of_interest;
        (* --- verdicts --- *)
        let plateau_ratio = tput ~cores:max_cores ~kind:Vmm_dom0 /. tput ~cores:4 ~kind:Vmm_dom0 in
        let scale8 kind = tput ~cores:max_cores ~kind /. tput ~cores:1 ~kind in
        let scale84 kind = tput ~cores:max_cores ~kind /. tput ~cores:4 ~kind in
        let rerun = run_case ~kind:Vmm_dom0 ~cores:max_cores ~packets () in
        let deterministic = dom0_run.fp = rerun.fp in
        let verdicts =
          [
            Experiment.verdict
              ~claim:"A single Dom0 serializes backend I/O [CG05]"
              ~expected:
                (Printf.sprintf
                   "vmm/single-dom0 throughput plateaus: tput(%d)/tput(4) < 1.25"
                   max_cores)
              ~measured:(Printf.sprintf "ratio %.2f" plateau_ratio)
              (plateau_ratio < 1.25);
            Experiment.verdict
              ~claim:"Multi-server microkernel I/O scales with cores"
              ~expected:
                (Printf.sprintf
                   "uk/colocated: tput(%d)/tput(1) > 4 and tput(%d)/tput(4) > 1.6"
                   max_cores max_cores)
              ~measured:
                (Printf.sprintf "%.2fx over 1 core, %.2fx over 4"
                   (scale8 Uk_colocated) (scale84 Uk_colocated))
              (scale8 Uk_colocated > 4.0 && scale84 Uk_colocated > 1.6);
            Experiment.verdict
              ~claim:"Driver-domain disaggregation recovers VMM scaling"
              ~expected:
                (Printf.sprintf
                   "vmm/driver-domains: tput(%d)/tput(1) > 4 and beats \
                    single-dom0 at %d cores"
                   max_cores max_cores)
              ~measured:
                (Printf.sprintf "%.2fx over 1 core; %.1f vs %.1f pkt/Mcyc"
                   (scale8 Vmm_drivers)
                   (tput ~cores:max_cores ~kind:Vmm_drivers)
                   (tput ~cores:max_cores ~kind:Vmm_dom0))
              (scale8 Vmm_drivers > 4.0
              && tput ~cores:max_cores ~kind:Vmm_drivers
                 > tput ~cores:max_cores ~kind:Vmm_dom0);
            Experiment.verdict
              ~claim:"SMP interleaving stays deterministic"
              ~expected:
                "same-seed rerun: identical wall time, counters and per-CPU \
                 accounts"
              ~measured:(if deterministic then "bit-for-bit identical" else "diverged")
              deterministic;
          ]
        in
        {
          Experiment.tables =
            [
              ("Throughput vs. cores (packets per Mcycle)", scaling);
              ( Printf.sprintf "Cross-CPU overheads at %d cores" max_cores,
                overhead );
              ( Printf.sprintf
                  "Per-CPU cycle accounts, vmm/single-dom0 at %d cores"
                  max_cores,
                breakdown );
            ];
          verdicts;
        });
  }
