module Table = Vmk_stats.Table
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

let run_case ?(seed = 14L) ?(coalesce = 1) ~kind ~cores ~packets () =
  match kind with
  | Uk_colocated | Uk_pinned ->
      let placement =
        match kind with Uk_pinned -> Cluster.Pinned | _ -> Cluster.Colocated
      in
      let cfg =
        { (Cluster.default ~placement ~cores ()) with Cluster.packets; coalesce }
      in
      let r = Cluster.run ~seed cfg in
      {
        completed = r.Cluster.completed;
        wall = r.Cluster.wall;
        contended = r.Cluster.mapdb_contended;
        spin = r.Cluster.mapdb_spin;
        fp =
          Scenario.fingerprint r.Cluster.mach ~packets:r.Cluster.completed
            ~arrivals:[];
      }
  | Vmm_dom0 | Vmm_drivers | Vmm_fleet _ ->
      let backend =
        match kind with
        | Vmm_drivers -> Svmm.Driver_domains
        | Vmm_fleet n -> Svmm.Fixed_domains n
        | _ -> Svmm.Single_dom0
      in
      let cfg =
        { (Svmm.default ~backend ~cores ()) with Svmm.packets; coalesce }
      in
      let r = Svmm.run ~seed cfg in
      {
        completed = r.Svmm.completed;
        wall = r.Svmm.wall;
        contended = r.Svmm.gnt_contended;
        spin = r.Svmm.gnt_spin;
        fp =
          Scenario.fingerprint r.Svmm.mach ~packets:r.Svmm.completed
            ~arrivals:[];
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
