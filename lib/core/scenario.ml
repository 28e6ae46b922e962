module Machine = Vmk_hw.Machine
module Nic = Vmk_hw.Nic
module Accounts = Vmk_trace.Accounts
module Counter = Vmk_trace.Counter
module Kernel = Vmk_ukernel.Kernel
module Hypervisor = Vmk_vmm.Hypervisor
module Net_channel = Vmk_vmm.Net_channel
module Blk_channel = Vmk_vmm.Blk_channel
module Dom0 = Vmk_vmm.Dom0
module Port_native = Vmk_guest.Port_native
module Port_xen = Vmk_guest.Port_xen
module Port_l4 = Vmk_guest.Port_l4
module Net_server = Vmk_ukernel.Net_server
module Blk_server = Vmk_ukernel.Blk_server
module Sysif = Vmk_ukernel.Sysif
module Svc = Vmk_ukernel.Svc
module Watchdog = Vmk_ukernel.Watchdog
module Rng = Vmk_sim.Rng
module Traffic = Vmk_workloads.Traffic
module Apps = Vmk_workloads.Apps

type outcome = {
  cycles : int64;
  busy_cycles : int64;
  accounts : (string * int64) list;
  counters : (string * int) list;
  counter_set : Counter.set;
  completed : bool;
  icache_misses : int;
  icache_miss_cycles : int;
}

type traffic_spec = Machine.t -> gate:(unit -> bool) -> Traffic.t
type stack = Vmm | Uk

let stack_label = function Vmm -> "vmm" | Uk -> "uk"

let account_cycles outcome name =
  match List.assoc_opt name outcome.accounts with Some v -> v | None -> 0L

let counter outcome name =
  match List.assoc_opt name outcome.counters with Some v -> v | None -> 0

let outcome_of mach ~completed =
  {
    cycles = Machine.now mach;
    busy_cycles = Accounts.busy_total mach.Machine.accounts;
    accounts = Accounts.to_list mach.Machine.accounts;
    counters = Counter.to_list mach.Machine.counters;
    counter_set = mach.Machine.counters;
    completed;
    icache_misses = Vmk_hw.Cache.misses mach.Machine.icache;
    icache_miss_cycles = Vmk_hw.Cache.miss_cycles mach.Machine.icache;
  }

type fingerprint = {
  f_wall : int64;
  f_packets : int;
  f_arrivals : (int * int64) list;
  f_counters : (string * int) list;
  f_accounts : (string * int64) list;
  f_cpu_accounts : (string * int64) list list;
}

let fingerprint mach ~packets ~arrivals =
  let accounts = mach.Machine.accounts in
  {
    f_wall = Machine.now mach;
    f_packets = packets;
    f_arrivals = List.sort compare arrivals;
    f_counters = Counter.to_list mach.Machine.counters;
    f_accounts = Accounts.to_list accounts;
    f_cpu_accounts =
      List.init (Machine.ncpus mach) (fun cpu ->
          Accounts.to_cpu_list accounts ~cpu);
  }

let fp_counter fp name =
  Option.value ~default:0 (List.assoc_opt name fp.f_counters)

let fp_account ?cpu fp name =
  let accounts =
    match cpu with None -> fp.f_accounts | Some i -> List.nth fp.f_cpu_accounts i
  in
  Option.value ~default:0L (List.assoc_opt name accounts)

let machine ?arch ?seed ?mitigation () =
  let mach = Machine.create ?arch ?seed () in
  Option.iter (Nic.set_mitigation mach.Machine.nic) mitigation;
  mach

(* The stop condition of a run. Without a [deadline] the caller then
   lets in-flight I/O drain so device counters settle; a polling driver
   re-arms its timer forever, so the engine never drains and a
   [deadline] run stops there instead. *)
let finished ~completed mach = function
  | None -> fun () -> !completed
  | Some d ->
      fun () -> !completed || Int64.compare (Machine.now mach) d >= 0

let run_native ?arch ?seed ?traffic ~app () =
  let mach = Machine.create ?arch ?seed () in
  let _source =
    Option.map
      (fun spec ->
        spec mach ~gate:(fun () -> Nic.rx_buffers_posted mach.Machine.nic > 0))
      traffic
  in
  let completed = ref false in
  Port_native.run mach (fun () ->
      app ();
      completed := true);
  outcome_of mach ~completed:!completed

let run_xen ?arch ?seed ?(rx_mode = Net_channel.Flip) ?(net = true) ?(blk = true)
    ?(fast_syscall = true) ?(glibc_tls = false) ?dom0_weight ?net_admit
    ?net_napi ?net_poll ?io_timeout ?mitigation ?deadline ?traffic ~app () =
  let mach = machine ?arch ?seed ?mitigation () in
  let h = Hypervisor.create mach in
  let net_chan =
    if net then Some (Net_channel.create ~mode:rx_mode ~demux_key:1 ()) else None
  in
  let blk_chan = if blk then Some (Blk_channel.create ~index:1 ()) else None in
  let dom0 =
    Hypervisor.create_domain h ~name:Dom0.name ~privileged:true
      ?weight:dom0_weight
      (Dom0.body mach ?net_admit ?net_napi ?net_poll
         ?net:(Option.map (fun c -> [ c ]) net_chan)
         ?blk:(Option.map (fun c -> [ c ]) blk_chan))
  in
  let ready = ref false in
  let completed = ref false in
  let _guest =
    Hypervisor.create_domain h ~name:"guest1"
      (Port_xen.guest_body mach
         ?net:(Option.map (fun c -> (c, dom0)) net_chan)
         ?blk:(Option.map (fun c -> (c, dom0)) blk_chan)
         ~fast_syscall ~glibc_tls ?io_timeout
         ~on_ready:(fun () -> ready := true)
         ~app:(fun () ->
           app ();
           completed := true))
  in
  let _source =
    Option.map (fun spec -> spec mach ~gate:(fun () -> !ready)) traffic
  in
  ignore (Hypervisor.run h ~until:(finished ~completed mach deadline));
  if Option.is_none deadline then
    ignore (Hypervisor.run h ~max_dispatches:100_000);
  outcome_of mach ~completed:!completed

let run_l4 ?arch ?seed ?(net = true) ?(blk = true) ?admit ?rx_capacity ?napi
    ?poll ?retry ?mitigation ?deadline ?traffic ~app () =
  let mach = machine ?arch ?seed ?mitigation () in
  let k = Kernel.create mach in
  let net_tid =
    if net then
      Some
        (Kernel.spawn k ~name:"net-server" ~priority:2
           ~account:Net_server.account (fun () ->
             Net_server.body mach ?admit ?rx_capacity ?napi ?poll ()))
    else None
  in
  let blk_tid =
    if blk then
      Some
        (Kernel.spawn k ~name:"blk-server" ~priority:2
           ~account:Blk_server.account (fun () -> Blk_server.body mach ()))
    else None
  in
  let retry = Option.map (fun mk -> mk mach) retry in
  let gk =
    Kernel.spawn k ~name:"guest-kernel" ~priority:3 ~account:Port_l4.gk_account
      (Port_l4.guest_kernel_body ?retry ~net:net_tid ~blk:blk_tid)
  in
  let completed = ref false in
  let _app_tid =
    Kernel.spawn k ~name:"app" ~priority:4 ~account:"app"
      (Port_l4.app_body mach ~gk (fun () ->
           app ();
           completed := true))
  in
  let _source =
    Option.map
      (fun spec ->
        spec mach ~gate:(fun () -> Nic.rx_buffers_posted mach.Machine.nic > 0))
      traffic
  in
  ignore (Kernel.run k ~until:(finished ~completed mach deadline));
  if Option.is_none deadline then ignore (Kernel.run k ~max_dispatches:100_000);
  outcome_of mach ~completed:!completed

(* --- the fault-recovery rig (E13, E18) --- *)

let supervision_period = 1_000_000L

type l4_rig = {
  rig_mach : Machine.t;
  rig_kernel : Kernel.t;
  blk_svc : Svc.entry;
  net_svc : Svc.entry;
  watchdog : Watchdog.t;
}

let supervised_l4 mach k =
  let server name account body =
    let tid = Kernel.spawn k ~name ~priority:2 ~account body in
    let spec () =
      { Sysif.name; priority = 2; same_space = false; pager = None; body }
    in
    (tid, spec)
  in
  let blk_tid, blk_spec =
    server "blk-server" Blk_server.account (fun () -> Blk_server.body mach ())
  in
  let net_tid, net_spec =
    server "net-server" Net_server.account (fun () -> Net_server.body mach ())
  in
  let blk_svc = Svc.entry ~name:"blk" blk_tid in
  let net_svc = Svc.entry ~name:"net" net_tid in
  let watchdog = Watchdog.create () in
  ignore
    (Kernel.spawn k ~name:"watchdog" ~priority:1 ~account:"watchdog"
       (Watchdog.body mach watchdog ~period:supervision_period
          ~ping_timeout:200_000L
          [ (blk_svc, blk_spec); (net_svc, net_spec) ]));
  { rig_mach = mach; rig_kernel = k; blk_svc; net_svc; watchdog }

let recovering_guest_kernel rig ~name ~net ~blk =
  let mach = rig.rig_mach in
  let retry =
    Port_l4.retry ~mach ~attempts:8 ~timeout:1_000_000L ~base_delay:100_000L
      (Rng.split mach.Machine.rng)
  in
  let svc used entry = if used then Some entry else None in
  let tid used entry = if used then Some (Svc.tid entry) else None in
  Kernel.spawn rig.rig_kernel ~name ~priority:3 ~account:Port_l4.gk_account
    (Port_l4.guest_kernel_body ~retry
       ?net_svc:(svc net rig.net_svc) ?blk_svc:(svc blk rig.blk_svc)
       ~net:(tid net rig.net_svc) ~blk:(tid blk rig.blk_svc))

let kill_server rig target =
  let kill entry = Kernel.kill rig.rig_kernel (Svc.tid entry) in
  if target = "blk-server" then kill rig.blk_svc
  else if target = "net-server" then kill rig.net_svc

let supervised_dom0 mach h ?net ?blk () =
  let make ~restart () =
    Dom0.body mach ~connect_timeout:10_000_000L ~generation:restart ?net ?blk
      ()
  in
  let dom0 =
    Hypervisor.create_domain h ~name:Dom0.name ~privileged:true
      (make ~restart:0)
  in
  ( dom0,
    Hypervisor.supervise h ~name:Dom0.name ~privileged:true
      ~period:supervision_period ~make_body:make dom0 )

let kill_dom0 h sup target =
  if target = Dom0.name then
    Hypervisor.kill_domain h (Hypervisor.supervised_domid sup)

let blk_probe mach ~stats ~log ~ops =
  Apps.blk_retry_stream ~stats
    ~now:(fun () -> Machine.now mach)
    ~log:(fun entry -> log := entry :: !log)
    ~ops ~span:24 ~seed:7 ~pace:150_000 ()

let ok_times log =
  List.filter_map (fun (t, ok) -> if ok then Some t else None) log

let first_after at times =
  List.find_map
    (fun t -> if Int64.compare t at > 0 then Some (Int64.sub t at) else None)
    times
