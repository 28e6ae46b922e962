(* Single-CPU layer timings: ukernel IPC, VMM event channels, the guest
   syscall ports, the NIC drain, machine creation, capability revocation
   and live migration. Each times the same public calls as the matching
   bechamel entry in bench/main.ml (e2, e4, e16, e19, e20) and nothing
   more. Per-unit costs are differential — (T(big) - T(small)) / (big -
   small) — so the machine set-up each call also pays cancels out. *)

module Machine = Vmk_hw.Machine
module Irq = Vmk_hw.Irq
module Nic = Vmk_hw.Nic
module Frame = Vmk_hw.Frame
module Engine = Vmk_sim.Engine
module Kernel = Vmk_ukernel.Kernel
module Sysif = Vmk_ukernel.Sysif
module Hypervisor = Vmk_vmm.Hypervisor
module Hcall = Vmk_vmm.Hcall
module Scenario = Vmk_core.Scenario
module Apps = Vmk_workloads.Apps

(* --- the bechamel building blocks --- *)

let l4_pingpong rounds () =
  let mach = Machine.create ~seed:1L () in
  let k = Kernel.create mach in
  let server =
    Kernel.spawn k ~name:"server" (fun () ->
        let rec loop (c, _) = loop (Sysif.reply_wait c (Sysif.msg 0)) in
        loop (Sysif.recv Sysif.Any))
  in
  let _client =
    Kernel.spawn k ~name:"client" (fun () ->
        for _ = 1 to rounds do
          ignore (Sysif.call server (Sysif.msg 1))
        done)
  in
  ignore (Kernel.run k)

let evtchn_pingpong rounds () =
  let mach = Machine.create ~seed:1L () in
  let h = Hypervisor.create mach in
  let offer = ref None in
  let _pong =
    Hypervisor.create_domain h ~name:"pong" (fun () ->
        let port = Hcall.evtchn_alloc_unbound 1 in
        offer := Some port;
        let rec loop () =
          match Hcall.block ~timeout:10_000_000L () with
          | Hcall.Events _ ->
              Hcall.evtchn_send port;
              loop ()
          | Hcall.Timed_out -> ()
        in
        loop ())
  in
  let _ping =
    Hypervisor.create_domain h ~name:"ping" (fun () ->
        let rec wait () =
          match !offer with
          | Some p -> p
          | None ->
              Hcall.yield ();
              wait ()
        in
        let port = Hcall.evtchn_bind ~remote_dom:0 ~remote_port:(wait ()) in
        for _ = 1 to rounds do
          Hcall.evtchn_send port;
          ignore (Hcall.block ~timeout:10_000_000L ())
        done;
        Hcall.exit ())
  in
  ignore (Hypervisor.run h)

let syscall_loop ~structure iterations () =
  let app () = Apps.null_syscalls ~iterations () () in
  ignore
    (match structure with
    | `Native -> Scenario.run_native ~app ()
    | `Xen_tls -> Scenario.run_xen ~net:false ~blk:false ~glibc_tls:true ~app ()
    | `L4 -> Scenario.run_l4 ~net:false ~blk:false ~app ())

let nic_drain ~batch packets () =
  let e = Engine.create () in
  let irq = Irq.create ~lines:1 in
  let nic = Nic.create e irq ~irq_line:0 () in
  let frames = Frame.create ~frames:(packets + 1) in
  for _ = 1 to packets do
    Nic.post_rx_buffer nic (Frame.alloc frames ~owner:"bench" ())
  done;
  if batch > 1 then Nic.set_mitigation nic (Int64.of_int (batch * 100));
  for i = 1 to packets do
    Engine.at e (Int64.of_int (i * 100)) (fun () ->
        Nic.inject_rx nic ~tag:i ~len:512)
  done;
  let horizon = Int64.of_int (((packets + batch) * 100) + 5_000) in
  let service () =
    if batch = 1 then begin
      Irq.ack irq 0;
      let rec drain () =
        match Nic.rx_ready nic with Some _ -> drain () | None -> ()
      in
      drain ()
    end
    else begin
      Irq.mask irq 0;
      let rec rounds () =
        match Nic.poll nic ~budget:batch with
        | [] ->
            Irq.ack irq 0;
            Irq.unmask irq 0
        | _ -> rounds ()
      in
      rounds ()
    end
  in
  let rec tick at =
    Engine.at e at (fun () ->
        if Irq.next_pending irq <> None then service ();
        let next = Int64.add at 100L in
        if Int64.compare next horizon <= 0 then tick next)
  in
  tick 0L;
  Engine.run e

let revoke_chain depth () = ignore (Vmk_core.Exp_e19.vmm_chain ~depth)

let precopy () =
  let w = Vmk_migrate.Migrate.Workload.make ~hot:3 ~cold_every:24 () in
  let cfg = Vmk_migrate.Migrate.precopy ~max_rounds:6 ~threshold:6 () in
  ignore (Vmk_migrate.Mig_vmm.migrate ~pages:16 ~steps:120 ~w ~cfg ())

let machine_create () = ignore (Machine.create ~seed:1L ())

(* --- timing --- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Host ns per call of [f]: the median of 5 batches, each repeating [f]
   for at least 20 ms. *)
let ns_per_call f =
  f ();
  median
    (List.init 5 (fun _ ->
         let t0 = Span.now_ns () in
         let calls = ref 0 in
         while Span.now_ns () - t0 < 20_000_000 do
           f ();
           incr calls
         done;
         float_of_int (Span.now_ns () - t0) /. float_of_int !calls))

let per_unit ~small ~big f =
  (ns_per_call (f big) -. ns_per_call (f small)) /. float_of_int (big - small)

(* (name, unit, value) for every single-CPU layer metric. *)
let metrics () =
  [
    ("ukernel.ipc_rt_ns", "ns", per_unit ~small:50 ~big:550 l4_pingpong);
    ("vmm.evtchn_rt_ns", "ns", per_unit ~small:50 ~big:550 evtchn_pingpong);
    ( "guest.syscall_ns.native", "ns",
      per_unit ~small:200 ~big:2200 (fun n -> syscall_loop ~structure:`Native n) );
    ( "guest.syscall_ns.xen", "ns",
      per_unit ~small:200 ~big:2200 (fun n -> syscall_loop ~structure:`Xen_tls n) );
    ( "guest.syscall_ns.l4", "ns",
      per_unit ~small:200 ~big:2200 (fun n -> syscall_loop ~structure:`L4 n) );
    ( "hw.nic_drain_ns_per_pkt.b1", "ns/pkt",
      per_unit ~small:96 ~big:992 (fun n -> nic_drain ~batch:1 n) );
    ( "hw.nic_drain_ns_per_pkt.b32", "ns/pkt",
      per_unit ~small:96 ~big:992 (fun n -> nic_drain ~batch:32 n) );
    ("hw.machine_create_us", "us", ns_per_call machine_create /. 1e3);
    ("cap.revoke_ns_per_hop", "ns/hop", per_unit ~small:1 ~big:6 revoke_chain);
    ("migrate.precopy_s", "s", ns_per_call precopy /. 1e9);
  ]
