(* Tests for the mini-OS: syscall ABI plumbing, Minifs, and the three
   ports (native / Xen / L4) running identical applications. *)

module Machine = Vmk_hw.Machine
module Nic = Vmk_hw.Nic
module Engine = Vmk_sim.Engine
module Counter = Vmk_trace.Counter
module Sys_g = Vmk_guest.Sys
module Minifs = Vmk_guest.Minifs
module Port_native = Vmk_guest.Port_native
module Port_l4 = Vmk_guest.Port_l4
module Kernel = Vmk_ukernel.Kernel
module Net_server = Vmk_ukernel.Net_server
module Blk_server = Vmk_ukernel.Blk_server
module Hypervisor = Vmk_vmm.Hypervisor
module Dom0 = Vmk_vmm.Dom0
module Blk_channel = Vmk_vmm.Blk_channel
module Port_xen = Vmk_guest.Port_xen

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Minifs --- *)

let memory_fs () =
  let store = Hashtbl.create 16 in
  Minifs.create
    ~read:(fun ~sector -> Some (Option.value (Hashtbl.find_opt store sector) ~default:0))
    ~write:(fun ~sector ~tag ->
      Hashtbl.replace store sector tag;
      true)
    ()

let test_minifs_roundtrip () =
  let fs = memory_fs () in
  let fd = Minifs.open_or_create fs "a" in
  check_bool "append 1" true (Minifs.append fs ~fd ~tag:11);
  check_bool "append 2" true (Minifs.append fs ~fd ~tag:22);
  check_bool "read 0" true (Minifs.read_block fs ~fd ~index:0 = Some 11);
  check_bool "read 1" true (Minifs.read_block fs ~fd ~index:1 = Some 22);
  check_bool "size" true (Minifs.size_blocks fs ~fd = Some 2)

let test_minifs_reopen_same_fd () =
  let fs = memory_fs () in
  let fd1 = Minifs.open_or_create fs "x" in
  let fd2 = Minifs.open_or_create fs "x" in
  check_int "same file" fd1 fd2;
  check_int "one file" 1 (Minifs.file_count fs)

let test_minifs_out_of_range () =
  let fs = memory_fs () in
  let fd = Minifs.open_or_create fs "y" in
  check_bool "index out of range" true (Minifs.read_block fs ~fd ~index:0 = None);
  check_bool "bad fd read" true (Minifs.read_block fs ~fd:999 ~index:0 = None);
  check_bool "bad fd append" false (Minifs.append fs ~fd:999 ~tag:1)

let test_minifs_distinct_files_distinct_sectors () =
  let fs = memory_fs () in
  let a = Minifs.open_or_create fs "a" and b = Minifs.open_or_create fs "b" in
  ignore (Minifs.append fs ~fd:a ~tag:1);
  ignore (Minifs.append fs ~fd:b ~tag:2);
  check_bool "no clobber" true
    (Minifs.read_block fs ~fd:a ~index:0 = Some 1
    && Minifs.read_block fs ~fd:b ~index:0 = Some 2);
  check_int "sectors used" 2 (Minifs.sectors_used fs)

let test_minifs_failing_block_layer () =
  let fs =
    Minifs.create ~read:(fun ~sector:_ -> None) ~write:(fun ~sector:_ ~tag:_ -> false) ()
  in
  let fd = Minifs.open_or_create fs "dead" in
  check_bool "append fails" false (Minifs.append fs ~fd ~tag:1);
  check_bool "size still zero" true (Minifs.size_blocks fs ~fd = Some 0)

(* --- run_with_handler --- *)

let test_trampoline_sequences_calls () =
  let log = ref [] in
  let handler call =
    log := call :: !log;
    match call with Sys_g.G_getpid -> Sys_g.G_int 7 | _ -> Sys_g.G_unit
  in
  Sys_g.run_with_handler ~handler (fun () ->
      check_int "pid" 7 (Sys_g.getpid ());
      Sys_g.yield ();
      Sys_g.burn 5);
  check_int "three calls" 3 (List.length !log)

let test_trampoline_exit_abandons_app () =
  let after = ref false in
  Sys_g.run_with_handler
    ~handler:(fun _ -> Sys_g.G_unit)
    (fun () ->
      if true then Sys_g.exit ();
      after := true);
  check_bool "code after exit unreached" false !after

let test_trampoline_propagates_app_exception () =
  Alcotest.check_raises "app exception" (Failure "boom") (fun () ->
      Sys_g.run_with_handler
        ~handler:(fun _ -> Sys_g.G_unit)
        (fun () -> failwith "boom"))

let test_trampoline_error_raises_sys_error () =
  let saw = ref false in
  Sys_g.run_with_handler
    ~handler:(fun _ -> Sys_g.G_error "nope")
    (fun () ->
      try ignore (Sys_g.getpid ()) with Sys_g.Sys_error _ -> saw := true);
  check_bool "Sys_error raised in app" true !saw

(* --- native port --- *)

let test_native_getpid_and_accounting () =
  let mach = Machine.create ~seed:3L () in
  Port_native.run mach (fun () ->
      check_int "pid" 1 (Sys_g.getpid ());
      Sys_g.burn 777);
  check_bool "cycles on native account" true
    (Int64.compare
       (Vmk_trace.Accounts.balance mach.Machine.accounts "native")
       777L
    >= 0);
  check_int "syscall counted" 1 (Counter.get mach.Machine.counters "gsys.count")

let test_native_net_roundtrip () =
  let mach = Machine.create ~seed:3L () in
  Engine.after mach.Machine.engine 5_000L (fun () ->
      Nic.inject_rx mach.Machine.nic ~tag:42 ~len:700);
  let got = ref None in
  Port_native.run mach (fun () ->
      Sys_g.net_send ~len:300 ~tag:9;
      got := Some (Sys_g.net_recv ()));
  check_bool "received injected packet" true (!got = Some (700, 42));
  check_int "tx on wire" 300 (Nic.tx_bytes mach.Machine.nic)

let test_native_net_recv_without_traffic_errors () =
  let mach = Machine.create ~seed:3L () in
  let error = ref false in
  Port_native.run mach (fun () ->
      try ignore (Sys_g.net_recv ()) with Sys_g.Sys_error _ -> error := true);
  check_bool "no traffic -> Sys_error" true !error

let test_native_blk_and_fs () =
  let mach = Machine.create ~seed:3L () in
  Port_native.run mach (fun () ->
      Sys_g.blk_write ~sector:4 ~len:512 ~tag:31;
      check_int "blk readback" 31 (Sys_g.blk_read ~sector:4 ~len:512);
      let fd = Sys_g.fs_create "log" in
      Sys_g.fs_append ~fd ~tag:100;
      Sys_g.fs_append ~fd ~tag:200;
      check_int "fs block 1" 200 (Sys_g.fs_read ~fd ~index:1))

(* --- L4 port --- *)

let l4_fixture ~net ~blk =
  let mach = Machine.create ~seed:4L () in
  let k = Kernel.create mach in
  let net_tid =
    if net then
      Some
        (Kernel.spawn k ~name:"net" ~priority:2 ~account:Net_server.account
           (fun () -> Net_server.body mach ()))
    else None
  in
  let blk_tid =
    if blk then
      Some
        (Kernel.spawn k ~name:"blk" ~priority:2 ~account:Blk_server.account
           (fun () -> Blk_server.body mach ()))
    else None
  in
  let gk =
    Kernel.spawn k ~name:"gk" ~priority:3 ~account:Port_l4.gk_account
      (Port_l4.guest_kernel_body ~net:net_tid ~blk:blk_tid)
  in
  (mach, k, gk)

let test_l4_getpid_and_fs () =
  let mach, k, gk = l4_fixture ~net:false ~blk:true in
  let done_ = ref false in
  let _app =
    Kernel.spawn k ~name:"app" ~account:"app"
      (Port_l4.app_body mach ~gk (fun () ->
           check_int "pid via IPC" 1 (Sys_g.getpid ());
           let fd = Sys_g.fs_create "data" in
           Sys_g.fs_append ~fd ~tag:55;
           check_int "fs readback via servers" 55 (Sys_g.fs_read ~fd ~index:0);
           done_ := true))
  in
  ignore (Kernel.run k ~until:(fun () -> !done_));
  check_bool "app finished" true !done_

let test_l4_net_without_server_errors () =
  let mach, k, gk = l4_fixture ~net:false ~blk:false in
  let error = ref false in
  let _app =
    Kernel.spawn k ~name:"app" ~account:"app"
      (Port_l4.app_body mach ~gk (fun () ->
           try Sys_g.net_send ~len:100 ~tag:1
           with Sys_g.Sys_error _ -> error := true))
  in
  ignore (Kernel.run k);
  check_bool "missing driver -> error" true !error

let test_l4_dead_gk_raises () =
  let mach, k, gk = l4_fixture ~net:false ~blk:false in
  Kernel.kill k gk;
  let error = ref false in
  let _app =
    Kernel.spawn k ~name:"app" ~account:"app"
      (Port_l4.app_body mach ~gk (fun () ->
           try ignore (Sys_g.getpid ()) with Sys_g.Sys_error _ -> error := true))
  in
  ignore (Kernel.run k);
  check_bool "dead guest kernel surfaces" true !error

(* --- Xen port --- *)

let test_xen_fs_through_split_driver () =
  let mach = Machine.create ~seed:5L () in
  let h = Hypervisor.create mach in
  let chan = Blk_channel.create ~index:1 () in
  let _dom0 =
    Hypervisor.create_domain h ~name:Dom0.name ~privileged:true
      (Dom0.body mach ~blk:[ chan ])
  in
  let done_ = ref false in
  let _guest =
    Hypervisor.create_domain h ~name:"guest1"
      (Port_xen.guest_body mach ~blk:(chan, 0)
         ~app:(fun () ->
           let fd = Sys_g.fs_create "xfs" in
           Sys_g.fs_append ~fd ~tag:77;
           check_int "fs via blkfront" 77 (Sys_g.fs_read ~fd ~index:0);
           done_ := true))
  in
  ignore (Hypervisor.run h ~until:(fun () -> !done_));
  check_bool "guest finished" true !done_

let test_xen_syscall_counters_by_config () =
  let run ~glibc_tls =
    let mach = Machine.create ~seed:5L () in
    let h = Hypervisor.create mach in
    let _guest =
      Hypervisor.create_domain h ~name:"guest1"
        (Port_xen.guest_body mach ~glibc_tls
           ~app:(fun () ->
             for _ = 1 to 20 do
               ignore (Sys_g.getpid ())
             done))
    in
    ignore (Hypervisor.run h);
    ( Counter.get mach.Machine.counters "vmm.syscall_fast",
      Counter.get mach.Machine.counters "vmm.syscall_bounce" )
  in
  let fast, bounce = run ~glibc_tls:false in
  check_int "all fast" 20 fast;
  check_int "no bounce" 0 bounce;
  let fast', bounce' = run ~glibc_tls:true in
  check_int "no fast with TLS" 0 fast';
  check_int "all bounced with TLS" 20 bounce'

let test_kernel_work_table_total () =
  (* Every syscall kind has a cost; burn is free (not a syscall). *)
  check_int "burn costs nothing in-kernel" 0 (Sys_g.kernel_work (Sys_g.G_burn 5));
  check_bool "all real syscalls cost kernel work" true
    (List.for_all
       (fun c -> Sys_g.kernel_work c > 0)
       [
         Sys_g.G_getpid;
         Sys_g.G_yield;
         Sys_g.G_net_send { len = 1; tag = 1 };
         Sys_g.G_net_recv;
         Sys_g.G_blk_write { sector = 0; len = 1; tag = 1 };
         Sys_g.G_blk_read { sector = 0; len = 1 };
         Sys_g.G_fs_create "";
         Sys_g.G_fs_append { fd = 0; tag = 0 };
         Sys_g.G_fs_read { fd = 0; index = 0 };
         Sys_g.G_exit;
       ])

let suite =
  [
    Alcotest.test_case "minifs: roundtrip" `Quick test_minifs_roundtrip;
    Alcotest.test_case "minifs: reopen" `Quick test_minifs_reopen_same_fd;
    Alcotest.test_case "minifs: out of range" `Quick test_minifs_out_of_range;
    Alcotest.test_case "minifs: distinct files" `Quick
      test_minifs_distinct_files_distinct_sectors;
    Alcotest.test_case "minifs: failing block layer" `Quick
      test_minifs_failing_block_layer;
    Alcotest.test_case "trampoline: sequences calls" `Quick
      test_trampoline_sequences_calls;
    Alcotest.test_case "trampoline: exit abandons" `Quick
      test_trampoline_exit_abandons_app;
    Alcotest.test_case "trampoline: app exception" `Quick
      test_trampoline_propagates_app_exception;
    Alcotest.test_case "trampoline: G_error -> Sys_error" `Quick
      test_trampoline_error_raises_sys_error;
    Alcotest.test_case "native: getpid + accounting" `Quick
      test_native_getpid_and_accounting;
    Alcotest.test_case "native: net roundtrip" `Quick test_native_net_roundtrip;
    Alcotest.test_case "native: recv without traffic" `Quick
      test_native_net_recv_without_traffic_errors;
    Alcotest.test_case "native: blk + fs" `Quick test_native_blk_and_fs;
    Alcotest.test_case "l4: getpid + fs via servers" `Quick test_l4_getpid_and_fs;
    Alcotest.test_case "l4: missing driver errors" `Quick
      test_l4_net_without_server_errors;
    Alcotest.test_case "l4: dead guest kernel" `Quick test_l4_dead_gk_raises;
    Alcotest.test_case "xen: fs through split driver" `Quick
      test_xen_fs_through_split_driver;
    Alcotest.test_case "xen: syscall path counters" `Quick
      test_xen_syscall_counters_by_config;
    Alcotest.test_case "sys: kernel work table" `Quick
      test_kernel_work_table_total;
  ]
