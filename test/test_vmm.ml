(* Tests for the Xen-style VMM: domains, event channels, grant tables,
   page flipping, guest syscall paths, split drivers, Dom0 and Parallax. *)

open Vmk_vmm
module Machine = Vmk_hw.Machine
module Arch = Vmk_hw.Arch
module Frame = Vmk_hw.Frame
module Nic = Vmk_hw.Nic
module Disk = Vmk_hw.Disk
module Segments = Vmk_hw.Segments
module Counter = Vmk_trace.Counter
module Accounts = Vmk_trace.Accounts
module Engine = Vmk_sim.Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fresh ?arch () =
  let mach = Machine.create ?arch ~seed:7L () in
  (mach, Hypervisor.create mach)

let run_idle h =
  match Hypervisor.run h with
  | Hypervisor.Idle -> ()
  | Hypervisor.Condition -> Alcotest.fail "unexpected Condition"
  | Hypervisor.Dispatch_limit -> Alcotest.fail "dispatch limit (livelock?)"

let run_until h f = ignore (Hypervisor.run h ~until:f)

(* --- basics --- *)

let test_domain_runs_and_charges () =
  let mach, h = fresh () in
  let seen_domid = ref (-1) in
  let d =
    Hypervisor.create_domain h ~name:"guest" (fun () ->
        seen_domid := Hcall.dom_id ();
        Hcall.burn 5000)
  in
  run_idle h;
  check_int "dom_id" d !seen_domid;
  check_bool "burn charged to domain" true
    (Int64.compare (Accounts.balance mach.Machine.accounts "guest") 5000L >= 0);
  check_bool "hypercall work charged to vmm" true
    (Int64.compare (Accounts.balance mach.Machine.accounts "vmm") 0L > 0)

let test_domain_crash_contained () =
  let mach, h = fresh () in
  let other = ref false in
  let _ = Hypervisor.create_domain h ~name:"bad" (fun () -> failwith "oops") in
  let _ = Hypervisor.create_domain h ~name:"ok" (fun () -> other := true) in
  run_idle h;
  check_bool "other domain ran" true !other;
  check_int "crash counted" 1
    (Counter.get mach.Machine.counters "vmm.domain_crashed")

let test_world_switch_counted () =
  let mach, h = fresh () in
  let _ =
    Hypervisor.create_domain h ~name:"a" (fun () ->
        for _ = 1 to 3 do
          Hcall.yield ()
        done)
  in
  let _ =
    Hypervisor.create_domain h ~name:"b" (fun () ->
        for _ = 1 to 3 do
          Hcall.yield ()
        done)
  in
  run_idle h;
  check_bool "several world switches" true
    (Counter.get mach.Machine.counters "vmm.world_switch" >= 6)

(* --- event channels --- *)

let test_evtchn_handshake_and_send () =
  let _mach, h = fresh () in
  let got = ref [] in
  let offer = ref None in
  let listener =
    Hypervisor.create_domain h ~name:"listener" (fun () ->
        let sender_dom = 1 in
        let port = Hcall.evtchn_alloc_unbound sender_dom in
        (* Publish through a closure variable: the test thread of control
           is the scenario builder. *)
        offer := Some port;
        match Hcall.block () with
        | Hcall.Events ports -> got := ports
        | Hcall.Timed_out -> ())
  in
  ignore listener;
  let _sender =
    Hypervisor.create_domain h ~name:"sender" (fun () ->
        let rec wait () =
          match !offer with
          | Some p -> p
          | None ->
              Hcall.yield ();
              wait ()
        in
        let remote_port = wait () in
        let my_port = Hcall.evtchn_bind ~remote_dom:0 ~remote_port in
        Hcall.evtchn_send my_port)
  in
  run_idle h;
  check_bool "listener woke with its port" true (!got <> [])

let test_block_timeout () =
  let mach, h = fresh () in
  let result = ref None in
  let _ =
    Hypervisor.create_domain h ~name:"d" (fun () ->
        result := Some (Hcall.block ~timeout:5000L ()))
  in
  run_idle h;
  check_bool "timed out" true (!result = Some Hcall.Timed_out);
  check_bool "clock advanced past deadline" true (Machine.now mach >= 5000L)

let test_send_on_unbound_port_fails () =
  let _mach, h = fresh () in
  let failed = ref false in
  let _ =
    Hypervisor.create_domain h ~name:"d" (fun () ->
        let port = Hcall.evtchn_alloc_unbound 42 in
        try Hcall.evtchn_send port
        with Hcall.Hcall_error Hcall.Bad_port -> failed := true)
  in
  run_idle h;
  check_bool "unbound send rejected" true !failed

(* --- grants --- *)

let test_grant_map_and_permissions () =
  let _mach, h = fresh () in
  let mapped_tag = ref 0 in
  let stranger_denied = ref false in
  let granter_state = ref None in
  let _granter =
    Hypervisor.create_domain h ~name:"granter" (fun () ->
        let frame = List.hd (Hcall.alloc_frames 1) in
        Frame.set_tag frame 55;
        let gref = Hcall.grant ~to_dom:1 ~frame ~readonly:true in
        granter_state := Some gref;
        (* stay alive until mappers are done *)
        ignore (Hcall.block ~timeout:1_000_000L ()))
  in
  let _mappee =
    Hypervisor.create_domain h ~name:"mappee" (fun () ->
        let rec wait () =
          match !granter_state with
          | Some g -> g
          | None ->
              Hcall.yield ();
              wait ()
        in
        let gref = wait () in
        let frame = Hcall.grant_map ~dom:0 ~gref in
        mapped_tag := frame.Frame.tag;
        Hcall.grant_unmap ~dom:0 ~gref)
  in
  let _stranger =
    Hypervisor.create_domain h ~name:"stranger" (fun () ->
        let rec wait () =
          match !granter_state with
          | Some g -> g
          | None ->
              Hcall.yield ();
              wait ()
        in
        let gref = wait () in
        try ignore (Hcall.grant_map ~dom:0 ~gref)
        with Hcall.Hcall_error Hcall.Permission_denied -> stranger_denied := true)
  in
  run_idle h;
  check_int "grantee saw the content" 55 !mapped_tag;
  check_bool "third domain denied" true !stranger_denied

let test_grant_transfer_flips_ownership () =
  let mach, h = fresh () in
  let received_owner = ref "" in
  let moved : Frame.frame option ref = ref None in
  let _src =
    Hypervisor.create_domain h ~name:"src" (fun () ->
        let frame = List.hd (Hcall.alloc_frames 1) in
        Frame.set_tag frame 7;
        Hcall.grant_transfer ~to_dom:1 ~frame;
        moved := Some frame)
  in
  let _dst =
    Hypervisor.create_domain h ~name:"dst" (fun () ->
        let rec wait () =
          match !moved with
          | Some f -> f
          | None ->
              Hcall.yield ();
              wait ()
        in
        let frame = wait () in
        received_owner := frame.Frame.owner)
  in
  run_idle h;
  Alcotest.(check string) "owner is destination" "dst" !received_owner;
  check_int "flip counted" 1 (Counter.get mach.Machine.counters "vmm.page_flip")

let test_grant_requires_frame_ownership () =
  let mach, h = fresh () in
  let denied = ref false in
  let foreign = Frame.alloc mach.Machine.frames ~owner:"somebody-else" () in
  let _ =
    Hypervisor.create_domain h ~name:"d" (fun () ->
        try ignore (Hcall.grant ~to_dom:1 ~frame:foreign ~readonly:false)
        with Hcall.Hcall_error Hcall.Permission_denied -> denied := true)
  in
  run_idle h;
  check_bool "cannot grant others' frames" true !denied

let test_pt_map_validates_ownership () =
  let mach, h = fresh () in
  let ok = ref false and denied = ref false in
  let foreign = Frame.alloc mach.Machine.frames ~owner:"x" () in
  let _ =
    Hypervisor.create_domain h ~name:"d" (fun () ->
        let mine = List.hd (Hcall.alloc_frames 1) in
        Hcall.pt_map ~frame:mine ~vpn:0x200 ~writable:true;
        ok := true;
        (try Hcall.pt_map ~frame:foreign ~vpn:0x201 ~writable:true
         with Hcall.Hcall_error Hcall.Permission_denied -> denied := true);
        Hcall.pt_unmap 0x200)
  in
  run_idle h;
  check_bool "own frame mappable" true !ok;
  check_bool "foreign frame rejected" true !denied;
  check_int "pt updates counted" 2
    (Counter.get mach.Machine.counters "vmm.pt_update")

(* --- guest syscall paths (§3.2 / E4) --- *)

let test_syscall_shortcut_fast_then_broken_by_tls () =
  let mach, h = fresh () in
  let paths = ref [] in
  let _ =
    Hypervisor.create_domain h ~name:"guest" (fun () ->
        Hcall.set_trap_table ~int80_direct:true;
        paths := Hcall.syscall_trap () :: !paths;
        (* glibc initialises TLS: GS now spans the whole address space. *)
        Hcall.load_segment Segments.Gs { Segments.base = 0; limit = 0xFFFF_FFFF };
        paths := Hcall.syscall_trap () :: !paths)
  in
  run_idle h;
  check_bool "fast then bounced" true
    (List.rev !paths = [ Hcall.Fast_trap_gate; Hcall.Bounced ]);
  check_int "fast counted" 1 (Counter.get mach.Machine.counters "vmm.syscall_fast");
  check_int "bounce counted" 1
    (Counter.get mach.Machine.counters "vmm.syscall_bounce")

let test_syscall_shortcut_needs_registration () =
  let mach, h = fresh () in
  let path = ref None in
  let _ =
    Hypervisor.create_domain h ~name:"guest" (fun () ->
        path := Some (Hcall.syscall_trap ()))
  in
  run_idle h;
  check_bool "without trap table: bounced" true (!path = Some Hcall.Bounced);
  check_int "no fast path" 0 (Counter.get mach.Machine.counters "vmm.syscall_fast")

let test_syscall_shortcut_unavailable_without_trap_gates () =
  let _mach, h = fresh ~arch:(Arch.profile Arch.X86_64) () in
  let path = ref None in
  let _ =
    Hypervisor.create_domain h ~name:"guest" (fun () ->
        Hcall.set_trap_table ~int80_direct:true;
        path := Some (Hcall.syscall_trap ()))
  in
  run_idle h;
  check_bool "x86-64 has no trap-gate shortcut" true (!path = Some Hcall.Bounced)

let test_syscall_bounce_costs_more () =
  let cycles_of ~tls =
    let mach, h = fresh () in
    let _ =
      Hypervisor.create_domain h ~name:"guest" (fun () ->
          Hcall.set_trap_table ~int80_direct:true;
          if tls then
            Hcall.load_segment Segments.Gs
              { Segments.base = 0; limit = 0xFFFF_FFFF };
          for _ = 1 to 100 do
            ignore (Hcall.syscall_trap ())
          done)
    in
    run_idle h;
    Machine.now mach
  in
  let fast = cycles_of ~tls:false and slow = cycles_of ~tls:true in
  check_bool
    (Printf.sprintf "bounced (%Ld) > 2x fast (%Ld)" slow fast)
    true
    (Int64.compare slow (Int64.mul 2L fast) > 0)

(* --- IRQ routing --- *)

let test_irq_routing_to_privileged_domain () =
  let mach, h = fresh () in
  let got_event = ref false in
  let _dom0 =
    Hypervisor.create_domain h ~name:"dom0" ~privileged:true (fun () ->
        let _port = Hcall.irq_bind Machine.nic_irq in
        match Hcall.block ~timeout:1_000_000L () with
        | Hcall.Events (_ :: _) -> got_event := true
        | Hcall.Events [] | Hcall.Timed_out -> ())
  in
  Engine.after mach.Machine.engine 1000L (fun () ->
      Nic.post_rx_buffer mach.Machine.nic
        (Frame.alloc mach.Machine.frames ~owner:"dom0" ());
      Nic.inject_rx mach.Machine.nic ~tag:1 ~len:64);
  run_idle h;
  check_bool "irq became event" true !got_event;
  check_int "vmm irq counted" 1 (Counter.get mach.Machine.counters "vmm.irq")

let test_irq_bind_requires_privilege () =
  let _mach, h = fresh () in
  let denied = ref false in
  let _ =
    Hypervisor.create_domain h ~name:"guest" (fun () ->
        try ignore (Hcall.irq_bind Machine.nic_irq)
        with Hcall.Hcall_error Hcall.Permission_denied -> denied := true)
  in
  run_idle h;
  check_bool "unprivileged denied" true !denied

(* --- page-table modes & scheduler weights --- *)

let test_pt_batch_amortises_trap () =
  let per_update pt_mode =
    let mach = Machine.create ~seed:7L () in
    let h = Hypervisor.create mach in
    let cost = ref 0.0 in
    let _ =
      Hypervisor.create_domain h ~name:"g" ~pt_mode (fun () ->
          let frames = Array.of_list (Hcall.alloc_frames 8) in
          let t0 = Machine.now mach in
          let ops =
            List.concat_map
              (fun i ->
                [
                  Hcall.Pt_map
                    { bframe = frames.(i); bvpn = 0x500 + i; bwritable = true };
                  Hcall.Pt_unmap (0x500 + i);
                ])
              [ 0; 1; 2; 3; 4; 5; 6; 7 ]
          in
          Hcall.pt_batch ops;
          cost := Int64.to_float (Int64.sub (Machine.now mach) t0) /. 16.0)
    in
    run_idle h;
    !cost
  in
  let pv = per_update Hypervisor.Paravirt in
  let sh = per_update Hypervisor.Shadow in
  check_bool
    (Printf.sprintf "shadow (%.0f) > 2x paravirt (%.0f)" sh pv)
    true (sh > 2.0 *. pv)

let test_shadow_counts_syncs () =
  let mach, h = fresh () in
  let _ =
    Hypervisor.create_domain h ~name:"g" ~pt_mode:Hypervisor.Shadow (fun () ->
        let frame = List.hd (Hcall.alloc_frames 1) in
        Hcall.pt_map ~frame ~vpn:0x600 ~writable:true;
        Hcall.pt_unmap 0x600)
  in
  run_idle h;
  check_int "two shadow syncs" 2
    (Counter.get mach.Machine.counters "vmm.shadow_sync")

let test_weight_shares_cpu () =
  (* Two endless compute domains, 3:1 weights: the heavy one should get
     roughly three times the cycles. *)
  let mach, h = fresh () in
  let _heavy =
    Hypervisor.create_domain h ~name:"heavy" ~weight:768 (fun () ->
        Hcall.burn 10_000_000)
  in
  let _light =
    Hypervisor.create_domain h ~name:"light" ~weight:256 (fun () ->
        Hcall.burn 10_000_000)
  in
  ignore
    (Hypervisor.run h ~until:(fun () ->
         Int64.compare (Machine.now mach) 2_000_000L > 0));
  let heavy = Accounts.balance mach.Machine.accounts "heavy" in
  let light = Accounts.balance mach.Machine.accounts "light" in
  let ratio = Int64.to_float heavy /. Int64.to_float light in
  check_bool (Printf.sprintf "ratio %.2f within [2.4, 3.6]" ratio) true
    (ratio > 2.4 && ratio < 3.6)

let test_weight_validation () =
  let _mach, h = fresh () in
  Alcotest.check_raises "weight 0"
    (Invalid_argument "Hypervisor.create_domain: weight < 1") (fun () ->
      ignore (Hypervisor.create_domain h ~name:"x" ~weight:0 (fun () -> ())))

(* --- XenStore --- *)

let test_xenstore_write_read_rm () =
  let _mach, h = fresh () in
  let seen = ref None and after_rm = ref (Some "sentinel") in
  let _ =
    Hypervisor.create_domain h ~name:"d" (fun () ->
        Hcall.xs_write ~path:"a/b" ~value:"42";
        seen := Hcall.xs_read "a/b";
        Hcall.xs_rm "a/b";
        after_rm := Hcall.xs_read "a/b")
  in
  run_idle h;
  check_bool "read back" true (!seen = Some "42");
  check_bool "removed" true (!after_rm = None)

let test_xenstore_watch_wakes_blocked_domain () =
  let _mach, h = fresh () in
  let got = ref None in
  let _watcher =
    Hypervisor.create_domain h ~name:"watcher" (fun () ->
        got := Hcall.xs_wait_for ~timeout:10_000_000L "dev/thing")
  in
  let _writer =
    Hypervisor.create_domain h ~name:"writer" (fun () ->
        (* Let the watcher block first. *)
        Hcall.burn 50_000;
        Hcall.xs_write ~path:"dev/thing" ~value:"ready")
  in
  run_idle h;
  check_bool "watch woke the reader" true (!got = Some "ready")

let test_xenstore_watch_is_prefix_based () =
  let mach, h = fresh () in
  let woke = ref false in
  let _watcher =
    Hypervisor.create_domain h ~name:"watcher" (fun () ->
        let _port = Hcall.xs_watch "dev/net" in
        match Hcall.block ~timeout:10_000_000L () with
        | Hcall.Events _ -> woke := true
        | Hcall.Timed_out -> ())
  in
  let _writer =
    Hypervisor.create_domain h ~name:"writer" (fun () ->
        Hcall.burn 10_000;
        (* Unrelated path first: must not wake the watcher. *)
        Hcall.xs_write ~path:"dev/blk/0" ~value:"x";
        Hcall.burn 10_000;
        Hcall.xs_write ~path:"dev/net/0/port" ~value:"7")
  in
  run_idle h;
  check_bool "prefix watch fired" true !woke;
  check_int "two writes" 2 (Counter.get mach.Machine.counters "vmm.xs_write")

let test_xenstore_dead_watcher_ignored () =
  let _mach, h = fresh () in
  let victim =
    Hypervisor.create_domain h ~name:"victim" (fun () ->
        let _port = Hcall.xs_watch "k" in
        ignore (Hcall.block ()))
  in
  run_until h (fun () -> Hypervisor.state_name h victim = "blocked");
  Hypervisor.kill_domain h victim;
  let done_ = ref false in
  let _writer =
    Hypervisor.create_domain h ~name:"writer" (fun () ->
        Hcall.xs_write ~path:"k/x" ~value:"v";
        done_ := true)
  in
  run_idle h;
  check_bool "write survives dead watcher" true !done_

(* --- domain death --- *)

let test_kill_domain_and_peer_discovers () =
  let _mach, h = fresh () in
  let send_failed = ref false in
  let victim =
    Hypervisor.create_domain h ~name:"victim" (fun () ->
        ignore (Hcall.block ()))
  in
  run_until h (fun () -> Hypervisor.state_name h victim = "blocked");
  Hypervisor.kill_domain h victim;
  check_bool "dead" true (not (Hypervisor.is_alive h victim));
  (* A fresh domain sending to the dead one gets an error. *)
  let _late =
    Hypervisor.create_domain h ~name:"late" (fun () ->
        let frame = List.hd (Hcall.alloc_frames 1) in
        try Hcall.grant_transfer ~to_dom:victim ~frame
        with Hcall.Hcall_error Hcall.Dead_domain -> send_failed := true)
  in
  run_idle h;
  check_bool "transfer to dead domain errors" true !send_failed

(* --- split network driver --- *)

let net_scenario ?(period = 20_000L) ~mode ~packets ~len () =
  let mach, h = fresh () in
  let chan = Net_channel.create ~mode ~demux_key:1 () in
  let received = ref 0 in
  let _dom0 =
    Hypervisor.create_domain h ~name:Dom0.name ~privileged:true
      (Dom0.body mach ~net:[ chan ])
  in
  let link_up = ref false in
  let _guest =
    Hypervisor.create_domain h ~name:"guest1" (fun () ->
        let front = Netfront.connect chan ~backend:0 () in
        link_up := true;
        let rec loop () =
          if !received < packets then begin
            match Netfront.recv_blocking front ~timeout:2_000_000L () with
            | Some (_len, _tag) ->
                incr received;
                loop ()
            | None -> ()
          end
        in
        loop ())
  in
  (* Traffic source: one packet every 20k cycles, starting once the
     frontend has fully brought the link up. *)
  let seq = ref 0 in
  Engine.every mach.Machine.engine period (fun () ->
      if !seq < packets then begin
        if !link_up then begin
          incr seq;
          Nic.inject_rx mach.Machine.nic ~tag:(1_000_000 + !seq) ~len
        end;
        true
      end
      else false);
  run_until h (fun () -> !received >= packets);
  (mach, h, chan, !received)

let test_netfront_receives_flipped_packets () =
  let mach, _h, _chan, received = net_scenario ~mode:Net_channel.Flip ~packets:20 ~len:1000 () in
  check_int "all packets arrived" 20 received;
  check_bool "page flips happened" true
    (Counter.get mach.Machine.counters "vmm.page_flip" >= 20);
  check_int "no drops" 0 (Nic.rx_dropped mach.Machine.nic)

let test_netfront_receives_copied_packets () =
  let mach, _h, _chan, received = net_scenario ~mode:Net_channel.Copy ~packets:20 ~len:1000 () in
  check_int "all packets arrived" 20 received;
  check_int "no flips in copy mode" 0
    (Counter.get mach.Machine.counters "vmm.page_flip");
  check_bool "grant copies instead" true
    (Counter.get mach.Machine.counters "vmm.grant_copy" >= 20)

let test_dom0_flip_cost_independent_of_size () =
  let dom0_cycles len =
    let mach, _h, _c, received =
      net_scenario ~mode:Net_channel.Flip ~packets:50 ~len ()
    in
    check_int "received all" 50 received;
    Int64.to_float (Accounts.balance mach.Machine.accounts Dom0.name) /. 50.0
  in
  let small = dom0_cycles 64 and large = dom0_cycles 1460 in
  check_bool
    (Printf.sprintf "per-packet Dom0 cost ~constant (64B %.0f vs 1460B %.0f)"
       small large)
    true
    (large < small *. 1.15)

let test_dom0_copy_dearer_than_flip_at_full_size () =
  (* At identical load, the copying backend charges Dom0 for the bytes
     while the flipping backend does not. *)
  let dom0_cycles mode =
    (* Saturated regime: back-to-back packets, where [CG05] measured.
       Under overload some packets drop at the NIC (that is the point);
       normalise by what was actually delivered. *)
    let mach, _h, _c, received =
      net_scenario ~period:10_000L ~mode ~packets:50 ~len:1460 ()
    in
    check_bool "most packets delivered" true (received >= 30);
    Int64.to_float (Accounts.balance mach.Machine.accounts Dom0.name)
    /. float_of_int received
  in
  let flip = dom0_cycles Net_channel.Flip in
  let copy = dom0_cycles Net_channel.Copy in
  check_bool
    (Printf.sprintf "copy (%.0f) > flip (%.0f) per packet at 1460B" copy flip)
    true (copy > flip)

let test_netfront_tx_reaches_wire () =
  let mach, h = fresh () in
  let chan = Net_channel.create ~mode:Net_channel.Flip ~demux_key:1 () in
  let acked = ref 0 in
  let _dom0 =
    Hypervisor.create_domain h ~name:Dom0.name ~privileged:true
      (Dom0.body mach ~net:[ chan ])
  in
  let _guest =
    Hypervisor.create_domain h ~name:"guest1" (fun () ->
        let front = Netfront.connect chan ~backend:0 () in
        for i = 1 to 10 do
          ignore (Netfront.send front ~len:600 ~tag:(2_000_000 + i))
        done;
        let rec wait () =
          Netfront.pump front;
          if Netfront.tx_acked front < 10 then begin
            match Hcall.block ~timeout:2_000_000L () with
            | Hcall.Events _ ->
                Netfront.pump front;
                wait ()
            | Hcall.Timed_out -> ()
          end
        in
        wait ();
        acked := Netfront.tx_acked front)
  in
  run_until h (fun () -> !acked >= 10);
  check_int "all acked" 10 !acked;
  check_int "wire bytes" 6000 (Nic.tx_bytes mach.Machine.nic)

let test_netfront_detects_dead_backend () =
  let mach, h = fresh () in
  let chan = Net_channel.create ~mode:Net_channel.Flip ~demux_key:1 () in
  let outcome = ref None in
  let dom0 =
    Hypervisor.create_domain h ~name:Dom0.name ~privileged:true
      (Dom0.body mach ~net:[ chan ])
  in
  let _guest =
    Hypervisor.create_domain h ~name:"guest1" (fun () ->
        let front = Netfront.connect chan ~backend:0 () in
        outcome := Some (Netfront.recv_blocking front ~timeout:100_000L ()))
  in
  run_until h (fun () -> chan.Net_channel.back_port <> None);
  Hypervisor.kill_domain h dom0;
  run_idle h;
  check_bool "recv gave up" true (!outcome = Some None)

let test_two_net_guests_demuxed () =
  let mach, h = fresh () in
  let chan_a = Net_channel.create ~mode:Net_channel.Flip ~demux_key:1 () in
  let chan_b = Net_channel.create ~mode:Net_channel.Flip ~demux_key:2 () in
  let _dom0 =
    Hypervisor.create_domain h ~name:Dom0.name ~privileged:true
      (Dom0.body mach ~net:[ chan_a; chan_b ])
  in
  let got_a = ref [] and got_b = ref [] in
  let up = ref 0 in
  (* Direct fibers with raw netfronts for precise control. *)
  let run_guest name chan got =
    ignore
      (Hypervisor.create_domain h ~name (fun () ->
           let front = Netfront.connect chan ~backend:0 () in
           incr up;
           let rec loop n =
             if n > 0 then
               match Netfront.recv_blocking front ~timeout:5_000_000L () with
               | Some (_len, tag) ->
                   got := tag :: !got;
                   loop (n - 1)
               | None -> ()
           in
           loop 3))
  in
  run_guest "ga" chan_a got_a;
  run_guest "gb" chan_b got_b;
  Engine.every mach.Machine.engine 30_000L (fun () ->
      if !up >= 2 then begin
        (* Alternate keys: three packets each. *)
        let n = List.length !got_a + List.length !got_b in
        if n < 6 then begin
          let key = if n land 1 = 0 then 1 else 2 in
          Nic.inject_rx mach.Machine.nic ~tag:((key * 1_000_000) + n) ~len:200
        end
      end;
      List.length !got_a < 3 || List.length !got_b < 3);
  run_until h (fun () -> List.length !got_a >= 3 && List.length !got_b >= 3);
  check_int "guest A got its three" 3 (List.length !got_a);
  check_int "guest B got its three" 3 (List.length !got_b);
  check_bool "A only saw key-1 tags" true
    (List.for_all (fun t -> t / 1_000_000 = 1) !got_a);
  check_bool "B only saw key-2 tags" true
    (List.for_all (fun t -> t / 1_000_000 = 2) !got_b)

(* --- split block driver --- *)

let test_blk_roundtrip_through_dom0 () =
  let mach, h = fresh () in
  let chan = Blk_channel.create ~index:1 () in
  let tag = ref None in
  let _dom0 =
    Hypervisor.create_domain h ~name:Dom0.name ~privileged:true
      (Dom0.body mach ~blk:[ chan ])
  in
  let _guest =
    Hypervisor.create_domain h ~name:"guest1" (fun () ->
        let mux = Evt_mux.create () in
        let front = Blkfront.connect chan ~backend:0 () in
        Evt_mux.on mux (Blkfront.port front) (fun () -> Blkfront.pump front);
        let ok =
          Blkfront.write front ~mux ~sector:3 ~bytes:512 ~tag:444
            ~timeout:10_000_000L ()
        in
        assert ok;
        tag := Blkfront.read front ~mux ~sector:3 ~bytes:512 ~timeout:10_000_000L ())
  in
  run_until h (fun () -> !tag <> None);
  check_bool "tag round-tripped" true (!tag = Some 444);
  check_int "disk saw both ops" 2
    (Disk.reads_total mach.Machine.disk + Disk.writes_total mach.Machine.disk)

(* --- Parallax --- *)

let parallax_scenario ~nclients =
  let mach, h = fresh () in
  let upstream = Blk_channel.create ~index:0 () in
  let client_chans =
    List.init nclients (fun i -> Blk_channel.create ~index:(i + 1) ())
  in
  let _dom0 =
    Hypervisor.create_domain h ~name:Dom0.name ~privileged:true
      (Dom0.body mach ~blk:[ upstream ])
  in
  let parallax =
    Hypervisor.create_domain h ~name:Parallax.name
      (Parallax.body mach ~clients:client_chans ~upstream ~dom0:0)
  in
  (mach, h, parallax, client_chans)

let test_parallax_isolated_virtual_disks () =
  let _mach, h, parallax, chans = parallax_scenario ~nclients:2 in
  ignore parallax;
  let results = Array.make 2 None in
  List.iteri
    (fun i chan ->
      ignore
        (Hypervisor.create_domain h ~name:(Printf.sprintf "client%d" i)
           (fun () ->
             let mux = Evt_mux.create () in
             let front = Blkfront.connect chan ~backend:parallax () in
             Evt_mux.on mux (Blkfront.port front) (fun () -> Blkfront.pump front);
             (* Both clients write to "their" sector 5. *)
             let ok =
               Blkfront.write front ~mux ~sector:5 ~bytes:512
                 ~tag:(1000 + i) ~timeout:50_000_000L ()
             in
             assert ok;
             results.(i) <-
               Blkfront.read front ~mux ~sector:5 ~bytes:512
                 ~timeout:50_000_000L ())))
    chans;
  run_until h (fun () -> Array.for_all (fun r -> r <> None) results);
  check_bool "client0 sees its own data" true (results.(0) = Some 1000);
  check_bool "client1 sees its own data" true (results.(1) = Some 1001)

let test_parallax_death_blast_radius () =
  let _mach, h, parallax, chans = parallax_scenario ~nclients:1 in
  let chan = List.hd chans in
  let first = ref None and second = ref None in
  let phase = ref 0 in
  let _client =
    Hypervisor.create_domain h ~name:"client0" (fun () ->
        let mux = Evt_mux.create () in
        let front = Blkfront.connect chan ~backend:parallax () in
        Evt_mux.on mux (Blkfront.port front) (fun () -> Blkfront.pump front);
        ignore
          (Blkfront.write front ~mux ~sector:1 ~bytes:512 ~tag:9
             ~timeout:50_000_000L ());
        first := Some (Blkfront.read front ~mux ~sector:1 ~bytes:512 ~timeout:50_000_000L ());
        (* Signal the controller that phase 1 is done, then try again. *)
        phase := 1;
        let rec wait_for_kill () =
          if !phase < 2 then begin
            Hcall.yield ();
            wait_for_kill ()
          end
        in
        wait_for_kill ();
        second :=
          Some
            (Blkfront.read front ~mux ~sector:1 ~bytes:512 ~timeout:200_000L ()))
  in
  run_until h (fun () -> !phase = 1);
  Hypervisor.kill_domain h parallax;
  phase := 2;
  run_idle h;
  check_bool "worked before the kill" true (!first = Some (Some 9));
  check_bool "failed after the kill" true (!second = Some None);
  check_bool "dom0 survives" true (Hypervisor.is_alive h 0)

let suite =
  [
    Alcotest.test_case "domain runs and charges" `Quick
      test_domain_runs_and_charges;
    Alcotest.test_case "domain crash contained" `Quick
      test_domain_crash_contained;
    Alcotest.test_case "world switches counted" `Quick test_world_switch_counted;
    Alcotest.test_case "evtchn: handshake + send" `Quick
      test_evtchn_handshake_and_send;
    Alcotest.test_case "evtchn: block timeout" `Quick test_block_timeout;
    Alcotest.test_case "evtchn: unbound send fails" `Quick
      test_send_on_unbound_port_fails;
    Alcotest.test_case "grant: map + permissions" `Quick
      test_grant_map_and_permissions;
    Alcotest.test_case "grant: transfer flips ownership" `Quick
      test_grant_transfer_flips_ownership;
    Alcotest.test_case "grant: ownership required" `Quick
      test_grant_requires_frame_ownership;
    Alcotest.test_case "pt: map validates ownership" `Quick
      test_pt_map_validates_ownership;
    Alcotest.test_case "syscall: fast then TLS breaks it" `Quick
      test_syscall_shortcut_fast_then_broken_by_tls;
    Alcotest.test_case "syscall: needs registration" `Quick
      test_syscall_shortcut_needs_registration;
    Alcotest.test_case "syscall: no gates on x86-64" `Quick
      test_syscall_shortcut_unavailable_without_trap_gates;
    Alcotest.test_case "syscall: bounce costs more" `Quick
      test_syscall_bounce_costs_more;
    Alcotest.test_case "irq: routed to dom0" `Quick
      test_irq_routing_to_privileged_domain;
    Alcotest.test_case "irq: privilege required" `Quick
      test_irq_bind_requires_privilege;
    Alcotest.test_case "pt: batch amortises trap" `Quick
      test_pt_batch_amortises_trap;
    Alcotest.test_case "pt: shadow syncs counted" `Quick
      test_shadow_counts_syncs;
    Alcotest.test_case "sched: weights share cpu" `Quick test_weight_shares_cpu;
    Alcotest.test_case "sched: weight validation" `Quick test_weight_validation;
    Alcotest.test_case "xenstore: write/read/rm" `Quick
      test_xenstore_write_read_rm;
    Alcotest.test_case "xenstore: watch wakes" `Quick
      test_xenstore_watch_wakes_blocked_domain;
    Alcotest.test_case "xenstore: prefix watch" `Quick
      test_xenstore_watch_is_prefix_based;
    Alcotest.test_case "xenstore: dead watcher" `Quick
      test_xenstore_dead_watcher_ignored;
    Alcotest.test_case "kill: peer discovers death" `Quick
      test_kill_domain_and_peer_discovers;
    Alcotest.test_case "net: rx flipped packets" `Quick
      test_netfront_receives_flipped_packets;
    Alcotest.test_case "net: rx copied packets" `Quick
      test_netfront_receives_copied_packets;
    Alcotest.test_case "net: flip cost size-independent" `Quick
      test_dom0_flip_cost_independent_of_size;
    Alcotest.test_case "net: copy dearer than flip at 1460B" `Quick
      test_dom0_copy_dearer_than_flip_at_full_size;
    Alcotest.test_case "net: tx reaches wire" `Quick test_netfront_tx_reaches_wire;
    Alcotest.test_case "net: dead backend detected" `Quick
      test_netfront_detects_dead_backend;
    Alcotest.test_case "net: two guests demuxed" `Quick
      test_two_net_guests_demuxed;
    Alcotest.test_case "blk: roundtrip via dom0" `Quick
      test_blk_roundtrip_through_dom0;
    Alcotest.test_case "parallax: isolated virtual disks" `Quick
      test_parallax_isolated_virtual_disks;
    Alcotest.test_case "parallax: death blast radius" `Quick
      test_parallax_death_blast_radius;
  ]
