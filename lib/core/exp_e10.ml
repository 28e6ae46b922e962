module Machine = Vmk_hw.Machine
module Table = Vmk_stats.Table
module Hypervisor = Vmk_vmm.Hypervisor
module Blk_channel = Vmk_vmm.Blk_channel
module Dom0 = Vmk_vmm.Dom0
module Parallax = Vmk_vmm.Parallax
module Port_xen = Vmk_guest.Port_xen
module Apps = Vmk_workloads.Apps

(* Literature size estimates (kLoC) for the component classes, mid-2000s:
   L4-class microkernel ~10 kLoC [Lie96 era]; Xen 2 core ~70 kLoC
   [BDF+03]; a Linux driver domain or guest kernel ~2 MLoC class
   [CYC+01 studied exactly this code base]; single-purpose servers a few
   kLoC. The defect column applies a uniform density (5 defects/kLoC,
   conservative within [CYC+01]'s 1–16.6 range) — only the RATIOS are
   meaningful. *)
let kloc_of = function
  | "vmm" -> 70
  | "dom0" -> 2_000
  | "parallax" -> 15
  | "ukernel" -> 10
  | "drv.blk" -> 8
  | "drv.net" -> 10
  | "guestk" -> 2_000 (* the client's own OS personality, L4Linux-class *)
  | "guest-os" -> 2_000 (* the client's own paravirtualised kernel *)
  | _ -> 0

let defects_per_kloc = 5

(* Reliance set: infrastructure accounts that burned cycles while serving
   a lone storage client. The client's own account (and its own guest OS,
   which it trusts under every structure) is reported separately. *)
let reliance accounts ~client_accounts =
  accounts
  |> List.filter (fun (name, cycles) ->
         Int64.compare cycles 0L > 0
         && (not (List.mem name client_accounts))
         && name <> "idle")
  |> List.map fst

let storage_app ~quick () =
  let ops = if quick then 20 else 60 in
  Apps.blk_mix ~ops ~span:16 ~seed:7 () ()

let run_l4 ~quick =
  let outcome =
    Scenario.run_l4 ~net:false ~app:(storage_app ~quick) ()
  in
  (* "app" is the client; "guestk" is its own OS personality. *)
  (reliance outcome.Scenario.accounts ~client_accounts:[ "app"; "guestk" ],
   [ "guestk" ])

let run_xen_direct ~quick =
  let outcome = Scenario.run_xen ~net:false ~app:(storage_app ~quick) () in
  (* guest1 bundles the client and its paravirtualised kernel. *)
  (reliance outcome.Scenario.accounts ~client_accounts:[ "guest1" ],
   [ "guest-os" ])

let run_xen_parallax ~quick =
  let mach = Machine.create ~seed:51L () in
  let h = Hypervisor.create mach in
  let upstream = Blk_channel.create ~index:0 () in
  let chan = Blk_channel.create ~index:1 () in
  let dom0 =
    Hypervisor.create_domain h ~name:Dom0.name ~privileged:true
      (Dom0.body mach ~blk:[ upstream ])
  in
  let parallax =
    Hypervisor.create_domain h ~name:Parallax.name
      (Parallax.body mach ~clients:[ chan ] ~upstream ~dom0)
  in
  let done_ = ref false in
  let _client =
    Hypervisor.create_domain h ~name:"client"
      (Port_xen.guest_body mach ~blk:(chan, parallax)
         ~app:(fun () ->
           storage_app ~quick ();
           done_ := true))
  in
  ignore (Hypervisor.run h ~until:(fun () -> !done_));
  let accounts = Vmk_trace.Accounts.to_list mach.Machine.accounts in
  (reliance accounts ~client_accounts:[ "client" ], [ "guest-os" ])

let tcb_rows ~structure (infra, own_os) =
  let weigh names =
    List.fold_left (fun acc name -> acc + kloc_of name) 0 names
  in
  let infra_kloc = weigh infra in
  ( structure,
    infra,
    own_os,
    infra_kloc,
    infra_kloc * defects_per_kloc )

let run ~quick =
  let rows =
    [
      tcb_rows ~structure:"l4 (driver server)" (run_l4 ~quick);
      tcb_rows ~structure:"xen (dom0 storage)" (run_xen_direct ~quick);
      tcb_rows ~structure:"xen (parallax service)" (run_xen_parallax ~quick);
    ]
  in
  let table =
    Table.create
      ~header:
        [
          "structure";
          "measured reliance set (I/O path)";
          "infra kLoC (lit.)";
          "est. defects";
        ]
  in
  List.iter
    (fun (structure, infra, _own, kloc, defects) ->
      Table.add_row table
        [
          structure;
          String.concat " + " (List.sort compare infra);
          string_of_int kloc;
          string_of_int defects;
        ])
    rows;
  let kloc_of_row name =
    let _, _, _, kloc, _ =
      List.find (fun (s, _, _, _, _) -> s = name) rows
    in
    kloc
  in
  let l4_kloc = kloc_of_row "l4 (driver server)" in
  let dom0_kloc = kloc_of_row "xen (dom0 storage)" in
  let parallax_kloc = kloc_of_row "xen (parallax service)" in
  let infra_of name =
    let _, infra, _, _, _ = List.find (fun (s, _, _, _, _) -> s = name) rows in
    List.sort compare infra
  in
  {
    Experiment.tables =
      [ ("Per-client I/O-path TCB (own guest OS excluded — trusted under \
          every structure)", table) ];
    verdicts =
      [
        Experiment.verdict
          ~claim:
            "the super-VM re-introduces a legacy OS into every client's TCB \
             (§2.2, [CYC+01])"
          ~expected:
            "both VMM structures' I/O paths include dom0; the microkernel \
             path replaces it with a single-purpose driver server"
          ~measured:
            (Printf.sprintf "xen: {%s}; l4: {%s}"
               (String.concat ", " (infra_of "xen (dom0 storage)"))
               (String.concat ", " (infra_of "l4 (driver server)")))
          (List.mem "dom0" (infra_of "xen (dom0 storage)")
          && List.mem "dom0" (infra_of "xen (parallax service)")
          && (not (List.mem "dom0" (infra_of "l4 (driver server)")))
          && List.mem "drv.blk" (infra_of "l4 (driver server)"));
        Experiment.verdict
          ~claim:"small kernels shrink the TCB ([HPHS04])"
          ~expected:
            "the microkernel I/O-path TCB is at least 10x smaller (literature \
             kLoC) than either VMM structure's"
          ~measured:
            (Printf.sprintf "l4 %d kLoC vs dom0-direct %d vs parallax %d"
               l4_kloc dom0_kloc parallax_kloc)
          (l4_kloc * 10 <= dom0_kloc && l4_kloc * 10 <= parallax_kloc);
        Experiment.verdict
          ~claim:"disaggregation does not shrink the TCB while dom0 stays \
                  on the path"
          ~expected:
            "the parallax structure's TCB is not smaller than dom0-direct \
             (it adds a component; dom0 remains)"
          ~measured:
            (Printf.sprintf "parallax %d kLoC vs direct %d kLoC" parallax_kloc
               dom0_kloc)
          (parallax_kloc >= dom0_kloc);
      ];
  }

let experiment =
  {
    Experiment.id = "e10";
    title = "Per-client TCB: reliance sets and their size";
    paper_claim =
      "§2.2: a super-VM running 'a legacy operating system … re-introduces \
       a large number of software bugs [CYC+01]'; conclusion cites [HPHS04] \
       on reducing TCB size with small kernels.";
    run;
  }
