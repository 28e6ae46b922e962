(* Tests for counters and cycle accounts. *)

open Vmk_trace

let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)
let check_bool = Alcotest.(check bool)

(* --- Counter --- *)

let test_counter_incr_and_get () =
  let s = Counter.create_set () in
  Counter.incr s "a";
  Counter.incr s "a";
  Counter.add s "b" 5;
  check_int "a" 2 (Counter.get s "a");
  check_int "b" 5 (Counter.get s "b");
  check_int "missing" 0 (Counter.get s "zzz")

let test_counter_negative_add_rejected () =
  let s = Counter.create_set () in
  Alcotest.check_raises "negative" (Invalid_argument "Counter.add: negative amount")
    (fun () -> Counter.add s "x" (-1))

let test_counter_reset_keeps_names () =
  let s = Counter.create_set () in
  Counter.add s "x" 3;
  Counter.reset s;
  check_int "zeroed" 0 (Counter.get s "x");
  check_bool "no nonzero counters listed" true (Counter.to_list s = [])

let test_counter_matching_prefix () =
  let s = Counter.create_set () in
  Counter.add s "ipc.send" 2;
  Counter.add s "ipc.recv" 3;
  Counter.add s "irq.raise" 7;
  check_int "sum ipc.*" 5 (Counter.sum_matching s ~prefix:"ipc.");
  check_int "matching count" 2 (List.length (Counter.matching s ~prefix:"ipc."))

let test_counter_interned_id_same_cell () =
  (* E21 hot paths intern once and bump by id; the string shim must hit
     the very same cell, whichever API touched the name first. *)
  let s = Counter.create_set () in
  Counter.incr s "uk.ipc.rendezvous" (* string API creates the cell *);
  let id = Counter.id s "uk.ipc.rendezvous" in
  Counter.incr_id s id;
  Counter.add s "uk.ipc.rendezvous" 3;
  Counter.add_id s id 5;
  check_int "both APIs hit one cell (string view)" 10
    (Counter.get s "uk.ipc.rendezvous");
  check_int "both APIs hit one cell (id view)" 10 (Counter.get_id s id);
  check_int "re-interning is stable" id (Counter.id s "uk.ipc.rendezvous");
  Alcotest.(check string) "id resolves back to its name" "uk.ipc.rendezvous"
    (Counter.name s id);
  (* Interning alone leaves the counter at zero and invisible in dumps,
     so eager wiring cannot perturb replay output. *)
  let s2 = Counter.create_set () in
  ignore (Counter.id s2 "wired.but.never.hit");
  check_bool "interned-but-zero not listed" true (Counter.to_list s2 = []);
  Alcotest.check_raises "negative add_id rejected"
    (Invalid_argument "Counter.add: negative amount") (fun () ->
      Counter.add_id s id (-1))

let test_counter_to_list_sorted () =
  let s = Counter.create_set () in
  Counter.incr s "zeta";
  Counter.incr s "alpha";
  Alcotest.(check (list string)) "sorted names" [ "alpha"; "zeta" ]
    (List.map fst (Counter.to_list s))

(* --- Accounts --- *)

let test_accounts_charge_and_share () =
  let a = Accounts.create () in
  Accounts.charge a "dom0" 750L;
  Accounts.charge a "guest" 250L;
  check_i64 "dom0" 750L (Accounts.balance a "dom0");
  Alcotest.(check (float 1e-9)) "share" 0.75 (Accounts.share a "dom0")

let test_accounts_idle_excluded_from_busy () =
  let a = Accounts.create () in
  Accounts.charge a "idle" 1000L;
  Accounts.charge a "guest" 100L;
  check_i64 "busy total" 100L (Accounts.busy_total a);
  check_i64 "grand total" 1100L (Accounts.total a);
  Alcotest.(check (float 1e-9)) "guest share of busy" 1.0 (Accounts.share a "guest")

let test_accounts_current_switching () =
  let a = Accounts.create () in
  Alcotest.(check string) "starts idle" "idle" (Accounts.current a);
  Accounts.switch_to a "vmm";
  Accounts.charge_current a 10L;
  check_i64 "charged vmm" 10L (Accounts.balance a "vmm")

let test_accounts_with_account_restores () =
  let a = Accounts.create () in
  Accounts.switch_to a "guest";
  let result = Accounts.with_account a "vmm" (fun () ->
      Accounts.charge_current a 5L;
      "ok")
  in
  Alcotest.(check string) "returns" "ok" result;
  Alcotest.(check string) "restored" "guest" (Accounts.current a);
  check_i64 "vmm charged" 5L (Accounts.balance a "vmm")

let test_accounts_with_account_restores_on_exception () =
  (* The current account's cell is resolved at switch time, so after a
     restore the charges must land in the restored account, not in the
     one switched away from. *)
  let a = Accounts.create () in
  Accounts.switch_to a "guest";
  (try
     Accounts.with_account a "vmm" (fun () ->
         Accounts.charge_current a 5L;
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check string) "restored after raise" "guest" (Accounts.current a);
  Accounts.charge_current a 7L;
  check_i64 "vmm keeps its charge" 5L (Accounts.balance a "vmm");
  check_i64 "restored account charged" 7L (Accounts.balance a "guest");
  let prev = Accounts.swap a "dom0" in
  Alcotest.(check string) "swap returns the previous" "guest" prev;
  Accounts.charge_current_on a ~cpu:2 11;
  Accounts.restore a prev;
  Alcotest.(check string) "restored after swap" "guest" (Accounts.current a);
  Accounts.charge_current_on a ~cpu:2 13;
  check_i64 "dom0 on cpu2" 11L (Accounts.cpu_balance a ~cpu:2 "dom0");
  check_i64 "guest on cpu2" 13L (Accounts.cpu_balance a ~cpu:2 "guest")

let test_accounts_switch_without_charge_invisible () =
  (* Selecting an account creates its cell; until something is charged
     to it, no reader may see it. *)
  let a = Accounts.create () in
  Accounts.charge_on a ~cpu:1 "dom0" 40L;
  Accounts.charge a "guest" 2L;
  let snapshot () =
    ( Accounts.to_list a,
      List.init 4 (fun cpu -> Accounts.to_cpu_list a ~cpu),
      Accounts.cpus_seen a,
      Accounts.total a )
  in
  let before = snapshot () in
  Accounts.switch_to a "never.charged";
  Accounts.restore a (Accounts.swap a "also.never");
  Accounts.switch_to a "idle";
  check_bool "listings, cpus_seen and total unchanged" true
    (before = snapshot ());
  check_i64 "no balance" 0L (Accounts.balance a "never.charged");
  Alcotest.(check (float 1e-9)) "no share" 0.0 (Accounts.share a "also.never")

let test_accounts_charge_allocation_free () =
  let a = Accounts.create () in
  Accounts.switch_to a "srv";
  Accounts.charge_current_on a ~cpu:3 1 (* sizes the per-cpu buckets *);
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Accounts.charge_current_on a ~cpu:3 2
  done;
  let w1 = Gc.minor_words () in
  check_int "minor words for 10k charges" 0 (int_of_float (w1 -. w0));
  check_i64 "all charged" 20_001L (Accounts.cpu_balance a ~cpu:3 "srv")

let test_accounts_negative_charge_rejected () =
  let a = Accounts.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Accounts.charge: negative")
    (fun () -> Accounts.charge a "x" (-1L))

let test_accounts_share_empty () =
  let a = Accounts.create () in
  Alcotest.(check (float 1e-9)) "no charges" 0.0 (Accounts.share a "x")

let suite =
  [
    Alcotest.test_case "counter: incr/add/get" `Quick test_counter_incr_and_get;
    Alcotest.test_case "counter: negative rejected" `Quick
      test_counter_negative_add_rejected;
    Alcotest.test_case "counter: reset" `Quick test_counter_reset_keeps_names;
    Alcotest.test_case "counter: prefix matching" `Quick
      test_counter_matching_prefix;
    Alcotest.test_case "counter: interned id shares the string cell" `Quick
      test_counter_interned_id_same_cell;
    Alcotest.test_case "counter: sorted listing" `Quick
      test_counter_to_list_sorted;
    Alcotest.test_case "accounts: charge and share" `Quick
      test_accounts_charge_and_share;
    Alcotest.test_case "accounts: idle excluded" `Quick
      test_accounts_idle_excluded_from_busy;
    Alcotest.test_case "accounts: current switching" `Quick
      test_accounts_current_switching;
    Alcotest.test_case "accounts: with_account restores" `Quick
      test_accounts_with_account_restores;
    Alcotest.test_case "accounts: restores on exception" `Quick
      test_accounts_with_account_restores_on_exception;
    Alcotest.test_case "accounts: uncharged switch invisible" `Quick
      test_accounts_switch_without_charge_invisible;
    Alcotest.test_case "accounts: charge allocation-free" `Quick
      test_accounts_charge_allocation_free;
    Alcotest.test_case "accounts: negative rejected" `Quick
      test_accounts_negative_charge_rejected;
    Alcotest.test_case "accounts: empty share" `Quick test_accounts_share_empty;
  ]
