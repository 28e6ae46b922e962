module Machine = Vmk_hw.Machine
module Cpu = Vmk_hw.Cpu
module Arch = Vmk_hw.Arch
module Tlb = Vmk_hw.Tlb
module Accounts = Vmk_trace.Accounts
module Counter = Vmk_trace.Counter
module Engine = Vmk_sim.Engine
module Heap = Vmk_sim.Heap

type tid = int

(* Inside the executor every virtual time is a native int (a cycle count
   never nears 2^62): an int64 field boxes on every write. Times cross
   to int64 only at the [Cpu.now] / [Engine] boundary. *)

type lock = {
  lname : string;
  mutable free_at : int;
      (** Global virtual time at which the previous critical section ends;
          an acquirer arriving earlier spins for the difference. *)
  mutable acquisitions : int;
  mutable contended : int;
  mutable spin_cycles : int;
}

(* Cross-core hardware costs that are not per-architecture: these model
   the shared-fabric side (cache-line transfer, spinlock probe, shootdown
   bookkeeping); the per-arch side (IPI delivery, shootdown ack handler)
   comes from Arch.profile. *)
let yield_cost = 20
let lock_base_cost = 40
let cacheline_delay = 60
let ipi_post_cost = 80
let shootdown_base_cost = 150
let shootdown_per_core_cost = 80

(* "Never": the wake-up time of a thread parked on an empty mailbox, and
   what the scans below (and [Engine.next_due]) return when nothing is
   scheduled. *)
let far = max_int

type call =
  | Burn of int
  | Yield
  | Recv
  | Send of { dst : tid; tag : int; cycles : int }
  | Locked of { lk : lock; cycles : int }
  | Shootdown of { pages : int }

(* The reply is the received tag for [Recv], 0 for every other call. *)
type _ Effect.t += Invoke : call -> int Effect.t

type state = Ready | Running | Blocked | Done

type thread = {
  tid : tid;
  name : string;
  account : Accounts.id;
  cpu : int;
  weight : int;
  mutable credit : int;
  mutable st : state;
  mutable cont : (int, unit) Effect.Deep.continuation option;
  mutable call : call;  (** The call the fiber suspended on. *)
  mutable pending : int;
  mutable body : (unit -> unit) option;
  mutable burn_left : int;
  mutable ready_at : int;
      (** Earliest global time this thread may next run: message
          visibility for receivers, [far] while parked with an empty
          mailbox. *)
  mutable waiting_recv : bool;
  mailbox : unit Heap.t;
      (** Keyed by visibility time, the tag in the entry's int payload.
          The heap breaks ties in insertion order, so messages come out
          by (visibility time, send order). *)
}

type core = {
  hw : Cpu.t;
  mutable threads : thread array;  (** Pinned here, in spawn order. *)
  mutable pending_ipi : int;
      (** Deferred interrupt-handler cycles this core owes before its
          next dispatch, one bucket per cause. *)
  mutable pending_irq : int;
  mutable pending_shootdown : int;
}

(* Pre-resolved counter ids and interned accounts for the cross-core
   hot path (E21): IPC posts, IPIs, lock spins and shootdowns fire per
   message or per acquisition. Spawn and crash counters stay
   string-keyed (cold). *)
type hot_ids = {
  id_irq : int;
  id_ipi : int;
  id_spin_cycles : int;
  id_shootdown : int;
  id_shootdown_pages : int;
  id_shootdown_acks : int;
  acct_ipi : Accounts.id;
  acct_irq : Accounts.id;
  acct_spin : Accounts.id;
  acct_shootdown : Accounts.id;
}

(* The interleaving granularity: each scheduling round runs every core,
   in core-id order, for this many cycles of global time. *)
let quantum = 1000
let quantum64 = Int64.of_int quantum

type t = {
  mach : Machine.t;
  ids : hot_ids;
  cores : core array;
  mutable by_tid : thread array;  (** Slot [tid]; [nobody] when unused. *)
  mutable next_tid : int;
  mutable round_end : int;
}

type stop_reason = Idle | Condition | Rounds
type costs = { free : int; locked : int; irq : int }

(* What a lookup of an unknown tid finds: already [Done], so every
   caller treats it like a finished thread. It is never scheduled, so
   nothing writes to it, and its account is never charged. *)
let nobody =
  {
    tid = 0;
    name = "";
    account = Accounts.id (Accounts.create ()) "";
    cpu = 0;
    weight = 1;
    credit = 0;
    st = Done;
    cont = None;
    call = Yield;
    pending = 0;
    body = None;
    burn_left = 0;
    ready_at = far;
    waiting_recv = false;
    mailbox = Heap.create ();
  }

let create mach =
  let cores =
    Array.init (Machine.ncpus mach) (fun i ->
        {
          hw = Machine.cpu mach i;
          threads = [||];
          pending_ipi = 0;
          pending_irq = 0;
          pending_shootdown = 0;
        })
  in
  let c = mach.Machine.counters and a = mach.Machine.accounts in
  {
    mach;
    ids =
      {
        id_irq = Counter.id c "smp.irq";
        id_ipi = Counter.id c "smp.ipi";
        id_spin_cycles = Counter.id c "smp.spin.cycles";
        id_shootdown = Counter.id c "smp.shootdown";
        id_shootdown_pages = Counter.id c "smp.shootdown.pages";
        id_shootdown_acks = Counter.id c "smp.shootdown.acks";
        acct_ipi = Accounts.id a "smp.ipi";
        acct_irq = Accounts.id a "smp.irq";
        acct_spin = Accounts.id a "smp.spin";
        acct_shootdown = Accounts.id a "smp.shootdown";
      };
    cores;
    by_tid = Array.make 32 nobody;
    next_tid = 1;
    round_end = 0;
  }

let machine t = t.mach
let ncpus t = Array.length t.cores
let credit_cap weight = 8 * weight
let[@inline] now_of hw = Int64.to_int hw.Cpu.now

let find t tid =
  if tid > 0 && tid < t.next_tid then t.by_tid.(tid) else nobody

let spawn t ~name ?account ~cpu ?(weight = 1) body =
  if cpu < 0 || cpu >= Array.length t.cores then
    invalid_arg "Smp.spawn: bad cpu index";
  if weight < 1 then invalid_arg "Smp.spawn: weight must be positive";
  let tid = t.next_tid in
  t.next_tid <- t.next_tid + 1;
  let th =
    {
      tid;
      name;
      account =
        Accounts.id t.mach.Machine.accounts (Option.value account ~default:name);
      cpu;
      weight;
      credit = weight;
      st = Ready;
      cont = None;
      call = Yield;
      pending = 0;
      body = Some body;
      burn_left = 0;
      ready_at = 0;
      waiting_recv = false;
      mailbox = Heap.create ();
    }
  in
  let cap = Array.length t.by_tid in
  if tid >= cap then begin
    let by_tid = Array.make (2 * cap) nobody in
    Array.blit t.by_tid 0 by_tid 0 cap;
    t.by_tid <- by_tid
  end;
  t.by_tid.(tid) <- th;
  let core = t.cores.(cpu) in
  core.threads <- Array.append core.threads [| th |];
  Counter.incr t.mach.Machine.counters "smp.spawn";
  tid

(* --- mailboxes --- *)

let park_recv th now =
  th.waiting_recv <- true;
  let first = Heap.min_time_or th.mailbox far in
  if first < far then begin
    th.st <- Ready;
    th.ready_at <- (if first > now then first else now)
  end
  else begin
    th.st <- Blocked;
    th.ready_at <- far
  end

let deliver dst ~visible ~tag =
  Heap.push dst.mailbox ~time:visible ~arg:tag ();
  if dst.waiting_recv then begin
    if dst.st = Blocked then dst.st <- Ready;
    if visible < dst.ready_at then dst.ready_at <- visible
  end

let post t ?irq_cost ~dst tag =
  let d = find t dst in
  if d.st <> Done then begin
    let cost =
      match irq_cost with
      | Some c -> c
      | None -> t.mach.Machine.arch.Arch.irq_entry_cost
    in
    let core = t.cores.(d.cpu) in
    core.pending_irq <- core.pending_irq + cost;
    Counter.incr_id t.mach.Machine.counters t.ids.id_irq;
    deliver d ~visible:(Int64.to_int (Engine.now t.mach.Machine.engine)) ~tag
  end

(* --- syscall-style handling --- *)

let make_ready th ~at =
  th.pending <- 0;
  th.st <- Ready;
  th.ready_at <- at

let rec handle t core th call =
  let arch = t.mach.Machine.arch in
  let counters = t.mach.Machine.counters in
  let hw = core.hw in
  match call with
  | Burn n ->
      (* Pure computation: consumed one quantum-slice per dispatch so the
         per-core scheduler can preempt long stretches. *)
      th.burn_left <- max 0 n;
      make_ready th ~at:(now_of hw)
  | Yield ->
      Machine.burn_on t.mach ~cpu:hw yield_cost;
      make_ready th ~at:t.round_end
  | Recv -> park_recv th (now_of hw)
  | Send { dst; tag; cycles } ->
      Machine.burn_on t.mach ~cpu:hw cycles;
      let d = find t dst in
      (* A dead letter: the sender is not blocked on a corpse. *)
      if d.st <> Done then begin
        let visible =
          if d.cpu = th.cpu then now_of hw
          else if d.st = Blocked && d.waiting_recv then begin
            (* Target core sleeps in recv: wake it with an IPI. The
               sender pays the post; the target core owes the delivery
               cost before its next dispatch. *)
            Machine.burn_on t.mach ~cpu:hw ipi_post_cost;
            let tcore = t.cores.(d.cpu) in
            tcore.pending_ipi <- tcore.pending_ipi + arch.Arch.ipi_cost;
            Counter.incr_id counters t.ids.id_ipi;
            now_of hw + arch.Arch.ipi_cost
          end
          else
            (* Busy remote core polls its mailbox: the message is
               visible after one cache-line transfer. *)
            now_of hw + cacheline_delay
        in
        deliver d ~visible ~tag
      end;
      make_ready th ~at:(now_of hw)
  | Locked { lk; cycles } ->
      Machine.burn_on t.mach ~cpu:hw lock_base_cost;
      lk.acquisitions <- lk.acquisitions + 1;
      let now0 = now_of hw in
      if lk.free_at > now0 then begin
        let spin = lk.free_at - now0 in
        lk.contended <- lk.contended + 1;
        lk.spin_cycles <- lk.spin_cycles + spin;
        Accounts.charge_id_on t.mach.Machine.accounts ~cpu:th.cpu
          t.ids.acct_spin spin;
        Counter.add_id counters t.ids.id_spin_cycles spin;
        Cpu.advance hw spin
      end;
      Machine.burn_on t.mach ~cpu:hw cycles;
      lk.free_at <- now_of hw;
      make_ready th ~at:(now_of hw)
  | Shootdown { pages } ->
      let n = Array.length t.cores in
      Counter.incr_id counters t.ids.id_shootdown;
      Counter.add_id counters t.ids.id_shootdown_pages (max 0 pages);
      let cost =
        if n > 1 then
          shootdown_base_cost
          + ((n - 1) * shootdown_per_core_cost)
          (* send the IPI round and wait for the last ack *)
          + arch.Arch.ipi_cost + arch.Arch.shootdown_ack_cost
        else shootdown_base_cost
      in
      Machine.burn_on t.mach ~cpu:hw cost;
      for i = 0 to n - 1 do
        let c = t.cores.(i) in
        if c.hw.Cpu.id <> th.cpu then begin
          c.pending_shootdown <-
            c.pending_shootdown + arch.Arch.shootdown_ack_cost;
          Tlb.flush_all c.hw.Cpu.tlb;
          Counter.incr_id counters t.ids.id_shootdown_acks
        end
      done;
      make_ready th ~at:(now_of hw)

and start_fiber t core th body =
  let open Effect.Deep in
  (* One suspend handler per thread, built here: the effect handler
     parks the call in [th.call] and hands back this same option, so a
     suspend allocates no closure. *)
  let suspend =
    Some
      (fun (kont : (int, unit) continuation) ->
        th.cont <- Some kont;
        handle t core th th.call)
  in
  match_with body ()
    {
      retc = (fun () -> th.st <- Done);
      exnc =
        (fun _exn ->
          Counter.incr t.mach.Machine.counters "smp.thread.crashed";
          th.st <- Done);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Invoke call ->
              th.call <- call;
              (suspend : ((a, unit) continuation -> unit) option)
          | _ -> None);
    }

and continue_thread t core th =
  match th.body with
  | Some body ->
      th.body <- None;
      start_fiber t core th body
  | None -> (
      match th.cont with
      | Some kont ->
          th.cont <- None;
          Effect.Deep.continue kont th.pending
      | None -> th.st <- Done)

let dispatch t core th =
  th.st <- Running;
  Accounts.switch_to_id t.mach.Machine.accounts th.account;
  if th.waiting_recv then begin
    let now = now_of core.hw in
    if Heap.min_time_or th.mailbox far <= now then begin
      th.pending <- Heap.top_arg th.mailbox;
      Heap.pop_exn th.mailbox;
      th.waiting_recv <- false;
      continue_thread t core th
    end
    else park_recv th now
  end
  else if th.burn_left > 0 then begin
    let step = min th.burn_left quantum in
    Machine.burn_on t.mach ~cpu:core.hw step;
    th.burn_left <- th.burn_left - step;
    if th.st = Running then begin
      th.st <- Ready;
      th.ready_at <- now_of core.hw
    end
  end
  else continue_thread t core th

(* --- per-core scheduling --- *)

(* Index of the Ready thread, runnable at [now], with the most credit;
   ties go to the earliest spawned. -1 when none is. *)
let pick core now =
  let best = ref (-1) in
  let threads = core.threads in
  for i = 0 to Array.length threads - 1 do
    let th = threads.(i) in
    if th.st = Ready && th.ready_at <= now
       && (!best < 0 || th.credit > threads.(!best).credit)
    then best := i
  done;
  !best

let earliest_ready core =
  let at = ref far in
  let threads = core.threads in
  for i = 0 to Array.length threads - 1 do
    let th = threads.(i) in
    if th.st = Ready && th.ready_at < !at then at := th.ready_at
  done;
  !at

(* Settle one bucket of deferred cross-core interrupt work; true when
   there was any. *)
let pay t core amount account =
  if amount > 0 then begin
    Accounts.charge_id_on t.mach.Machine.accounts ~cpu:core.hw.Cpu.id account
      amount;
    Cpu.advance core.hw amount;
    true
  end
  else false

(* [round_start] is the engine clock's own boxed value, so syncing a
   core to it allocates nothing. *)
let run_core t core ~round_start =
  let hw = core.hw in
  if Int64.compare hw.Cpu.now round_start < 0 then hw.Cpu.now <- round_start;
  (* Settle deferred cross-core interrupt work before dispatching.
     Absorbing it is progress: it can push this core past the round
     end, and the global loop must keep burning quanta until the core
     re-enters a round window. *)
  let paid_ipi = pay t core core.pending_ipi t.ids.acct_ipi in
  core.pending_ipi <- 0;
  let paid_irq = pay t core core.pending_irq t.ids.acct_irq in
  core.pending_irq <- 0;
  let paid_shootdown =
    pay t core core.pending_shootdown t.ids.acct_shootdown
  in
  core.pending_shootdown <- 0;
  let did = ref (paid_ipi || paid_irq || paid_shootdown) in
  let go = ref true in
  while !go && now_of hw < t.round_end do
    let now = now_of hw in
    let i = pick core now in
    if i >= 0 then begin
      let th = core.threads.(i) in
      dispatch t core th;
      th.credit <- th.credit - (now_of hw - now);
      did := true
    end
    else begin
      (* Nobody runnable right now; skip forward within the quantum if
         someone becomes runnable before it ends. *)
      let at = earliest_ready core in
      if at < t.round_end && at > now then hw.Cpu.now <- Int64.of_int at
      else go := false
    end
  done;
  !did

(* A core with no thread and no deferred interrupt work has nothing to
   do in a round; only its clock would move, and [run_core] re-syncs
   that on the next round it runs. *)
let has_work core =
  Array.length core.threads > 0
  || core.pending_ipi > 0 || core.pending_irq > 0 || core.pending_shootdown > 0

let run_round t ~round_start =
  let did = ref false in
  for c = 0 to Array.length t.cores - 1 do
    let core = t.cores.(c) in
    if has_work core && run_core t core ~round_start then did := true
  done;
  !did

let refill t =
  for c = 0 to Array.length t.cores - 1 do
    let threads = t.cores.(c).threads in
    for i = 0 to Array.length threads - 1 do
      let th = threads.(i) in
      if th.st <> Done then
        th.credit <- min (credit_cap th.weight) (th.credit + th.weight)
    done
  done

(* Earliest finite wake-up among parked-but-scheduled threads, for
   skipping dead quanta; [far] when there is none. A thread cannot run
   before its own core's local clock either — a core that overshot the
   round (long atomic op, deferred IPI work) drags its threads' effective
   wake-up with it, so the engine must catch up to the core, not the
   reverse. *)
let next_wakeup t =
  let best = ref far in
  for c = 0 to Array.length t.cores - 1 do
    let core = t.cores.(c) in
    let now = now_of core.hw in
    for i = 0 to Array.length core.threads - 1 do
      let th = core.threads.(i) in
      if th.st = Ready && th.ready_at < far then begin
        let cand = if now > th.ready_at then now else th.ready_at in
        if cand < !best then best := cand
      end
    done
  done;
  !best

let run ?until ?(max_rounds = 2_000_000) ?(tickless = true) t =
  let eng = t.mach.Machine.engine in
  (* [hop]: this round is an intermediate stop of a stepped gap
     crossing, which the tickless jump does not make, so it refills no
     credit either. *)
  let rec loop rounds ~hop =
    if (match until with Some f -> f () | None -> false) then Condition
    else if rounds >= max_rounds then Rounds
    else begin
      let round_start = Engine.now eng in
      t.round_end <- Int64.to_int round_start + quantum;
      if not hop then refill t;
      if run_round t ~round_start then begin
        Engine.burn eng quantum64;
        loop (rounds + 1) ~hop:false
      end
      else
        let due = Engine.next_due eng in
        let wake = next_wakeup t in
        let target = if due <= wake then due else wake in
        if target = far then Idle
        else begin
          (* Always at least one cycle so the loop can never stall on a
             stale target. With [tickless] off the gap is crossed in
             quantum-sized hops that stop exactly at the target — same
             clock at every dispatch, just more rounds. The test
             suite's equivalence property leans on this. The odd
             remainder goes first: a round starting less than a quantum
             before a wake-up would run it inside that round, on a round
             grid the tickless jump never uses. *)
          let delta = max 1 (target - Int64.to_int (Engine.now eng)) in
          let step =
            if tickless then begin
              if delta > quantum then
                Engine.note_idle eng (Int64.of_int (delta - quantum));
              delta
            end
            else if delta <= quantum then delta
            else
              let rem = delta mod quantum in
              if rem = 0 then quantum else rem
          in
          Engine.burn eng (Int64.of_int step);
          loop (rounds + 1) ~hop:(step < delta)
        end
    end
  in
  let reason = loop 0 ~hop:false in
  Accounts.switch_to t.mach.Machine.accounts "idle";
  reason

(* --- thread operations (inside fibers) --- *)

let invoke call = Effect.perform (Invoke call)
let burn n = ignore (invoke (Burn n))

(* The argument-free calls perform one shared effect value each. *)
let invoke_yield = Invoke Yield
let invoke_recv = Invoke Recv
let yield () = ignore (Effect.perform invoke_yield)
let recv () = Effect.perform invoke_recv

let send ~dst ~tag ~cycles = ignore (invoke (Send { dst; tag; cycles }))
let locked lk ~cycles = ignore (invoke (Locked { lk; cycles }))
let shootdown ~pages = ignore (invoke (Shootdown { pages }))

(* --- locks --- *)

let lock_create _t ~name =
  { lname = name; free_at = 0; acquisitions = 0; contended = 0; spin_cycles = 0 }

let lock_name lk = lk.lname
let lock_acquisitions lk = lk.acquisitions
let lock_contended lk = lk.contended
let lock_spin_cycles lk = Int64.of_int lk.spin_cycles
let is_done t tid = (find t tid).st = Done
