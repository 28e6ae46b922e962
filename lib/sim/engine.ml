type t = {
  clock : Clock.t;
  queue : (unit -> unit) Heap.t;
  mutable arg : int;  (* payload of the int event being fired *)
  (* Tickless bookkeeping (E21): how much virtual time was jumped over
     instead of being stepped through quantum by quantum. Plain fields,
     not counters, so enabling them cannot perturb experiment dumps. *)
  mutable idle_jumps : int;
  mutable idle_skipped : int64;
  mutable burst_jumps : int;
  mutable burst_skipped : int64;
}

let create () =
  {
    clock = Clock.create ();
    queue = Heap.create ();
    arg = 0;
    idle_jumps = 0;
    idle_skipped = 0L;
    burst_jumps = 0;
    burst_skipped = 0L;
  }
let clock t = t.clock
let now t = Clock.now t.clock

(* The queue keeps native-int times (a cycle count never nears 2^62);
   a time past [max_int] is kept as [max_int], which the clock never
   reaches. *)
let max_time = Int64.of_int max_int

let time_of time =
  if Int64.compare time max_time > 0 then max_int else Int64.to_int time

let at t time f = Heap.push t.queue ~time:(time_of time) ~arg:0 f
let after t delta f = at t (Int64.add (now t) delta) f

(* An int event is a thunk built once per handler that reads the
   payload [dispatch_due] stores in [t.arg] just before calling it, so
   scheduling one writes heap slots and allocates nothing. *)
type handler = unit -> unit

let handler t f =
  let rec h () = f h t.arg in
  h

let at_int t time h arg = Heap.push t.queue ~time ~arg h

(* The heap has no removal, so cancellation is flag-based: the queued
   closure checks its handle and fires only if still armed. *)
type handle = { mutable cancelled : bool }

let at_cancellable t time f =
  let h = { cancelled = false } in
  at t time (fun () -> if not h.cancelled then f ());
  h

let cancel h = h.cancelled <- true
let cancelled h = h.cancelled

let every t period f =
  if Int64.compare period 0L <= 0 then
    invalid_arg "Engine.every: period must be positive";
  (* Reschedule relative to the due time, not the (possibly later) dispatch
     time, so periods stay exact even when the clock jumps past several
     deadlines in one burn. *)
  let rec tick deadline () =
    if f () then begin
      let next = Int64.add deadline period in
      at t next (tick next)
    end
  in
  let first = Int64.add (now t) period in
  at t first (tick first)

let pending t = Heap.length t.queue

let[@inline] next_due t = Heap.min_time_or t.queue max_int

let note_burst t cycles =
  t.burst_jumps <- t.burst_jumps + 1;
  t.burst_skipped <- Int64.add t.burst_skipped cycles

let note_idle t cycles =
  t.idle_jumps <- t.idle_jumps + 1;
  t.idle_skipped <- Int64.add t.idle_skipped cycles

let idle_jumps t = t.idle_jumps
let idle_skipped t = t.idle_skipped
let burst_jumps t = t.burst_jumps
let burst_skipped t = t.burst_skipped

let dispatch_due t =
  (* Allocation-free drain: no option/pair boxes on the per-event
     path (E21). [max_int] doubles as the empty sentinel; an empty
     queue can never be [<= now] because the clock never reaches it. *)
  while Heap.min_time_or t.queue max_int <= Int64.to_int (now t) do
    t.arg <- Heap.top_arg t.queue;
    (Heap.pop_exn t.queue) ()
  done

let burn t cycles =
  Clock.advance t.clock cycles;
  dispatch_due t

let idle_to_next t =
  if Heap.is_empty t.queue then false
  else begin
    let time = Heap.min_time_or t.queue max_int in
    let skipped = time - Int64.to_int (now t) in
    if skipped > 0 then begin
      t.idle_jumps <- t.idle_jumps + 1;
      t.idle_skipped <- Int64.add t.idle_skipped (Int64.of_int skipped)
    end;
    Clock.advance_to t.clock (Int64.of_int time);
    dispatch_due t;
    true
  end

let run ?until t =
  let limit = match until with Some l -> time_of l | None -> max_int in
  while (not (Heap.is_empty t.queue)) && Heap.min_time_or t.queue max_int <= limit do
    ignore (idle_to_next t)
  done
