(* Host-speed calibrator for perfbench/run.py.

   A fixed, deterministic piece of OCaml work that links nothing from the
   repo: a binary-heap event queue, a hash table and a balanced map
   updated per event, and short-lived records for the minor heap, the
   same mix of work the simulator does. Its dune stanza sets its compiler
   flags explicitly, so no flag set elsewhere in the repo changes it.
   run.py runs it between workload iterations and divides each
   iteration's wall time by the calibrator's, which removes the host's
   speed drift between runs.

     calib.exe [ROUNDS]    default 3 rounds of about 40 ms each

   Prints one line: ROUNDS CHECKSUM NS NS ... (host ns of each round). *)

module M = Map.Make (Int)

type ev = { at : int; key : int; payload : int array }

let events = 40_000

let round () =
  let heap = Array.make (events + 1) { at = 0; key = 0; payload = [||] } in
  let n = ref 0 in
  let push e =
    incr n;
    let i = ref !n in
    while !i > 1 && heap.(!i / 2).at > e.at do
      heap.(!i) <- heap.(!i / 2);
      i := !i / 2
    done;
    heap.(!i) <- e
  in
  let pop () =
    let top = heap.(1) in
    let last = heap.(!n) in
    decr n;
    let i = ref 1 and fin = ref false in
    while not !fin do
      let l = 2 * !i in
      if l > !n then fin := true
      else begin
        let c = if l + 1 <= !n && heap.(l + 1).at < heap.(l).at then l + 1 else l in
        if heap.(c).at < last.at then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else fin := true
      end
    done;
    heap.(!i) <- last;
    top
  in
  let tbl = Hashtbl.create 16 in
  let map = ref M.empty in
  let sum = ref 0 in
  for i = 1 to events do
    let key = i * 7919 land 0xfff in
    push { at = i * 2654435761 land 0xfffff; key; payload = Array.make 4 i }
  done;
  while !n > 0 do
    let e = pop () in
    let prev = Option.value ~default:0 (Hashtbl.find_opt tbl e.key) in
    Hashtbl.replace tbl e.key (prev + e.payload.(3));
    map := M.add (e.key lxor e.at) e.at !map;
    sum := (!sum * 31) + prev + M.cardinal (M.remove e.key M.empty) land 0x3fffffff
  done;
  (!sum + M.cardinal !map + Hashtbl.length tbl) land 0x3fffffff

let () =
  let rounds = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 3 in
  let times = Buffer.create 64 and check = ref 0 in
  for _ = 1 to rounds do
    let t0 = Unix.gettimeofday () in
    check := round ();
    let dt = Unix.gettimeofday () -. t0 in
    Buffer.add_string times (Printf.sprintf " %.0f" (dt *. 1e9))
  done;
  Printf.printf "%d %d%s\n" rounds !check (Buffer.contents times)
