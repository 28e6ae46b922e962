(* Balances are native ints inside (a cycle count never nears 2^62) and
   become int64 only at the API, so a charge boxes nothing. *)
type cell = { name : string; mutable total : int; mutable by_cpu : int array }

type t = {
  balances : (string, cell) Hashtbl.t;
  mutable current : string;
  mutable cur : cell;  (* [current]'s cell, resolved at switch time *)
  mutable max_cpu : int;  (* highest cpu index ever charged *)
}

type id = cell

let idle = "idle"
let new_cell name = { name; total = 0; by_cpu = Array.make 1 0 }

(* Cells are created on first use, by a charge, a switch or {!id}, and
   never removed; a cell never charged holds zeros, which every reader
   below skips or sums away. *)
let cell t name =
  match Hashtbl.find t.balances name with
  | c -> c
  | exception Not_found ->
      let c = new_cell name in
      Hashtbl.add t.balances name c;
      c

let id = cell

let create () =
  let balances = Hashtbl.create 16 in
  let c = new_cell idle in
  Hashtbl.add balances idle c;
  { balances; current = idle; cur = c; max_cpu = 0 }

let charge_cell t c ~cpu v =
  if v < 0 then invalid_arg "Accounts.charge: negative";
  if cpu < 0 then invalid_arg "Accounts.charge: negative cpu";
  let n = Array.length c.by_cpu in
  if cpu >= n then begin
    let by_cpu = Array.make (cpu + 1) 0 in
    Array.blit c.by_cpu 0 by_cpu 0 n;
    c.by_cpu <- by_cpu
  end;
  c.total <- c.total + v;
  c.by_cpu.(cpu) <- c.by_cpu.(cpu) + v;
  if cpu > t.max_cpu then t.max_cpu <- cpu

let charge_on t ~cpu name cycles =
  charge_cell t (cell t name) ~cpu (Int64.to_int cycles)

let charge t name cycles = charge_on t ~cpu:0 name cycles
let charge_current t cycles = charge_cell t t.cur ~cpu:0 (Int64.to_int cycles)

let charge_current_on t ~cpu cycles = charge_cell t t.cur ~cpu cycles
let charge_id_on t ~cpu c cycles = charge_cell t c ~cpu cycles

(* Re-selecting the very string already current (a thread dispatched
   again on its core) skips the lookup. *)
let switch_to t name =
  if name != t.current then begin
    t.current <- name;
    t.cur <- cell t name
  end

let switch_to_id t c =
  if c != t.cur then begin
    t.current <- c.name;
    t.cur <- c
  end

let current t = t.current

(* Closure-free account switching for hot paths: callers save the
   previous account and restore it themselves. Unlike {!with_account}
   there is no [Fun.protect] — only use where the charged section
   cannot raise (plain burns), or restore from an exception handler. *)
let swap t name =
  let previous = t.current in
  switch_to t name;
  previous

let restore t previous = switch_to t previous

let with_account t name f =
  let previous = swap t name in
  Fun.protect ~finally:(fun () -> restore t previous) f

let balance t name =
  match Hashtbl.find_opt t.balances name with
  | Some c -> Int64.of_int c.total
  | None -> 0L

let cpu_balance t ~cpu name =
  match Hashtbl.find_opt t.balances name with
  | Some c when cpu >= 0 && cpu < Array.length c.by_cpu ->
      Int64.of_int c.by_cpu.(cpu)
  | Some _ | None -> 0L

let cpus_seen t = t.max_cpu + 1

let total t =
  Int64.of_int (Hashtbl.fold (fun _ c acc -> acc + c.total) t.balances 0)

let busy_total t =
  Int64.of_int
    (Hashtbl.fold
       (fun name c acc -> if name = idle then acc else acc + c.total)
       t.balances 0)

let share t name =
  let busy = busy_total t in
  if Int64.compare busy 0L = 0 then 0.0
  else Int64.to_float (balance t name) /. Int64.to_float busy

let reset t =
  Hashtbl.iter
    (fun _ c ->
      c.total <- 0;
      Array.fill c.by_cpu 0 (Array.length c.by_cpu) 0)
    t.balances;
  switch_to t idle;
  t.max_cpu <- 0

let to_list t =
  Hashtbl.fold
    (fun name c acc ->
      if c.total <> 0 then (name, Int64.of_int c.total) :: acc else acc)
    t.balances []
  |> List.sort compare

let to_cpu_list t ~cpu =
  Hashtbl.fold
    (fun name c acc ->
      let v = if cpu >= 0 && cpu < Array.length c.by_cpu then c.by_cpu.(cpu) else 0 in
      if v <> 0 then (name, Int64.of_int v) :: acc else acc)
    t.balances []
  |> List.sort compare

let pp ppf t =
  List.iter
    (fun (name, v) -> Format.fprintf ppf "%-12s %12Ld cycles (%.1f%%)@." name v (100.0 *. share t name))
    (to_list t)

let pp_per_cpu ppf t =
  for cpu = 0 to t.max_cpu do
    match to_cpu_list t ~cpu with
    | [] -> ()
    | rows ->
        Format.fprintf ppf "cpu%d:@." cpu;
        List.iter
          (fun (name, v) -> Format.fprintf ppf "  %-14s %12Ld cycles@." name v)
          rows
  done
