(* Exact LRU over dense line ids. Line [(region, index)] gets a node id
   the first time it is touched, found again through its region's
   block; resident nodes form a doubly linked list through [prev] and
   [next], most recently used at [head]. Every array starts empty and
   grows on first touch, so an untouched cache costs one record. *)

module Names = Hashtbl.Make (String)

let nil = -1

type t = {
  capacity : int;
  line_bytes : int;
  refill_cost : int;
  regions : int Names.t;  (* region name -> region id *)
  mutable blocks : int array array;
      (* region id -> line index -> node id, or [nil] if never touched *)
  mutable counts : int array;  (* region id -> resident lines *)
  mutable owner : int array;  (* node id -> region id *)
  mutable prev : int array;  (* node id -> next more recently used *)
  mutable next : int array;  (* node id -> next less recently used *)
  mutable resident : bool array;
  mutable nodes : int;
  mutable head : int;
  mutable tail : int;
  mutable size : int;
  mutable hits : int;
  mutable misses : int;
  mutable miss_cycles : int;
}

let create ~lines ~line_bytes ~refill_cost =
  if lines < 1 || line_bytes < 1 || refill_cost < 1 then
    invalid_arg "Cache.create: parameters must be >= 1";
  {
    capacity = lines;
    line_bytes;
    refill_cost;
    regions = Names.create 1;
    blocks = [||];
    counts = [||];
    owner = [||];
    prev = [||];
    next = [||];
    resident = [||];
    nodes = 0;
    head = nil;
    tail = nil;
    size = 0;
    hits = 0;
    misses = 0;
    miss_cycles = 0;
  }

let of_profile (p : Arch.profile) =
  create ~lines:p.Arch.icache_lines ~line_bytes:p.Arch.cacheline_bytes
    ~refill_cost:p.Arch.tlb_refill_cost

let grown a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let region_id t region =
  match Names.find t.regions region with
  | r -> r
  | exception Not_found ->
      let r = Names.length t.regions in
      Names.add t.regions region r;
      if r = Array.length t.blocks then begin
        let n = max 4 (2 * r) in
        t.blocks <- grown t.blocks n [||];
        t.counts <- grown t.counts n 0
      end;
      r

(* Region [r]'s block, long enough to index [lines] lines. *)
let block t r lines =
  let b = t.blocks.(r) in
  if lines <= Array.length b then b
  else begin
    let b = grown b (max lines (2 * Array.length b)) nil in
    t.blocks.(r) <- b;
    b
  end

let new_node t r =
  let n = t.nodes in
  if n = Array.length t.owner then begin
    let cap = max 16 (2 * n) in
    t.owner <- grown t.owner cap 0;
    t.prev <- grown t.prev cap nil;
    t.next <- grown t.next cap nil;
    t.resident <- grown t.resident cap false
  end;
  t.owner.(n) <- r;
  t.nodes <- n + 1;
  n

let unlink t n =
  let p = t.prev.(n) and x = t.next.(n) in
  if p = nil then t.head <- x else t.next.(p) <- x;
  if x = nil then t.tail <- p else t.prev.(x) <- p

let push_front t n =
  t.prev.(n) <- nil;
  t.next.(n) <- t.head;
  if t.head = nil then t.tail <- n else t.prev.(t.head) <- n;
  t.head <- n

let touch_node t n =
  if t.resident.(n) then begin
    t.hits <- t.hits + 1;
    if t.head <> n then begin
      unlink t n;
      push_front t n
    end;
    0
  end
  else begin
    t.misses <- t.misses + 1;
    t.miss_cycles <- t.miss_cycles + t.refill_cost;
    if t.size = t.capacity then begin
      let victim = t.tail in
      unlink t victim;
      t.resident.(victim) <- false;
      let r = t.owner.(victim) in
      t.counts.(r) <- t.counts.(r) - 1
    end
    else t.size <- t.size + 1;
    push_front t n;
    t.resident.(n) <- true;
    let r = t.owner.(n) in
    t.counts.(r) <- t.counts.(r) + 1;
    t.refill_cost
  end

let touch t ~region ~lines =
  if lines <= 0 then 0
  else begin
    let r = region_id t region in
    let b = block t r lines in
    let cost = ref 0 in
    for index = 0 to lines - 1 do
      let n = b.(index) in
      let n =
        if n <> nil then n
        else begin
          let n = new_node t r in
          b.(index) <- n;
          n
        end
      in
      cost := !cost + touch_node t n
    done;
    !cost
  end

let footprint_bytes t ~region =
  match Names.find t.regions region with
  | r -> t.line_bytes * t.counts.(r)
  | exception Not_found -> 0

let resident_lines t = t.size
let hits t = t.hits
let misses t = t.misses
let miss_cycles t = t.miss_cycles

let flush t =
  let n = ref t.head in
  while !n <> nil do
    t.resident.(!n) <- false;
    n := t.next.(!n)
  done;
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.head <- nil;
  t.tail <- nil;
  t.size <- 0

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.miss_cycles <- 0
