(* Datacenter-scale scenario generator (E22).

   Produces a deterministic, fully materialised *flow schedule* from a
   seeded Rng: Zipf-distributed (bounded power-law) flow sizes, Poisson
   arrivals while a tenant is ON, on/off tenant processes with
   exponential dwell times, and a piecewise-constant diurnal rate ramp.

   The schedule is open-loop by construction: arrival times are fixed at
   generation time and never react to how the system under test copes —
   injectors replay the schedule as-is, so congestion shows up as tail
   latency and loss, not as a politely backing-off source.

   Storage is struct-of-arrays over native ints (one packed meta word
   per flow), so a million-flow day is ~16 MB and generation is a single
   pass per tenant plus one global sort. Each tenant draws from its own
   [Rng.split] sub-stream in a fixed order, which keeps the schedule
   bit-for-bit reproducible from the seed alone. *)

module Rng = Vmk_sim.Rng

type config = {
  tenants : int;
  guests : int; (* fabric endpoints; tenant t sources from guest (t mod guests)+1 *)
  mean_flow_gap : float; (* mean cycles between flow starts per tenant, ON, mult 1.0 *)
  zipf_alpha : float; (* flow-size tail exponent *)
  size_min : int; (* packets per flow, bounds of the power law *)
  size_max : int;
  on_mean : float; (* mean ON dwell, cycles *)
  off_mean : float; (* mean OFF dwell, cycles *)
  ramp : (float * float) array; (* (start fraction of horizon, rate multiplier) *)
  horizon : int64; (* cycles in the simulated day *)
}

(* A flat day: one segment, multiplier 1. *)
let flat = [| (0.0, 1.0) |]

(* A stylised datacenter day: overnight trough, morning climb, midday
   peak, afternoon shoulder, evening peak, wind-down. *)
let diurnal =
  [|
    (0.0, 0.25);
    (0.15, 0.55);
    (0.30, 1.0);
    (0.50, 0.7);
    (0.65, 1.0);
    (0.85, 0.35);
  |]

(* The sort key packs an arrival time (< 2^40, see [validate]) above a
   flow's generation index (< 2^22). *)
let index_bits = 22
let time_bits = 62 - index_bits

let validate cfg =
  if cfg.tenants < 1 || cfg.tenants > 4095 then
    invalid_arg "Scenario: tenants out of range";
  if cfg.guests < 1 || cfg.guests > 255 then
    invalid_arg "Scenario: guests out of range";
  if cfg.mean_flow_gap <= 0.0 then invalid_arg "Scenario: mean_flow_gap <= 0";
  if cfg.size_min < 1 || cfg.size_max < cfg.size_min then
    invalid_arg "Scenario: bad size bounds";
  if cfg.size_max >= 1 lsl 20 then invalid_arg "Scenario: size_max too large";
  if cfg.on_mean <= 0.0 || cfg.off_mean <= 0.0 then
    invalid_arg "Scenario: dwell means must be positive";
  if Int64.compare cfg.horizon 1L < 0 then invalid_arg "Scenario: horizon < 1";
  if Int64.compare cfg.horizon (Int64.shift_left 1L time_bits) > 0 then
    invalid_arg "Scenario: horizon over 2^40 cycles";
  if Array.length cfg.ramp = 0 then invalid_arg "Scenario: empty ramp";
  if fst cfg.ramp.(0) <> 0.0 then invalid_arg "Scenario: ramp must start at 0";
  Array.iteri
    (fun i (start, mult) ->
      if start < 0.0 || start >= 1.0 then
        invalid_arg "Scenario: ramp start out of [0,1)";
      if i > 0 && start <= fst cfg.ramp.(i - 1) then
        invalid_arg "Scenario: ramp starts must increase";
      if mult <= 0.0 then invalid_arg "Scenario: ramp multiplier <= 0")
    cfg.ramp

let ramp_mult cfg ~frac =
  (* Last segment whose start is <= frac, else the first; a scan down
     from the end, with no closure, that returns the ramp's own float. *)
  let ramp = cfg.ramp in
  let k = ref (Array.length ramp - 1) in
  while !k > 0 && not (frac >= fst ramp.(!k)) do
    decr k
  done;
  snd ramp.(!k)

(* Bounded power-law ("Zipf") sampler by inversion of the truncated
   Pareto CDF on [lo, hi], discretised by flooring. Density ~ x^-alpha. *)
let zipf rng ~alpha ~lo ~hi =
  if lo < 1 || hi < lo then invalid_arg "Scenario.zipf: bad bounds";
  if lo = hi then lo
  else begin
    let u = Rng.float rng 1.0 in
    let flo = float_of_int lo and fhi = float_of_int (hi + 1) in
    let x =
      if Float.abs (alpha -. 1.0) < 1e-9 then flo *. exp (u *. log (fhi /. flo))
      else begin
        let a1 = 1.0 -. alpha in
        let l = flo ** a1 and h = fhi ** a1 in
        (l +. (u *. (h -. l))) ** (1.0 /. a1)
      end
    in
    let k = int_of_float x in
    if k < lo then lo else if k > hi then hi else k
  end

(* Packed meta word: size (20 bits) | tenant (12) | src (8) | dst (8). *)
let pack ~size ~tenant ~src ~dst =
  size lor (tenant lsl 20) lor (src lsl 32) lor (dst lsl 40)

type t = {
  cfg : config;
  at : int array; (* arrival cycle of flow i, sorted ascending *)
  meta : int array;
  total_packets : int;
  on_time : float array; (* per-tenant cumulative ON dwell, cycles *)
  fingerprint : int;
}

(* Growable int buffer; the schedule size is not known up front. *)
module Buf = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 1024 0; len = 0 }

  let push b v =
    if b.len = Array.length b.a then begin
      let a' = Array.make (2 * b.len) 0 in
      Array.blit b.a 0 a' 0 b.len;
      b.a <- a'
    end;
    b.a.(b.len) <- v;
    b.len <- b.len + 1
end

let generate ?(seed = 0xD47AC570L) ?tenant_rate cfg =
  validate cfg;
  let master = Rng.create ~seed () in
  let hf = Int64.to_float cfg.horizon in
  let bat = Buf.create () and bmeta = Buf.create () in
  let on_time = Array.make cfg.tenants 0.0 in
  for tn = 0 to cfg.tenants - 1 do
    let r = Rng.split master in
    let rate = match tenant_rate with None -> 1.0 | Some f -> f tn in
    if rate <= 0.0 then invalid_arg "Scenario.generate: tenant rate <= 0";
    let gap_base = cfg.mean_flow_gap /. rate in
    let src = (tn mod cfg.guests) + 1 in
    let now = ref 0.0 in
    while !now < hf do
      let on_end = Float.min hf (!now +. Rng.exponential r ~mean:cfg.on_mean) in
      let t = ref !now and running = ref true in
      while !running do
        (* Scale the next inter-arrival gap by the ramp multiplier at the
           current position in the day: a piecewise approximation of the
           nonhomogeneous Poisson process, still fully deterministic. *)
        let m = ramp_mult cfg ~frac:(!t /. hf) in
        t := !t +. Rng.exponential r ~mean:(gap_base /. m);
        if !t >= on_end then running := false
        else begin
          let size = zipf r ~alpha:cfg.zipf_alpha ~lo:cfg.size_min ~hi:cfg.size_max in
          let dst =
            if cfg.guests = 1 then src
            else 1 + ((src + Rng.int r (cfg.guests - 1)) mod cfg.guests)
          in
          Buf.push bat (int_of_float !t);
          Buf.push bmeta (pack ~size ~tenant:tn ~src ~dst)
        end
      done;
      on_time.(tn) <- on_time.(tn) +. (on_end -. !now);
      now := on_end +. Rng.exponential r ~mean:cfg.off_mean
    done
  done;
  let n = bat.Buf.len in
  if n >= 1 lsl index_bits then invalid_arg "Scenario.generate: over 4M flows";
  (* Global chronological order; ties broken by generation order (tenant,
     then sequence within tenant), which the pre-sort index encodes.
     Each key (time, index) is one unique int, so a plain int sort
     yields that order. *)
  let keys =
    Array.init n (fun i -> (bat.Buf.a.(i) lsl index_bits) lor i)
  in
  Array.sort Int.compare keys;
  let at = Array.make n 0 and meta = Array.make n 0 in
  let total = ref 0 in
  for i = 0 to n - 1 do
    let j = keys.(i) land ((1 lsl index_bits) - 1) in
    at.(i) <- bat.Buf.a.(j);
    meta.(i) <- bmeta.Buf.a.(j);
    total := !total + (meta.(i) land ((1 lsl 20) - 1))
  done;
  let fp = ref (Hashtbl.hash (n, cfg.tenants, cfg.guests)) in
  for i = 0 to n - 1 do
    fp := Hashtbl.hash (!fp, at.(i), meta.(i))
  done;
  { cfg; at; meta; total_packets = !total; on_time; fingerprint = !fp }

let config t = t.cfg
let flows t = Array.length t.at
let total_packets t = t.total_packets
let fingerprint t = t.fingerprint
let at t i = t.at.(i)
let size t i = t.meta.(i) land ((1 lsl 20) - 1)
let tenant t i = (t.meta.(i) lsr 20) land 0xFFF
let src t i = (t.meta.(i) lsr 32) land 0xFF
let dst t i = (t.meta.(i) lsr 40) land 0xFF

let on_fraction t ~tenant =
  if tenant < 0 || tenant >= t.cfg.tenants then
    invalid_arg "Scenario.on_fraction: tenant";
  t.on_time.(tenant) /. Int64.to_float t.cfg.horizon

let iter t f =
  for i = 0 to Array.length t.at - 1 do
    f ~flow:i ~at:t.at.(i) ~tenant:(tenant t i) ~src:(src t i) ~dst:(dst t i)
      ~size:(size t i)
  done
