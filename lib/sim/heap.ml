(* Entries live in parallel arrays, so a push writes slots and allocates
   nothing once the arrays have grown. *)
type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable args : int array;
  mutable values : 'a array;  (* length 0 until the first push *)
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { times = [||]; seqs = [||]; args = [||]; values = [||]; size = 0; next_seq = 0 }

let length h = h.size
let is_empty h = h.size = 0

(* [value] fills the fresh slots: there is no witness of ['a] before the
   first push. *)
let grow h value =
  let capacity = max 16 (2 * h.size) in
  let ints a =
    let b = Array.make capacity 0 in
    Array.blit a 0 b 0 h.size;
    b
  in
  h.times <- ints h.times;
  h.seqs <- ints h.seqs;
  h.args <- ints h.args;
  let values = Array.make capacity value in
  Array.blit h.values 0 values 0 h.size;
  h.values <- values

let[@inline] set h i ~time ~seq ~arg value =
  h.times.(i) <- time;
  h.seqs.(i) <- seq;
  h.args.(i) <- arg;
  h.values.(i) <- value

let[@inline] move h ~src ~dst =
  set h dst ~time:h.times.(src) ~seq:h.seqs.(src) ~arg:h.args.(src)
    h.values.(src)

let[@inline] lt h i ~time ~seq =
  let ti = h.times.(i) in
  ti < time || (ti = time && h.seqs.(i) < seq)

let push h ~time ~arg value =
  if h.size = Array.length h.values then grow h value;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  (* Sift the hole up. The new entry has the largest sequence number,
     so it passes a parent only on a strictly earlier time. *)
  let i = ref h.size in
  h.size <- h.size + 1;
  while !i > 0 && time < h.times.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    move h ~src:parent ~dst:!i;
    i := parent
  done;
  set h !i ~time ~seq ~arg value

(* The sentinel comes back when empty, so polling allocates nothing. *)
let[@inline] min_time_or h default = if h.size = 0 then default else h.times.(0)
let[@inline] top_arg h = h.args.(0)

exception Empty

(* The value without a [(time, value)] box, so popping allocates nothing.
   @raise Empty when the heap is empty. *)
let pop_exn h =
  if h.size = 0 then raise Empty;
  let top = h.values.(0) in
  let last = h.size - 1 in
  h.size <- last;
  if last > 0 then begin
    (* Sift the former last entry down from the root as a hole. *)
    let time = h.times.(last) and seq = h.seqs.(last) in
    let i = ref 0 and go = ref true in
    while !go do
      let left = (2 * !i) + 1 in
      if left >= last then go := false
      else begin
        let right = left + 1 in
        let c =
          if right < last && lt h right ~time:h.times.(left) ~seq:h.seqs.(left)
          then right
          else left
        in
        if lt h c ~time ~seq then begin
          move h ~src:c ~dst:!i;
          i := c
        end
        else go := false
      end
    done;
    move h ~src:last ~dst:!i
  end;
  top

let clear h =
  h.times <- [||];
  h.seqs <- [||];
  h.args <- [||];
  h.values <- [||];
  h.size <- 0
