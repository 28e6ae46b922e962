type 'a entry = { time : int64; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { data = [||]; size = 0; next_seq = 0 }
let length h = h.size
let is_empty h = h.size = 0

let entry_lt a b =
  match Int64.compare a.time b.time with
  | 0 -> a.seq < b.seq
  | c -> c < 0

let grow h entry =
  let capacity = max 16 (2 * Array.length h.data) in
  let data = Array.make capacity entry in
  Array.blit h.data 0 data 0 h.size;
  h.data <- data

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_lt h.data.(i) h.data.(parent) then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < h.size && entry_lt h.data.(left) h.data.(!smallest) then
    smallest := left;
  if right < h.size && entry_lt h.data.(right) h.data.(!smallest) then
    smallest := right;
  if !smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(!smallest);
    h.data.(!smallest) <- tmp;
    sift_down h !smallest
  end

let push h ~time value =
  let entry = { time; seq = h.next_seq; value } in
  h.next_seq <- h.next_seq + 1;
  if h.size = Array.length h.data then grow h entry;
  h.data.(h.size) <- entry;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

(* The sentinel comes back when empty, so polling allocates nothing. *)
let[@inline] min_time_or h default =
  if h.size = 0 then default else h.data.(0).time

exception Empty

(* The value without a [(time, value)] box, so popping allocates nothing.
   @raise Empty when the heap is empty. *)
let pop_exn h =
  if h.size = 0 then raise Empty;
  let top = h.data.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.data.(0) <- h.data.(h.size);
    sift_down h 0
  end;
  top.value

let clear h =
  h.data <- [||];
  h.size <- 0
