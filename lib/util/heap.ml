type 'a entry = {
  priority : float;
  seq : int;
  value : 'a;
  mutable pos : int;  (* index in [data] while queued, -1 once popped or removed *)
}

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
  dummy : 'a entry;  (* fills the unused tail so popped values can be freed *)
}

let create () =
  let dummy = { priority = nan; seq = -1; value = Obj.magic 0; pos = -1 } in
  { data = Array.make 64 dummy; size = 0; next_seq = 0; dummy }

let length h = h.size

let is_empty h = h.size = 0

let entry_less a b =
  a.priority < b.priority || (a.priority = b.priority && a.seq < b.seq)

let grow h =
  let data = Array.make (2 * Array.length h.data) h.dummy in
  Array.blit h.data 0 data 0 h.size;
  h.data <- data

let place h e i =
  h.data.(i) <- e;
  e.pos <- i

(* Both sifts move a hole instead of swapping: [e] is written once, at the
   index where it comes to rest. *)
let rec sift_up h e i =
  if i = 0 then place h e 0
  else begin
    let parent = (i - 1) / 2 in
    let p = h.data.(parent) in
    if entry_less e p then begin
      place h p i;
      sift_up h e parent
    end
    else place h e i
  end

let rec sift_down h e i =
  let left = (2 * i) + 1 in
  if left >= h.size then place h e i
  else begin
    let right = left + 1 in
    let child =
      if right < h.size && entry_less h.data.(right) h.data.(left) then right
      else left
    in
    let c = h.data.(child) in
    if entry_less c e then begin
      place h c i;
      sift_down h e child
    end
    else place h e i
  end

let add h ~priority value =
  if h.size = Array.length h.data then grow h;
  let e = { priority; seq = h.next_seq; value; pos = -1 } in
  h.next_seq <- h.next_seq + 1;
  h.size <- h.size + 1;
  sift_up h e (h.size - 1);
  e

let push h ~priority value = ignore (add h ~priority value)

(* Take the entry at index [i] out and refill the hole with the last
   entry, sifting it whichever way restores heap order. *)
let remove_at h i =
  h.data.(i).pos <- -1;
  h.size <- h.size - 1;
  let last = h.data.(h.size) in
  h.data.(h.size) <- h.dummy;
  if i < h.size then begin
    if i > 0 && entry_less last h.data.((i - 1) / 2) then sift_up h last i
    else sift_down h last i
  end

let pop h =
  if h.size = 0 then raise Not_found;
  let top = h.data.(0) in
  remove_at h 0;
  top.value

let remove h e =
  let i = e.pos in
  if i >= 0 && i < h.size && h.data.(i) == e then remove_at h i

let queued e = e.pos >= 0

let min_priority h =
  if h.size = 0 then raise Not_found;
  h.data.(0).priority

let tiebreak_seq h = h.next_seq

let clear h =
  for i = 0 to h.size - 1 do
    h.data.(i).pos <- -1;
    h.data.(i) <- h.dummy
  done;
  h.size <- 0;
  (* Reset the FIFO tie-break counter too: a cleared heap must assign the
     same seqs as a fresh one, or reused engines lose run-to-run
     determinism on equal-priority entries. *)
  h.next_seq <- 0
