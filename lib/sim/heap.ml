type event = {
  time : float;
  seq : int;
  daemon : bool;
  thunk : unit -> unit;
  mutable slot : int; (* index in [data]; -1 once popped or removed *)
}

type t = { mutable data : event array; mutable size : int; mutable next_seq : int }

let placeholder = { time = 0.0; seq = -1; daemon = true; thunk = ignore; slot = -1 }

let create () = { data = [||]; size = 0; next_seq = 0 }

let is_empty h = h.size = 0

let queued e = e.slot >= 0

(* Comparisons are inlined on the two key fields: no closure call, and the
   boxed [time] of each event is read in place. *)
let[@inline] before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let[@inline] place h i e =
  h.data.(i) <- e;
  e.slot <- i

(* Hole-based sifting: the moving event [e] is written once, at its final
   slot, and every event it passes moves one level. *)
let sift_up h i e =
  let i = ref i in
  while !i > 0 && before e h.data.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    place h !i h.data.(p);
    i := p
  done;
  place h !i e

let sift_down h i e =
  let i = ref i and sinking = ref true in
  while !sinking do
    let l = (2 * !i) + 1 in
    if l >= h.size then sinking := false
    else begin
      let r = l + 1 in
      let c = if r < h.size && before h.data.(r) h.data.(l) then r else l in
      if before h.data.(c) e then begin
        place h !i h.data.(c);
        i := c
      end
      else sinking := false
    end
  done;
  place h !i e

let take_seq h =
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  seq

let push h ~time ~daemon thunk =
  let e = { time; seq = take_seq h; daemon; thunk; slot = -1 } in
  let capacity = Array.length h.data in
  if h.size = capacity then begin
    let data = Array.make (if capacity = 0 then 16 else 2 * capacity) placeholder in
    Array.blit h.data 0 data 0 h.size;
    h.data <- data
  end;
  h.size <- h.size + 1;
  sift_up h (h.size - 1) e;
  e

let top h =
  if h.size = 0 then invalid_arg "Heap.top: empty queue";
  h.data.(0)

(* Fill slot [i] with the last event and restore the heap order around it. *)
let refill h i =
  h.size <- h.size - 1;
  let last = h.data.(h.size) in
  h.data.(h.size) <- placeholder;
  if i < h.size then
    if i > 0 && before last h.data.((i - 1) / 2) then sift_up h i last
    else sift_down h i last

let pop h =
  let e = top h in
  refill h 0;
  e.slot <- -1;
  e

let remove h e =
  if e.slot >= 0 then begin
    let i = e.slot in
    e.slot <- -1;
    refill h i
  end
