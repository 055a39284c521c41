(* Parallel arrays, one slot per queued event: [times] unboxed, [keys] the
   sequence number shifted left once with the daemon flag in bit 0, and
   [thunks]. Two keys compare as their sequence numbers do, since those
   are distinct. [now] is the time of the latest event popped. *)
type t = {
  mutable times : Float.Array.t;
  mutable keys : int array;
  mutable thunks : (unit -> unit) array;
  mutable size : int;
  mutable pending : int;
  mutable next_seq : int;
  mutable now : float;
}

(* Shared by every empty queue: a zero-length array has no slot to write. *)
let no_times = Float.Array.create 0

let create () =
  {
    times = no_times;
    keys = [||];
    thunks = [||];
    size = 0;
    pending = 0;
    next_seq = 0;
    now = 0.0;
  }

let is_empty h = h.size = 0
let pending h = h.pending
let now h = h.now

let take_seq h =
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  seq

let empty () = invalid_arg "Heap: empty queue"

(* Whether (time, key) goes before slot [j], and slot [j] before it. *)
let[@inline] before_slot h time key j =
  let tj = Float.Array.unsafe_get h.times j in
  time < tj || (time = tj && key < Array.unsafe_get h.keys j)

let[@inline] slot_before h j time key =
  let tj = Float.Array.unsafe_get h.times j in
  tj < time || (tj = time && Array.unsafe_get h.keys j < key)

let[@inline] move h ~src ~dst =
  Float.Array.unsafe_set h.times dst (Float.Array.unsafe_get h.times src);
  Array.unsafe_set h.keys dst (Array.unsafe_get h.keys src);
  Array.unsafe_set h.thunks dst (Array.unsafe_get h.thunks src)

let[@inline] place h i time key thunk =
  Float.Array.unsafe_set h.times i time;
  Array.unsafe_set h.keys i key;
  Array.unsafe_set h.thunks i thunk

let grow h =
  let cap = Array.length h.keys in
  let cap' = if cap = 0 then 16 else 2 * cap in
  let times = Float.Array.create cap' and keys = Array.make cap' 0 in
  let thunks = Array.make cap' ignore in
  Float.Array.blit h.times 0 times 0 h.size;
  Array.blit h.keys 0 keys 0 h.size;
  Array.blit h.thunks 0 thunks 0 h.size;
  h.times <- times;
  h.keys <- keys;
  h.thunks <- thunks

(* Hole-based sifting: the moving event is written once, at its final
   slot, and every event it passes moves one level. *)
let push h ~delay ~daemon thunk =
  let time = h.now +. if delay < 0.0 then 0.0 else delay in
  let key = (take_seq h lsl 1) lor Bool.to_int daemon in
  if not daemon then h.pending <- h.pending + 1;
  if h.size = Array.length h.keys then grow h;
  let i = ref h.size in
  h.size <- h.size + 1;
  while !i > 0 && before_slot h time key ((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    move h ~src:parent ~dst:!i;
    i := parent
  done;
  place h !i time key thunk

let due_now h ~delay = h.now +. delay <= h.now

let before h ~base ~delay ~seq =
  if h.size = 0 then empty ();
  let time = base +. delay and t0 = Float.Array.unsafe_get h.times 0 in
  t0 < time || (t0 = time && Array.unsafe_get h.keys 0 lsr 1 < seq)

let due h ~until =
  if h.size = 0 then empty ();
  Float.Array.unsafe_get h.times 0 <= until

let release h =
  if h.size = 0 then begin
    h.times <- no_times;
    h.keys <- [||];
    h.thunks <- [||]
  end

let advance h ~base ~delay =
  let time = base +. delay in
  if time > h.now then h.now <- time

(* Fill the root's hole with the last event, sinking it into place. *)
let pop h =
  if h.size = 0 then empty ();
  let t0 = Float.Array.unsafe_get h.times 0 in
  if t0 > h.now then h.now <- t0;
  if Array.unsafe_get h.keys 0 land 1 = 0 then h.pending <- h.pending - 1;
  let thunk = Array.unsafe_get h.thunks 0 in
  let n = h.size - 1 in
  h.size <- n;
  let time = Float.Array.unsafe_get h.times n
  and key = Array.unsafe_get h.keys n
  and last = Array.unsafe_get h.thunks n in
  Array.unsafe_set h.thunks n ignore;
  if n > 0 then begin
    let i = ref 0 and sinking = ref true in
    while !sinking do
      let l = (2 * !i) + 1 in
      if l >= n then sinking := false
      else begin
        let r = l + 1 in
        let c =
          if r < n
             && before_slot h (Float.Array.unsafe_get h.times r)
                  (Array.unsafe_get h.keys r) l
          then r
          else l
        in
        if slot_before h c time key then begin
          move h ~src:c ~dst:!i;
          i := c
        end
        else sinking := false
      end
    done;
    place h !i time key last
  end;
  thunk
