(* One distribution: its samples, oldest first, in [data.(0 .. len-1)].
   [data] doubles when full. *)
type series = { mutable data : Float.Array.t; mutable len : int }

type t = {
  counters_tbl : (string, int ref) Hashtbl.t;
  samples_tbl : (string, series) Hashtbl.t;
}

let create () = { counters_tbl = Hashtbl.create 32; samples_tbl = Hashtbl.create 32 }

(* [Hashtbl.find] rather than [find_opt]: bumping a counter or adding a
   sample to a series that exists boxes no option. *)
let find_counter t name =
  match Hashtbl.find t.counters_tbl name with
  | r -> r
  | exception Not_found ->
      let r = ref 0 in
      Hashtbl.add t.counters_tbl name r;
      r

let incr t ?(by = 1) name =
  let r = find_counter t name in
  r := !r + by

type handle = { h_reg : t; h_name : string; mutable h_cell : int ref }

(* Shared by every handle not yet bumped; never incremented itself. *)
let unregistered = ref 0

let handle t name = { h_reg = t; h_name = name; h_cell = unregistered }

let bump h =
  if h.h_cell == unregistered then h.h_cell <- find_counter h.h_reg h.h_name;
  h.h_cell := !(h.h_cell) + 1

let counter t name =
  match Hashtbl.find t.counters_tbl name with r -> !r | exception Not_found -> 0

let find_samples t name =
  match Hashtbl.find t.samples_tbl name with
  | r -> r
  | exception Not_found ->
      let r = { data = Float.Array.create 32; len = 0 } in
      Hashtbl.add t.samples_tbl name r;
      r

let observe t name v =
  let r = find_samples t name in
  if r.len = Float.Array.length r.data then begin
    let data = Float.Array.create (2 * r.len) in
    Float.Array.blit r.data 0 data 0 r.len;
    r.data <- data
  end;
  Float.Array.set r.data r.len v;
  r.len <- r.len + 1

(* [name]'s series, if it holds a sample. *)
let find t name =
  match Hashtbl.find_opt t.samples_tbl name with
  | Some r when r.len > 0 -> Some r
  | _ -> None

let samples t name =
  match find t name with
  | Some r -> List.init r.len (Float.Array.get r.data)
  | None -> []

(* Every reader below visits the samples oldest first: a float sum, and
   which of two equal keys a sort puts first, depend on that order. *)
let mean t name =
  match find t name with
  | None -> nan
  | Some r ->
      let sum = ref 0.0 in
      for i = 0 to r.len - 1 do
        sum := !sum +. Float.Array.get r.data i
      done;
      !sum /. float_of_int r.len

let percentile t name p =
  match find t name with
  | None -> nan
  | Some r ->
      let n = r.len in
      let arr = Array.init n (Float.Array.get r.data) in
      Array.sort Float.compare arr;
      let rank =
        int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1
      in
      let rank = max 0 (min (n - 1) rank) in
      arr.(rank)

let max_sample t name =
  match find t name with
  | None -> nan
  | Some r ->
      let m = ref (Float.Array.get r.data 0) in
      for i = 1 to r.len - 1 do
        m := Float.max !m (Float.Array.get r.data i)
      done;
      !m

let sample_count t name =
  match Hashtbl.find_opt t.samples_tbl name with Some r -> r.len | None -> 0

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters_tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let merge_into ~dst src =
  Hashtbl.iter (fun k r -> incr dst ~by:!r k) src.counters_tbl;
  Hashtbl.iter
    (fun k r ->
      for i = 0 to r.len - 1 do
        observe dst k (Float.Array.get r.data i)
      done)
    src.samples_tbl
