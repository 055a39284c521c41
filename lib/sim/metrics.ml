type t = {
  counters_tbl : (string, int ref) Hashtbl.t;
  samples_tbl : (string, float list ref) Hashtbl.t; (* newest first *)
}

let create () = { counters_tbl = Hashtbl.create 32; samples_tbl = Hashtbl.create 32 }

let find_counter t name =
  match Hashtbl.find_opt t.counters_tbl name with
  | Some r -> r
  | None ->
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
  match Hashtbl.find_opt t.counters_tbl name with Some r -> !r | None -> 0

let find_samples t name =
  match Hashtbl.find_opt t.samples_tbl name with
  | Some r -> r
  | None ->
      let r = ref [] in
      Hashtbl.add t.samples_tbl name r;
      r

let observe t name v =
  let r = find_samples t name in
  r := v :: !r

let samples t name =
  match Hashtbl.find_opt t.samples_tbl name with
  | Some r -> List.rev !r
  | None -> []

let mean t name =
  match samples t name with
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let percentile t name p =
  match samples t name with
  | [] -> nan
  | xs ->
      let arr = Array.of_list xs in
      Array.sort Float.compare arr;
      let n = Array.length arr in
      let rank =
        int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1
      in
      let rank = max 0 (min (n - 1) rank) in
      arr.(rank)

let max_sample t name =
  match samples t name with
  | [] -> nan
  | x :: xs -> List.fold_left Float.max x xs

let sample_count t name = List.length (samples t name)

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters_tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let merge_into ~dst src =
  Hashtbl.iter (fun k r -> incr dst ~by:!r k) src.counters_tbl;
  Hashtbl.iter
    (fun k r -> List.iter (fun v -> observe dst k v) (List.rev !r))
    src.samples_tbl
