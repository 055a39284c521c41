(* A versioned consistent-hash ring over object UIDs.

   Each shard node contributes a fixed number of virtual points on a
   64-bit ring; a UID is owned by the shard whose nearest point clockwise
   from the UID's hash. The hash is deterministic (FNV-1a over the UID
   string, finalised with a splitmix-style mixer) so every run of a
   seeded simulation assigns the same objects to the same shards. *)

type t = {
  sm_version : int;
  sm_nodes : Net.Network.node_id list;
  sm_ring : (int64 * Net.Network.node_id) array; (* sorted by point *)
}

let vnodes = 64

(* FNV-1a, 64-bit. A plain loop: the accumulator stays an unboxed local
   instead of a boxed ref captured by a closure. *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) 0x100000001b3L
  done;
  !h

(* splitmix64 finaliser: spreads FNV's low-entropy high bits. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let hash_string s = mix (fnv1a s)

let hash_uid uid = hash_string (Store.Uid.to_string uid)

let build_ring nodes =
  let points =
    List.concat_map
      (fun node ->
        List.init vnodes (fun i ->
            (hash_string (Printf.sprintf "%s#%d" node i), node)))
      nodes
  in
  let arr = Array.of_list points in
  (* Unsigned 64-bit order; ties broken by node id so the ring is a
     function of the node set alone. *)
  Array.sort
    (fun (a, na) (b, nb) ->
      match Int64.unsigned_compare a b with
      | 0 -> String.compare na nb
      | c -> c)
    arr;
  arr

let create ~nodes =
  if nodes = [] then invalid_arg "Shard_map.create: empty node list";
  let nodes = List.sort_uniq String.compare nodes in
  { sm_version = 1; sm_nodes = nodes; sm_ring = build_ring nodes }

let with_nodes t nodes =
  if nodes = [] then invalid_arg "Shard_map.with_nodes: empty node list";
  let nodes = List.sort_uniq String.compare nodes in
  { sm_version = t.sm_version + 1; sm_nodes = nodes; sm_ring = build_ring nodes }

let version t = t.sm_version
let nodes t = t.sm_nodes

(* First ring point at or clockwise after [h] (binary search; wraps). *)
let owner_of_hash t h =
  let ring = t.sm_ring in
  let n = Array.length ring in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.unsigned_compare (fst ring.(mid)) h < 0 then lo := mid + 1
    else hi := mid
  done;
  snd ring.(if !lo = n then 0 else !lo)

let owner t uid =
  match t.sm_nodes with
  | [ single ] -> single (* fast path: no hashing in single-shard worlds *)
  | _ -> owner_of_hash t (hash_uid uid)
