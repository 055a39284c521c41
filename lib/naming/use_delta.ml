(* Client-side use-list delta buffer: pending Decrements, keyed by
   (client node, object uid, server node), waiting to be coalesced into a
   later bind's request or flushed in one merged Decrement action.
   A pure in-memory structure — all scheduling (flush fibers, retries)
   belongs to the binder that owns the buffer. Keyed by client because
   one binder serves every client node of a world and a credit must only
   ever decrement the counters of the client that earned it. *)

type key = Net.Network.node_id * int (* client, uid serial *)

(* One (client, uid)'s credits: an unsorted association of node to count,
   one entry per node, sorted only when taken. *)
type bucket = {
  b_client : Net.Network.node_id;
  b_uid : Store.Uid.t;
  mutable b_credits : (Net.Network.node_id * int) list;
}

type t = {
  buf : (key, bucket) Hashtbl.t;
  (* the non-empty buckets, newest first *)
  mutable queue : bucket list;
  scheduled : (Net.Network.node_id, unit) Hashtbl.t;
}

let create () =
  { buf = Hashtbl.create 32; queue = []; scheduled = Hashtbl.create 8 }

let key client uid = (client, Store.Uid.serial uid)

let bucket t ~client ~uid =
  let k = key client uid in
  match Hashtbl.find_opt t.buf k with
  | Some b -> b
  | None ->
      let b = { b_client = client; b_uid = uid; b_credits = [] } in
      Hashtbl.add t.buf k b;
      t.queue <- b :: t.queue;
      b

let rec add_credit node count = function
  | [] -> [ (node, count) ]
  | (n, c) :: rest when String.equal n node -> (n, c + count) :: rest
  | entry :: rest -> entry :: add_credit node count rest

let credit t ~client ~uid ~node ~count =
  if count > 0 then begin
    let b = bucket t ~client ~uid in
    b.b_credits <- add_credit node count b.b_credits
  end

let take t ~client ~uid =
  let k = key client uid in
  match Hashtbl.find_opt t.buf k with
  | None -> []
  | Some b ->
      Hashtbl.remove t.buf k;
      t.queue <- List.filter (fun b' -> b' != b) t.queue;
      List.sort (fun (x, _) (y, _) -> String.compare x y) b.b_credits

let restore t ~client ~uid credits =
  List.iter (fun (node, count) -> credit t ~client ~uid ~node ~count) credits

(* Folding the newest-first queue onto a list yields oldest first. *)
let pending_uids t ~client =
  List.fold_left
    (fun acc b -> if String.equal b.b_client client then b.b_uid :: acc else acc)
    [] t.queue

let clients_with t ~uid =
  List.fold_left
    (fun acc b -> if Store.Uid.equal b.b_uid uid then b.b_client :: acc else acc)
    [] t.queue

let drop_client t ~client =
  t.queue <-
    List.filter
      (fun b ->
        let mine = String.equal b.b_client client in
        if mine then Hashtbl.remove t.buf (key client b.b_uid);
        not mine)
      t.queue;
  Hashtbl.remove t.scheduled client

let flush_scheduled t ~client = Hashtbl.mem t.scheduled client

let set_flush_scheduled t ~client v =
  if v then Hashtbl.replace t.scheduled client ()
  else Hashtbl.remove t.scheduled client
