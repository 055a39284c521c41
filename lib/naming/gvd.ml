type 'a reply =
  | Granted of 'a
  | Busy of string
  | Refused of string
  | Moved of Net.Network.node_id
      (* wrong shard: the entry was handed off to the given naming node;
         the router follows the hint and retries there *)

type entry_info = {
  ei_impl : string;
  ei_sv_home : Net.Network.node_id list;
  ei_st_home : Net.Network.node_id list;
}

(* The recoverable image of an entry, split along the paper's locking
   granularity: the server list and the state list are "concurrency
   controlled independently" (§4.1), so their before-images must be saved
   and restored independently too — a whole-entry undo taken under the sv
   lock would capture (and later resurrect) another action's in-flight
   st mutation. Both halves are immutable, so undo is save/restore. *)
type sv_image = {
  im_sv : Net.Network.node_id list;
  im_sv_home : Net.Network.node_id list;
  im_uses : (Net.Network.node_id * Use_list.t) list;
}

type st_image = {
  im_st : Net.Network.node_id list;
  im_st_home : Net.Network.node_id list;
  im_version : Store.Version.t;
      (* latest committed version of the object: the fence that keeps a
         recovering store from re-joining StA with a rewound state when
         every holder of the newest state happens to be down *)
  im_st_rev : int;
      (* monotone counter of committed St-membership changes (Include,
         Exclude, retirement), bumped by [install_snapshot] only when the
         member list itself changed. The optimistic commit path validates
         against this — not [e_version], which also counts commuting
         use-list traffic and every writer's own version note, so
         validating against it would conflict on every concurrent bind.
         Living inside the image, it rides mirrors, handoffs and resyncs
         for free. *)
}

type image = { im_server : sv_image; im_state : st_image }

type side = Sv_side | St_side

type half_image = Server_half of sv_image | State_half of st_image

type entry = {
  e_uid : Store.Uid.t;
  e_impl : string;
  mutable e_image : image;
      (* working image: committed state plus the in-place mutations of
         in-flight Write-mode actions (undone via before-images) *)
  mutable e_snap : image;
      (* latest committed snapshot, replaced (per touched half) when an
         action commits: lock-free readers see this and only this *)
  mutable e_version : int;
      (* monotone counter, bumped once per committing action that touched
         the entry; returned by snapshot reads and carried by mirrors,
         handoffs and the bind cache *)
}

(* -- the paper's operations (§4.1, §4.2) -- *)

type read = Servers | Stores | Committed | Settled

type view = {
  v_servers : Net.Network.node_id list;
  v_stores : Net.Network.node_id list;
  v_version : int;
  v_rev : int;
}

type op =
  | Insert of Net.Network.node_id
  | Remove of Net.Network.node_id
  | Increment of { client : Net.Network.node_id; servers : Net.Network.node_id list }
  | Decrement of { client : Net.Network.node_id; servers : Net.Network.node_id list }
  | Zero of Net.Network.node_id
  | Include of Net.Network.node_id
  | Exclude of Net.Network.node_id list
  | Retire_sv of Net.Network.node_id
  | Retire_st of Net.Network.node_id
  | Note_version of Store.Version.t

type outcome = { o_applied : bool; o_fence : Store.Version.t }

(* -- wire types -- *)

(* How a read treats the lock table: [Free] is the lock-free committed
   read; [Lock] takes a Read lock on one half for the named action;
   [Await] waits for the named action to be granted a Read lock on [st:]
   and lets it go at once (the [Settled] read). *)
type read_mode = Free | Lock of string * side | Await of string

type read_req = { r_uid : Store.Uid.t; r_mode : read_mode }

type update_req = {
  up_action : string;
  up_uid : Store.Uid.t;
  up_op : op;
  up_if_rev : int option;
  up_vote : bool; (* an applied op prepares the action: see [h_update] *)
}

(* What a bind needs from the entry. [Locked] (scheme A) holds Read locks
   on both halves for the caller's action; [Counted] (schemes B/C) bumps
   the chosen servers' use counters, with the caller's coalesced pending
   Decrements ([credits], one count per server node) piggybacked, and
   prepares the action in the same handler. *)
type bind_use =
  | Locked
  | Counted of { replicas : int; credits : (Net.Network.node_id * int) list }

(* The single-round bind request of every scheme. *)
type bind_req = {
  bt_uid : Store.Uid.t;
  bt_action : string;
  bt_client : Net.Network.node_id;
  bt_use : bind_use;
}

type bind_view = {
  bv_impl : string;
  bv_servers : Net.Network.node_id list;
      (* Locked: the working SvA; Counted: the servers whose counters were
         bumped *)
  bv_removed : Net.Network.node_id list; (* dead servers pruned from SvA *)
  bv_stores : Net.Network.node_id list;
      (* Locked: the working StA; Counted: the committed StA snapshot *)
  bv_rev : int;
      (* the committed St revision: with Counted's [bv_stores], a pair a
         commit can validate; with Locked's working StA, not one *)
}

(* A migrating entry in flight between shards: the full recoverable image
   plus every name bound to it. Only quiescent-at-the-lock-level entries
   migrate (no holders, no waiters), so there are never before-images to
   carry — the undo lifecycle is the lock lifecycle. *)
type handoff = {
  ho_serial : int;
  ho_uid : Store.Uid.t;
  ho_impl : string;
  ho_image : image;
  ho_version : int;
  ho_names : string list;
}

type handoff_req = { hr_uid : Store.Uid.t; hr_dest : Net.Network.node_id }

(* One shared endpoint VALUE for backup replication, served by every
   instance: a typed endpoint only interoperates with itself (its [Univ]
   embedding is per-value), so a module-level endpoint is what lets the
   primary push one per-commit payload to all backups as a single
   [call_all] scatter instead of per-instance sequential calls. *)
let ep_mirror : ((int * image * int) list, unit) Net.Rpc.endpoint =
  Net.Rpc.endpoint "gvd.mirror"

(* Everything the database holds for one in-flight action. An action has
   a record from its first operation on this shard until it commits,
   aborts or passes to its parent. *)
type action_state = {
  mutable a_keys : string list;
      (* every key the action has asked to lock here, granted, queued or
         refused, unique and sorted by [String.compare]: its end releases
         (or transfers) them in that order, so waiters on several keys
         resume key by key *)
  mutable a_prepared : bool;
      (* voted yes and awaits phase 2. With [durable] its stage and
         locks are stable: they survive a crash and are resolved by
         termination on recovery *)
  mutable a_undo : (int * side * half_image) list;
      (* before-images, at most one per (entry serial, side) *)
  mutable a_redo : (int * op list) list;
      (* staged commuting use-list ops per entry serial, in arrival
         order. Unlike the structural Sv/St writes these are redo
         records, applied at commit and simply dropped at abort: a
         before-image restore would erase the committed deltas of
         concurrent [Delta]-mode holders. *)
}

type t = {
  art : Action.Atomic.runtime;
  gvd_node : Net.Network.node_id;
  use_exclude_write : bool;
  durable : bool;
  service_time : float;
      (* modeled CPU cost per database operation; 0.0 = infinitely fast
         service node (the seed behaviour). Charged on a capacity-1
         semaphore so concurrent requests queue for the shard's CPU —
         lock waits inside handlers do not hold it. *)
  service : Sim.Semaphore.t;
  (* Entries handed off to another shard: uid serial -> destination.
     Requests arriving here for a migrated entry get a [Moved] bounce. *)
  moved_out : (int, Net.Network.node_id) Hashtbl.t;
  (* Images handed off whose destination has not installed them yet,
     kept beside their [moved_out] marker: a handoff whose reply is lost
     was still applied here, and the router's retry must get the entry
     again rather than a marker pointing at a shard that never got it. *)
  unsettled : (int, handoff) Hashtbl.t;
  (* Actions that have touched the database since the last crash of the
     service node. With [durable], a crash restores every entry to its
     committed image and wipes locks — so pre-crash actions must vote no
     at prepare (their reads and staged updates are gone). *)
  actions : (string, action_state) Hashtbl.t;
  entries : (int, entry) Hashtbl.t; (* keyed by uid serial *)
  names : (string, Store.Uid.t) Hashtbl.t;
  locks : Lockmgr.Manager.t;
  term : Action.Termination.t;
      (* how the shard's actions end when their coordinator is lost *)
  ep_lookup : (string, Store.Uid.t option) Net.Rpc.endpoint;
  ep_info : (Store.Uid.t, entry_info option) Net.Rpc.endpoint;
  ep_stored_on : (Net.Network.node_id, Store.Uid.t list) Net.Rpc.endpoint;
  ep_served_by : (Net.Network.node_id, Store.Uid.t list) Net.Rpc.endpoint;
  ep_read : (read_req, view reply) Net.Rpc.endpoint;
  ep_update : (update_req, outcome reply) Net.Rpc.endpoint;
  ep_bind : (bind_req, bind_view reply) Net.Rpc.endpoint;
  ep_handoff : (handoff_req, handoff reply) Net.Rpc.endpoint;
  ep_resync : (unit, (int * image * int) list) Net.Rpc.endpoint;
  mutable backups : t list;
      (* §3.1 extension: further database instances receiving the
         committed images of every touched entry, synchronously, at each
         action end — the primary-backup replication the paper defers.
         Pushes to all backups go out in parallel. *)
}

let resource = "gvd"

let node t = t.gvd_node

let eng t = Action.Atomic.engine t.art
let netw t = Action.Atomic.network t.art

let tracef t fmt =
  Sim.Trace.recordf (Net.Network.trace (netw t)) ~now:(Sim.Engine.now (eng t))
    ~tag:"gvd" fmt

(* Hot call sites check this first: a skipped [tracef] still evaluates and
   wraps its arguments, and some build strings for them. *)
let tracing t = Sim.Trace.enabled (Net.Network.trace (netw t))

let metrics t = Net.Network.metrics (netw t)

let key_of side uid =
  (match side with Sv_side -> "sv:" | St_side -> "st:") ^ Store.Uid.to_string uid

let entry_opt t uid = Hashtbl.find_opt t.entries (Store.Uid.serial uid)

(* The reply for an entry this shard does not hold: a [Moved] hint if it
   was handed off, a refusal otherwise. *)
let absent t uid =
  match Hashtbl.find_opt t.moved_out (Store.Uid.serial uid) with
  | Some dest -> Moved dest
  | None -> Refused "unknown object"

let owns t uid = Hashtbl.mem t.entries (Store.Uid.serial uid)

(* Charge the shard's CPU for one database operation before running the
   handler body. The permit is released before [f], so a handler blocked
   on a lock does not hold the processor. With the default
   [service_time = 0.0] this is a no-op and the seed behaviour is
   byte-for-byte unchanged. *)
let serviced t f =
  if t.service_time > 0.0 then begin
    Sim.Semaphore.acquire (eng t) t.service;
    Sim.Engine.sleep (eng t) t.service_time;
    Sim.Semaphore.release t.service
  end;
  f ()

let entry_exn t uid =
  try Hashtbl.find t.entries (Store.Uid.serial uid)
  with Not_found -> failwith ("gvd: unknown object " ^ Store.Uid.to_string uid)

let record t action =
  match Hashtbl.find_opt t.actions action with
  | Some a -> a
  | None ->
      let a = { a_keys = []; a_prepared = false; a_undo = []; a_redo = [] } in
      Hashtbl.add t.actions action a;
      a

(* Register the action with this shard and its termination state. Called
   only once the request is known to be for an entry this shard holds: a
   bounced request must leave no record and no crash watch behind. *)
let touch_action t action =
  Action.Termination.touch t.term ~scope:resource ~action;
  record t action

(* The yes vote, from [m_prepare] or in a counted bind's reply: the
   action keeps its locks and stage until phase 2 (stable ones on a
   durable shard, which keeps prepared records across a crash), and the
   loss of its coordinator now settles it from the decision. *)
let vote_yes t a ~action =
  a.a_prepared <- true;
  Action.Termination.vote t.term ~scope:resource ~action

(* The answer to a request of an action this shard has already prepared:
   what it would stage would miss the vote. *)
let after_vote = Refused "action already prepared"

(* Record the before-image of ONE side of the entry for the action, once:
   the side the action's lock actually covers. *)
let rec has_undo serial side = function
  | [] -> false
  | (s, sd, _) :: rest -> (s = serial && sd = side) || has_undo serial side rest

let save_half a e side =
  let serial = Store.Uid.serial e.e_uid in
  if not (has_undo serial side a.a_undo) then
    let half =
      match side with
      | Sv_side -> Server_half e.e_image.im_server
      | St_side -> State_half e.e_image.im_state
    in
    a.a_undo <- (serial, side, half) :: a.a_undo

(* Stage commuting use-list ops for the action (redo records, applied at
   commit). Only taken under the [Delta] lock. *)
let stage a serial ops =
  let cur = Option.value ~default:[] (List.assoc_opt serial a.a_redo) in
  a.a_redo <- (serial, cur @ ops) :: List.remove_assoc serial a.a_redo

(* -- locks -- *)

(* Each update op declares the lock it needs on its half: a blocking
   acquisition (bounded by {!Lockmgr.Manager.wait_bound}, refused after),
   or the §4.2.1 write fence, which never waits. *)
type lock = Blocking of Lockmgr.Mode.t | Fence

(* The §4.2.1 write fence: the exclude-write lock, or a plain write lock
   when the world turns [use_exclude_write] off. [take_fence] promotes a
   lock the action already holds on [key], else acquires one without
   waiting. *)
let fence_mode t =
  if t.use_exclude_write then Lockmgr.Mode.Exclude_write else Lockmgr.Mode.Write

let take_fence t ~action key =
  let mode = fence_mode t in
  match Lockmgr.Manager.holds t.locks ~owner:action key with
  | Some _ -> Lockmgr.Manager.promote t.locks ~owner:action ~to_mode:mode key
  | None -> Lockmgr.Manager.try_acquire t.locks ~owner:action ~mode key

(* [keys], sorted and unique, with [key] added. *)
let rec add_key key = function
  | [] -> [ key ]
  | k :: rest as keys ->
      let c = String.compare key k in
      if c = 0 then keys else if c < 0 then key :: keys else k :: add_key key rest

(* End the action's locks here, key by key in key order. *)
let release_keys t ~action a =
  List.iter (fun key -> Lockmgr.Manager.release t.locks ~owner:action key) a.a_keys

(* A holder whose coordinator is partitioned away may never release:
   termination settles it. *)
let refuse t key mode =
  Action.Termination.refused t.term ~scope:resource
    (List.map fst (Lockmgr.Manager.holders t.locks key));
  Sim.Metrics.incr (metrics t) "gvd.lock_refusals";
  Some (Refused (Printf.sprintf "lock %s (%s) refused" key (Lockmgr.Mode.to_string mode)))

(* A blocking acquisition, bounded by {!Lockmgr.Manager.wait_bound}. *)
let acquire t ~action mode key =
  match Lockmgr.Manager.acquire t.locks ~owner:action ~mode key with
  | Ok () -> None
  | Error `Timeout -> refuse t key mode

(* Take one lock for the action [a] records; [Some refusal] when it cannot
   be had. A refusal probes the key's holders for a partitioned-away
   coordinator. The key joins the action's keys before the request, so a
   request still queued when the action ends is cancelled with it. *)
let take_lock t a ~action lock key =
  a.a_keys <- add_key key a.a_keys;
  match lock with
  | Blocking mode -> acquire t ~action mode key
  | Fence -> if take_fence t ~action key then None else refuse t key (fence_mode t)

(* -- the ops: side, lock, precondition and pure image transform -- *)

let side_of = function
  | Insert _ | Remove _ | Increment _ | Decrement _ | Zero _ | Retire_sv _ -> Sv_side
  | Include _ | Exclude _ | Retire_st _ | Note_version _ -> St_side

let lock_of = function
  | Increment _ | Decrement _ -> Blocking Lockmgr.Mode.Delta
  | Exclude _ | Note_version _ -> Fence
  | Insert _ | Remove _ | Zero _ | Retire_sv _ | Include _ | Retire_st _ ->
      Blocking Lockmgr.Mode.Write

let use_list im node =
  match List.assoc_opt node im.im_server.im_uses with
  | Some ul -> ul
  | None -> Use_list.empty

let set_use_list im node ul =
  {
    im with
    im_server =
      {
        im.im_server with
        im_uses = (node, ul) :: List.remove_assoc node im.im_server.im_uses;
      };
  }

let all_quiescent im =
  List.for_all (fun (_, ul) -> Use_list.is_empty ul) im.im_server.im_uses

let add_unique x xs = if List.mem x xs then xs else xs @ [ x ]
let without x xs = List.filter (fun n -> n <> x) xs

let with_sv im f = { im with im_server = f im.im_server }
let with_st im f = { im with im_state = f im.im_state }

let bump_uses im ~client servers step =
  List.fold_left
    (fun im node -> set_use_list im node (step (use_list im node) ~client))
    im servers

let apply op im =
  match op with
  | Insert n ->
      with_sv im (fun sv ->
          { sv with im_sv = add_unique n sv.im_sv; im_sv_home = add_unique n sv.im_sv_home })
  | Remove n -> with_sv im (fun sv -> { sv with im_sv = without n sv.im_sv })
  | Increment { client; servers } -> bump_uses im ~client servers Use_list.increment
  | Decrement { client; servers } -> bump_uses im ~client servers Use_list.decrement
  | Zero client ->
      List.fold_left
        (fun im node ->
          set_use_list im node (Use_list.drop_client (use_list im node) ~client))
        im
        (List.map fst im.im_server.im_uses)
  | Retire_sv n ->
      with_sv im (fun sv ->
          {
            im_sv = without n sv.im_sv;
            im_sv_home = without n sv.im_sv_home;
            im_uses = List.remove_assoc n sv.im_uses;
          })
  | Include n ->
      with_st im (fun st ->
          { st with im_st = add_unique n st.im_st; im_st_home = add_unique n st.im_st_home })
  | Exclude ns ->
      with_st im (fun st ->
          { st with im_st = List.filter (fun n -> not (List.mem n ns)) st.im_st })
  | Retire_st n ->
      with_st im (fun st ->
          { st with im_st = without n st.im_st; im_st_home = without n st.im_st_home })
  | Note_version v ->
      if Store.Version.newer_than v im.im_state.im_version then
        with_st im (fun st -> { st with im_version = v })
      else im

(* Checked on the working image once every lock is held: [Insert] and
   [Retire_sv] need quiescence (§4.1.2), and [Exclude] never removes the
   last state holder, however sick — a slow state beats no state. *)
let precondition op im =
  match op with
  | (Insert _ | Retire_sv _) when not (all_quiescent im) -> Some (Busy "object not quiescent")
  | Exclude ns
    when im.im_state.im_st <> [] && List.for_all (fun n -> List.mem n ns) im.im_state.im_st ->
      Some (Refused "would empty St")
  | _ -> None

let counter = function
  | Insert _ -> Some ("gvd.inserts", 1)
  | Remove _ -> Some ("gvd.removes", 1)
  | Increment _ -> Some ("gvd.increments", 1)
  | Decrement _ -> Some ("gvd.decrements", 1)
  | Zero _ -> Some ("gvd.zeroes", 1)
  | Include _ -> Some ("gvd.includes", 1)
  | Exclude ns -> Some ("gvd.exclusions", List.length ns)
  | Retire_sv _ -> Some ("gvd.server_retirements", 1)
  | Retire_st _ -> Some ("gvd.store_retirements", 1)
  | Note_version _ -> None

let pp_op ppf op =
  let nodes = String.concat "," in
  match op with
  | Insert n -> Format.fprintf ppf "insert %s" n
  | Remove n -> Format.fprintf ppf "remove %s" n
  | Increment { client; servers } -> Format.fprintf ppf "increment %s@@[%s]" client (nodes servers)
  | Decrement { client; servers } -> Format.fprintf ppf "decrement %s@@[%s]" client (nodes servers)
  | Zero client -> Format.fprintf ppf "zero %s" client
  | Include n -> Format.fprintf ppf "include %s" n
  | Exclude ns -> Format.fprintf ppf "exclude [%s]" (nodes ns)
  | Retire_sv n -> Format.fprintf ppf "retire server %s" n
  | Retire_st n -> Format.fprintf ppf "retire store %s" n
  | Note_version v -> Format.fprintf ppf "note version %a" Store.Version.pp v

(* Stage the op as a redo record (under the [Delta] lock), or apply it in
   place behind a before-image. *)
let perform t a ~action ~staged e op =
  if staged then stage a (Store.Uid.serial e.e_uid) [ op ]
  else begin
    save_half a e (side_of op);
    e.e_image <- apply op e.e_image
  end;
  (match counter op with
  | Some (name, by) -> Sim.Metrics.incr (metrics t) ~by name
  | None -> ());
  (* Structural changes only: counter traffic and version notes ride
     every bind and commit. *)
  match op with
  | Increment _ | Decrement _ | Note_version _ -> ()
  | _ -> tracef t "%s %a on %a" action pp_op op Store.Uid.pp e.e_uid

(* -- handler bodies (run on the service node) -- *)

(* Setup-time registration, applied in-process before the simulation
   starts. *)
let register_direct t ~uid ~name ~impl ~sv ~st =
  let image =
    {
      im_server =
        {
          im_sv = sv;
          im_sv_home = sv;
          im_uses = List.map (fun n -> (n, Use_list.empty)) sv;
        };
      im_state =
        {
          im_st = st;
          im_st_home = st;
          im_version = Store.Version.initial;
          im_st_rev = 0;
        };
    }
  in
  Hashtbl.replace t.entries (Store.Uid.serial uid)
    { e_uid = uid; e_impl = impl; e_image = image; e_snap = image; e_version = 0 };
  Hashtbl.replace t.names name uid;
  if tracing t then
    tracef t "register %a sv=[%s] st=[%s]" Store.Uid.pp uid
      (String.concat "," sv) (String.concat "," st)

let view_of e sv st =
  {
    v_servers = sv.im_sv;
    v_stores = st.im_st;
    v_version = e.e_version;
    v_rev = e.e_snap.im_state.im_st_rev;
  }

(* GetServer or GetView's lock step: a blocking Read lock on one half for
   the action, counted as that read once granted; [Some refusal] when it
   cannot be had. *)
let read_lock t a ~action side uid =
  let m = metrics t in
  let key = key_of side uid in
  (* A locked GetView that finds the St entry unavailable is about to
     queue: count it, so experiments can attribute naming-tier lock waits
     to this path specifically (the probe is pure). *)
  if
    side = St_side
    && not (Lockmgr.Manager.available t.locks ~owner:action ~mode:Lockmgr.Mode.Read key)
  then Sim.Metrics.incr m "gvd.view_lock_waits";
  match take_lock t a ~action (Blocking Lockmgr.Mode.Read) key with
  | Some _ as refusal -> refusal
  | None ->
      Sim.Metrics.incr m (match side with Sv_side -> "gvd.get_server" | St_side -> "gvd.get_view");
      None

(* GetServer and GetView take a Read lock on their half for the action
   and answer that half from the working image. The lock-free committed
   read (a commit's St snapshot when its bind holds no committed pair,
   and every retry's) serves the latest
   committed image without touching the lock table: writers install a
   new snapshot only at commit, so it never shows an uncommitted
   mutation; the price is bounded staleness, which the commit-time
   machinery (store-side backward validation, the [if_rev] check, the
   Include version fence) already tolerates. Scheme A's [Locked] bind
   takes the same locks through [read_lock] — Figure 6's semantics
   depend on its read locks being held to action end. *)
let committed_view t e =
  let m = metrics t in
  Sim.Metrics.incr m "gvd.get_view";
  Sim.Metrics.incr m "gvd.snapshot_reads";
  Granted (view_of e e.e_snap.im_server e.e_snap.im_state)

(* The [Settled] read's wait: a Read grant on [st:] comes once no action
   holds the write lock a membership change takes (and no earlier
   request waits), and the action gives it back at once. An action
   holding its own lock there has nothing to wait for. A wait past
   {!Lockmgr.Manager.wait_bound} is refused like any lock, which probes
   the holders. The key is not among the action's keys: a grant is given
   back before the handler can suspend, and a wait ends by the bound. *)
let await_writers t ~action uid =
  let key = key_of St_side uid in
  match Lockmgr.Manager.holds t.locks ~owner:action key with
  | Some _ -> None
  | None -> (
      match acquire t ~action Lockmgr.Mode.Read key with
      | None ->
          Lockmgr.Manager.release t.locks ~owner:action key;
          None
      | refusal -> refusal)

let h_read t { r_uid; r_mode } =
  match entry_opt t r_uid with
  | None -> absent t r_uid
  | Some e -> (
      match r_mode with
      | Free -> committed_view t e
      | Await action -> (
          match await_writers t ~action r_uid with
          | Some refusal -> refusal
          | None -> committed_view t e)
      | Lock (action, side) -> (
          let a = touch_action t action in
          if a.a_prepared then after_vote
          else
            match read_lock t a ~action side r_uid with
            | Some refusal -> refusal
            | None -> (
                match side with
                | Sv_side -> Granted (view_of e e.e_image.im_server e.e_snap.im_state)
                | St_side -> Granted (view_of e e.e_snap.im_server e.e_image.im_state))))

(* One handler for every mutation, in a fixed order: the ownership check
   (before anything is recorded for the action), the op's lock, the
   [if_rev] check, the precondition, then stage or apply. A refusal at
   any step leaves the working image untouched; a lock already granted
   stays with the action and goes at its end.

   [if_rev] is decide-then-mutate in one round (§13): the caller read
   (St, rev) lock-free and asks for its op only if the committed St
   revision still stands. On a moved revision nothing is applied but the
   fence just taken is deliberately KEPT — it belongs to the action and
   blocks further membership commits, so the caller's re-read sees a
   revision that can no longer move and its retry must succeed: a moved
   revision costs one retry, not a livelock. A fence that cannot be had
   is a refusal and keeps nothing, so a caller that retries on it may
   conflict again. With [Note_version] this is the optimistic commit's
   validate-and-note; with [Exclude], the autonomic controller's
   validated exclusion.

   [up_vote] is set only by the validate of a commit's last before-commit
   hook, the action's last request here: once the op applies, the shard
   votes yes in the reply, as a counted bind does. A conflict or a
   refusal carries no vote, so a retry may validate again.

   Idempotent under duplicate delivery: lock grants are re-entrant,
   before-images are saved once per action, version notes advance only
   forward, and a revision cannot move while its fence is held. Staged
   counter ops are not idempotent, which is why updates are never
   hedged. *)
let h_update t { up_action = action; up_uid = uid; up_op = op; up_if_rev; up_vote } =
  match Hashtbl.find t.entries (Store.Uid.serial uid) with
  | exception Not_found -> absent t uid
  | e -> (
      let a = touch_action t action in
      if a.a_prepared then after_vote
      else
        let lock = lock_of op in
        match take_lock t a ~action lock (key_of (side_of op) uid) with
        | Some refusal -> refusal
        | None -> (
            match up_if_rev with
            | Some rev when e.e_snap.im_state.im_st_rev <> rev ->
                Sim.Metrics.incr (metrics t) "gvd.validate_conflicts";
                tracef t "%s: St revision moved from %d" action rev;
                Granted { o_applied = false; o_fence = e.e_image.im_state.im_version }
            | _ -> (
                match precondition op e.e_image with
                | Some refusal -> refusal
                | None ->
                    perform t a ~action ~staged:(lock = Blocking Lockmgr.Mode.Delta) e op;
                    if up_vote then begin
                      vote_yes t a ~action;
                      if tracing t then tracef t "%s votes in the validate's reply" action
                    end;
                    Granted { o_applied = true; o_fence = e.e_image.im_state.im_version })))

(* The single-round bind: one request carries the whole database half of
   a bind, and the reply carries the impl, so no impl lookup, GetServer or
   GetView round is needed.

   [Locked] (Figure 6) is GetServer then GetView for the caller's action:
   Read locks on [sv:] and then [st:], answered from the working image.
   It changes nothing, so it keeps no before-image.

   [Counted] (Figures 7/8) is GetServer, Remove of detectably dead
   servers and Increment of the chosen subset, with the caller's
   coalesced pending Decrements piggybacked; the reply carries the
   committed StA snapshot and its St revision, the pair the client's
   commit validates. The lock mode is chosen by a lock-free peek at
   the committed snapshot: only when a listed server is detectably dead
   does the handler need the write lock (for the structural Remove); the
   common case runs in [Delta] mode and concurrent binders commute. A
   server that dies between the peek and the grant is simply not chosen —
   its Remove happens on a later bind. *)
let bind_locked t e a ~action =
  let uid = e.e_uid in
  match read_lock t a ~action Sv_side uid with
  | Some refusal -> refusal
  | None -> (
      match read_lock t a ~action St_side uid with
      | Some refusal -> refusal
      | None ->
          Granted
            {
              bv_impl = e.e_impl;
              bv_servers = e.e_image.im_server.im_sv;
              bv_removed = [];
              bv_stores = e.e_image.im_state.im_st;
              bv_rev = e.e_snap.im_state.im_st_rev;
            })

let bind_counted t e a ~action ~client ~replicas ~credits =
  let m = metrics t in
  let uid = e.e_uid in
  let up n = Net.Network.is_up (netw t) n in
  let structural = List.exists (fun n -> not (up n)) e.e_snap.im_server.im_sv in
  let mode = if structural then Lockmgr.Mode.Write else Lockmgr.Mode.Delta in
  match take_lock t a ~action (Blocking mode) (key_of Sv_side uid) with
  | Some refusal -> refusal
  | None ->
      Sim.Metrics.incr m "gvd.batch_binds";
      Sim.Metrics.incr m "gvd.get_server";
      let dead = List.filter (fun n -> not (up n)) e.e_image.im_server.im_sv in
      let removed = if mode = Lockmgr.Mode.Write then dead else [] in
      List.iter (fun n -> perform t a ~action ~staged:false e (Remove n)) removed;
      let live = List.filter up e.e_image.im_server.im_sv in
      let in_use =
        List.filter (fun n -> not (Use_list.is_empty (use_list e.e_image n))) live
      in
      let chosen = if in_use = [] then List.filteri (fun i _ -> i < replicas) live else in_use in
      if chosen = [] then Refused "no live server"
      else begin
        (* Under the Write lock no concurrent counter holder exists, so
           the counter ops apply in place behind the before-image. *)
        let ops =
          Increment { client; servers = chosen }
          ::
          (if credits = [] then []
           else
             [
               Decrement
                 {
                   client;
                   servers = List.concat_map (fun (n, c) -> List.init c (fun _ -> n)) credits;
                 };
             ])
        in
        List.iter (perform t a ~action ~staged:(mode = Lockmgr.Mode.Delta) e) ops;
        Sim.Metrics.incr m "gvd.get_view";
        Sim.Metrics.incr m "gvd.snapshot_reads";
        if tracing t then
          tracef t "%s counted bind %a chosen=[%s]%s" action Store.Uid.pp uid
            (String.concat "," chosen)
            (if removed = [] then ""
             else " removed=[" ^ String.concat "," removed ^ "]");
        (* The bind staged its Increment, so the vote is yes. *)
        vote_yes t a ~action;
        Granted
          {
            bv_impl = e.e_impl;
            bv_servers = chosen;
            bv_removed = removed;
            bv_stores = e.e_snap.im_state.im_st;
            bv_rev = e.e_snap.im_state.im_st_rev;
          }
      end

let h_bind t { bt_uid; bt_action = action; bt_client = client; bt_use } =
  match entry_opt t bt_uid with
  | None -> absent t bt_uid
  | Some e -> (
      let a = touch_action t action in
      if a.a_prepared then after_vote
      else
        match bt_use with
        | Locked -> bind_locked t e a ~action
        | Counted { replicas; credits } ->
            bind_counted t e a ~action ~client ~replicas ~credits)

(* Hand an entry off to another shard (online rebalance). Runs atomically
   at the simulation level — no suspension points between the check and
   the removal — so no bind can observe a half-migrated entry. Only
   lock-free entries move: a holder (or waiter) implies in-flight
   before-images whose undo must stay co-located with the entry, so the
   router retries busy entries until the locks drain. Use lists ride
   along inside the image: entries with active bindings migrate fine. *)
let h_handoff t { hr_uid; hr_dest } =
  let serial = Store.Uid.serial hr_uid in
  match entry_opt t hr_uid with
  | None -> (
      match Hashtbl.find_opt t.unsettled serial with
      | Some ho when Hashtbl.find_opt t.moved_out serial = Some hr_dest ->
          (* An earlier grant to the same destination was never installed
             (its reply was lost): grant the same image again. *)
          Sim.Metrics.incr (metrics t) "gvd.handoff_regrants";
          Granted ho
      | _ -> absent t hr_uid)
  | Some e ->
      let free side =
        let key = key_of side hr_uid in
        Lockmgr.Manager.holders t.locks key = []
        && Lockmgr.Manager.waiting t.locks key = 0
      in
      if not (free Sv_side && free St_side) then begin
        Sim.Metrics.incr (metrics t) "gvd.handoff_busy";
        Busy "entry locked"
      end
      else begin
        let names =
          Hashtbl.fold
            (fun name uid acc ->
              if Store.Uid.equal uid hr_uid then name :: acc else acc)
            t.names []
          |> List.sort String.compare
        in
        let ho =
          {
            ho_serial = serial;
            ho_uid = hr_uid;
            ho_impl = e.e_impl;
            (* lock-free implies no uncommitted mutations, so the working
               image IS the committed snapshot *)
            ho_image = e.e_image;
            ho_version = e.e_version;
            ho_names = names;
          }
        in
        Hashtbl.remove t.entries serial;
        List.iter (fun name -> Hashtbl.remove t.names name) names;
        Hashtbl.replace t.moved_out serial hr_dest;
        Hashtbl.replace t.unsettled serial ho;
        Sim.Metrics.incr (metrics t) "gvd.handoffs_out";
        tracef t "handoff %a -> %s" Store.Uid.pp hr_uid hr_dest;
        Granted ho
      end

(* Install a migrated entry on the receiving shard (called in-process by
   the router's migration fiber, immediately after the handoff reply —
   the entry is unreachable only while that reply is in flight). *)
let accept_handoff t ho =
  Hashtbl.replace t.entries ho.ho_serial
    {
      e_uid = ho.ho_uid;
      e_impl = ho.ho_impl;
      e_image = ho.ho_image;
      e_snap = ho.ho_image;
      e_version = ho.ho_version;
    };
  List.iter (fun name -> Hashtbl.replace t.names name ho.ho_uid) ho.ho_names;
  Hashtbl.remove t.moved_out ho.ho_serial;
  Hashtbl.remove t.unsettled ho.ho_serial;
  Sim.Metrics.incr (metrics t) "gvd.handoffs_in";
  tracef t "accepted handoff of %a" Store.Uid.pp ho.ho_uid

let settle_handoff t uid = Hashtbl.remove t.unsettled (Store.Uid.serial uid)

let unsettled_handoff t uid = Hashtbl.find_opt t.unsettled (Store.Uid.serial uid)

let handoff_out t ~from ~uid ~dest =
  Net.Rpc.call (Action.Atomic.rpc t.art) ~from ~dst:t.gvd_node t.ep_handoff
    { hr_uid = uid; hr_dest = dest }

(* Synchronously push the committed images (with their snapshot versions)
   of the given entry serials to every backup instance: ONE coalesced
   payload per commit, scattered to all backups in a single [call_all]
   round. A push failure is tolerated (that backup is down; it
   resynchronises by pulling a snapshot on recovery). *)
let mirror_push t serials =
  match t.backups with
  | [] -> ()
  | backups ->
      let payload =
        List.filter_map
          (fun serial ->
            Option.map
              (fun e -> (serial, e.e_image, e.e_version))
              (Hashtbl.find_opt t.entries serial))
          serials
      in
      if payload <> [] then
        ignore
          (Net.Rpc.call_all (Action.Atomic.rpc t.art) ~from:t.gvd_node ep_mirror
             (List.map (fun b -> (b.gvd_node, payload)) backups))

let install_images t images =
  List.iter
    (fun (serial, im, version) ->
      match Hashtbl.find_opt t.entries serial with
      | Some e ->
          e.e_image <- im;
          e.e_snap <- im;
          e.e_version <- max version e.e_version
      | None -> ())
    images

(* -- resource manager: ties the database into action completion -- *)

let restore_half e half =
  match half with
  | Server_half sv -> e.e_image <- { e.e_image with im_server = sv }
  | State_half st -> e.e_image <- { e.e_image with im_state = st }

(* Replace the given halves of the entry's committed snapshot with the
   (now committed) working image, bumping the entry version once however
   many halves the action touched. From this point lock-free readers see
   the new state. *)
let install_snapshot t serial sides =
  match Hashtbl.find_opt t.entries serial with
  | None -> ()
  | Some e ->
      (* The St revision counts committed *membership* changes only: it
         advances iff the member list being installed differs from the one
         in the outgoing snapshot. Version notes and use-list churn leave
         it alone, so an optimistic committer validating against it is not
         conflicted by concurrent binds. The working image is stamped with
         the same revision — handoffs and mirrors ship the image, so the
         counter survives shard moves without extra payload. *)
      (if List.mem St_side sides then begin
         let rev =
           if e.e_image.im_state.im_st <> e.e_snap.im_state.im_st then
             e.e_snap.im_state.im_st_rev + 1
           else e.e_snap.im_state.im_st_rev
         in
         e.e_image <-
           { e.e_image with im_state = { e.e_image.im_state with im_st_rev = rev } }
       end);
      e.e_snap <-
        List.fold_left
          (fun snap side ->
            match side with
            | Sv_side -> { snap with im_server = e.e_image.im_server }
            | St_side -> { snap with im_state = e.e_image.im_state })
          e.e_snap sides;
      e.e_version <- e.e_version + 1

(* Take the action's record out of the table: commit, abort and transfer
   read only the action's own state. *)
let take_action t action =
  let a = Hashtbl.find_opt t.actions action in
  Hashtbl.remove t.actions action;
  a

(* A nested action's record passes to its parent's by [m_transfer]. A
   transfer can be lost while the shard is up (its call timed out under a
   partition), and the record then outlives the whole action tree, its
   locks held by an owner nobody ends. So when [action] ends here, the
   records of its descendants that hold locks and nothing else end with
   it: whether such a descendant committed or aborted, its locks are over
   once its ancestor is. A descendant with a stage is left alone: only its
   own outcome can say whether the stage is the ancestor's. *)
let lock_only_descendant id a ((action, found) as acc) =
  let n = String.length action in
  if
    String.length id > n
    && id.[n] = '.'
    && String.starts_with ~prefix:action id
    && a.a_undo = [] && a.a_redo = []
  then (action, (id, a) :: found)
  else acc

let end_lock_only_descendants t ~action =
  match Hashtbl.fold lock_only_descendant t.actions (action, []) with
  | _, [] -> ()
  | _, found ->
      List.sort (fun (x, _) (y, _) -> String.compare x y) found
      |> List.iter (fun (id, a) ->
             Hashtbl.remove t.actions id;
             release_keys t ~action:id a;
             Action.Termination.forget t.term ~scope:resource ~action:id)

let manager t =
  {
    Action.Resource_host.m_prepare =
      (fun ~scope:_ ~action ->
        (* An action that staged nothing here (read locks, or a fence
           whose op changed nothing) ends at once: it votes read-only and
           gets no phase 2. With a durable (crashable) service, an action
           from before the last crash lost its locks and staged updates
           and must abort, and a yes vote makes the action's stage
           stable. *)
        match Hashtbl.find_opt t.actions action with
        | Some a when a.a_undo <> [] || a.a_redo <> [] ->
            vote_yes t a ~action;
            Action.Resource_host.Vote_yes
        | None when t.durable -> Vote_no
        | a ->
            Hashtbl.remove t.actions action;
            Option.iter (release_keys t ~action) a;
            Action.Termination.forget t.term ~scope:resource ~action;
            end_lock_only_descendants t ~action;
            Vote_read_only);
    m_commit =
      (fun ~scope:_ ~action ->
        let a = take_action t action in
        let touched =
          match a with
          | None -> []
          | Some a ->
              (* Apply the staged commuting counter updates first... *)
              List.iter
                (fun (serial, ops) ->
                  match Hashtbl.find_opt t.entries serial with
                  | Some e -> e.e_image <- List.fold_left (fun im op -> apply op im) e.e_image ops
                  | None -> ())
                a.a_redo;
              (* ...then install a fresh committed snapshot for every half
                 the action touched, bumping each entry's version exactly
                 once, and only then release the locks: a lock-free reader
                 can never see a pre-install state after a later action
                 was granted. *)
              let touched_sides =
                List.map (fun (s, side, _) -> (s, side)) a.a_undo
                @ List.map (fun (s, _) -> (s, Sv_side)) a.a_redo
                |> List.sort_uniq compare
              in
              let touched = List.sort_uniq Int.compare (List.map fst touched_sides) in
              List.iter
                (fun serial ->
                  install_snapshot t serial
                    (List.filter_map
                       (fun (s, side) -> if s = serial then Some side else None)
                       touched_sides))
                touched;
              touched
        in
        Option.iter (release_keys t ~action) a;
        Action.Termination.forget t.term ~scope:resource ~action;
        end_lock_only_descendants t ~action;
        mirror_push t touched);
    m_abort =
      (fun ~scope:_ ~action ->
        (match take_action t action with
        | None -> ()
        | Some a ->
            (* Staged deltas are redo records: abort just drops them. *)
            List.iter
              (fun (serial, _, half) ->
                match Hashtbl.find_opt t.entries serial with
                | Some e ->
                    restore_half e half;
                    tracef t "%s undo-restore entry %d -> St=[%s]" action serial
                      (String.concat "," e.e_image.im_state.im_st)
                | None -> ())
              a.a_undo;
            release_keys t ~action a);
        Action.Termination.forget t.term ~scope:resource ~action;
        end_lock_only_descendants t ~action);
    m_transfer =
      (fun ~scope:_ ~action ~parent ->
        (match take_action t action with
        | None -> ()
        | Some c ->
            let p = record t parent in
            (* The parent keeps its own (older) before-image if it has
               one; otherwise it inherits the child's. Staged deltas
               append to the parent's: both sets apply when the top-level
               action eventually commits. The child's keys join the
               parent's, and its locks pass to the parent key by key. *)
            List.iter
              (fun ((serial, side, _) as img) ->
                if not (has_undo serial side p.a_undo) then p.a_undo <- img :: p.a_undo)
              c.a_undo;
            List.iter (fun (serial, ops) -> stage p serial ops) c.a_redo;
            p.a_keys <- List.fold_left (fun keys key -> add_key key keys) p.a_keys c.a_keys;
            List.iter
              (fun key -> Lockmgr.Manager.transfer t.locks ~from_owner:action ~to_owner:parent key)
              c.a_keys);
        Action.Termination.transfer t.term ~scope:resource ~action ~parent);
  }

(* How termination ends an action at the shard on [node]. Every lock at
   the shard belongs to an action with a record, so the record alone says
   whether the shard still holds anything for the action. *)
let termination_ops art ~node ~actions ~entries =
  let rh = Action.Atomic.resource_host art in
  let net = Action.Atomic.network art in
  {
    Action.Termination.holds = (fun ~scope:_ ~action -> Hashtbl.mem actions action);
    evidence =
      (fun ~scope:_ ~action ->
        match Hashtbl.find_opt actions action with
        | None -> []
        | Some a ->
            List.map (fun (serial, _, _) -> serial) a.a_undo @ List.map fst a.a_redo
            |> List.sort_uniq Int.compare
            |> List.filter_map (fun serial ->
                   Option.map (fun e -> e.e_uid) (Hashtbl.find_opt entries serial)));
    complete =
      (fun ~scope:_ ~action outcome ->
        let local f = ignore (f rh ~from:node ~node ~kind:resource ~scope:"" ~action) in
        match outcome with
        | Action.Termination.Orphan_abort ->
            Sim.Metrics.incr (Net.Network.metrics net) "gvd.orphan_aborts";
            Sim.Trace.recordf (Net.Network.trace net)
              ~now:(Sim.Engine.now (Action.Atomic.engine art))
              ~tag:"gvd" "aborting orphaned action %s" action;
            Action.Resource_host.abort_here rh ~node ~kind:resource ~scope:"" ~action
        | Commit -> local Action.Resource_host.commit
        | Abort | Presumed_abort -> local Action.Resource_host.abort);
  }

let install ?(use_exclude_write = true) ?(durable = false)
    ?(service_time = 0.0) art ~node =
  let actions = Hashtbl.create 64 in
  let entries = Hashtbl.create 64 in
  let locks =
    Lockmgr.Manager.create ~metrics:(Net.Network.metrics (Action.Atomic.network art))
      (Action.Atomic.engine art)
  in
  let t =
    {
      art;
      gvd_node = node;
      use_exclude_write;
      durable;
      service_time;
      service = Sim.Semaphore.create 1;
      moved_out = Hashtbl.create 16;
      unsettled = Hashtbl.create 4;
      actions;
      entries;
      names = Hashtbl.create 64;
      locks;
      term =
        Action.Termination.create art ~node
          (termination_ops art ~node ~actions ~entries);
      ep_lookup = Net.Rpc.endpoint "gvd.lookup";
      ep_info = Net.Rpc.endpoint "gvd.info";
      ep_stored_on = Net.Rpc.endpoint "gvd.stored_on";
      ep_served_by = Net.Rpc.endpoint "gvd.served_by";
      ep_read = Net.Rpc.endpoint "gvd.read";
      ep_update = Net.Rpc.endpoint "gvd.update";
      ep_bind = Net.Rpc.endpoint "gvd.bind";
      ep_handoff = Net.Rpc.endpoint "gvd.handoff";
      ep_resync = Net.Rpc.endpoint "gvd.snapshot";
      backups = [];
    }
  in
  let rpc = Action.Atomic.rpc art in
  Net.Rpc.serve rpc ~node t.ep_lookup (fun name -> Hashtbl.find_opt t.names name);
  Net.Rpc.serve rpc ~node t.ep_info (fun uid ->
      Option.map
        (fun e ->
          {
            ei_impl = e.e_impl;
            ei_sv_home = e.e_image.im_server.im_sv_home;
            ei_st_home = e.e_image.im_state.im_st_home;
          })
        (entry_opt t uid));
  let homed_on home n =
    Hashtbl.fold
      (fun _ e acc -> if List.mem n (home e.e_image) then e.e_uid :: acc else acc)
      t.entries []
    |> List.sort Store.Uid.compare
  in
  Net.Rpc.serve rpc ~node t.ep_stored_on (homed_on (fun im -> im.im_state.im_st_home));
  Net.Rpc.serve rpc ~node t.ep_served_by (homed_on (fun im -> im.im_server.im_sv_home));
  Net.Rpc.serve rpc ~node t.ep_read (fun req -> serviced t (fun () -> h_read t req));
  Net.Rpc.serve rpc ~node t.ep_update (fun req -> serviced t (fun () -> h_update t req));
  Net.Rpc.serve rpc ~node t.ep_bind (fun req -> serviced t (fun () -> h_bind t req));
  Net.Rpc.serve rpc ~node t.ep_handoff (fun req -> h_handoff t req);
  Net.Rpc.serve rpc ~node ep_mirror (fun images ->
      install_images t images;
      Sim.Metrics.incr (metrics t) "gvd.mirror_applies");
  Net.Rpc.serve rpc ~node t.ep_resync (fun () ->
      Hashtbl.fold
        (fun serial e acc -> (serial, e.e_snap, e.e_version) :: acc)
        t.entries []);
  Action.Resource_host.register (Action.Atomic.resource_host art) ~node
    ~kind:resource (manager t);
  if durable then begin
    (* The persistent-object semantics of the database itself: committed
       entry images are stable, and so is the stage of every prepared
       action; the locks, before-images and staged updates of all other
       in-flight actions are volatile and die with the node. *)
    let net = Action.Atomic.network art in
    let in_doubt action =
      match Hashtbl.find_opt t.actions action with
      | Some a -> a.a_prepared
      | None -> false
    in
    Net.Network.on_crash net node (fun () ->
        Hashtbl.filter_map_inplace
          (fun _ a ->
            if a.a_prepared then Some a
            else begin
              List.iter
                (fun (serial, _, half) ->
                  Option.iter (fun e -> restore_half e half) (Hashtbl.find_opt t.entries serial))
                a.a_undo;
              None
            end)
          t.actions;
        Lockmgr.Manager.release_everything ~keep:in_doubt t.locks;
        Sim.Metrics.incr (metrics t) "gvd.crash_resets");
    (* A phase 2 sent while the node was down is never re-sent: settle
       each in-doubt action by termination. *)
    Net.Network.on_recover net node (fun () ->
        List.iter
          (fun action -> Action.Termination.recover t.term ~scope:resource ~action)
          (Hashtbl.fold
             (fun action a acc -> if a.a_prepared then action :: acc else acc)
             t.actions []
          |> List.sort String.compare))
  end;
  t

(* -- client stubs -- *)

(* Plain reads issued outside any action are idempotent, so they may be
   hedged against a browned-out shard. Everything issued for an action is
   not: it stages locks and counter updates, and a duplicate delivery
   would ride below the dedup guard. *)
let plain_call t ~from ep req =
  Net.Rpc.call (Action.Atomic.rpc t.art) ~from ~dst:t.gvd_node
    ~idempotent:true ep req

(* Call, then enlist the action with the database; [voted] tells whether
   a granted reply carries the shard's yes vote. *)
let call_enlisted t ~act ~voted ep req =
  let from = Action.Atomic.node act in
  let result = Net.Rpc.call (Action.Atomic.rpc t.art) ~from ~dst:t.gvd_node ep req in
  (match result with
  | Ok (Granted v) ->
      Action.Atomic.enlist act ~voted:(voted v) ~node:t.gvd_node ~kind:resource
        ~scope:"" ()
  | Ok (Busy _ | Refused _) ->
      (* The handler may still hold locks for the action (e.g. insert got
         its write lock but found the object busy); enlist so they are
         released at action end. *)
      Action.Atomic.enlist act ~node:t.gvd_node ~kind:resource ~scope:"" ()
  | Error _ ->
      (* Indistinguishable cases: the request was lost (no effects) or
         only the reply was (the handler ran and holds locks and staged
         state for the action). Enlist conservatively so action end
         releases whatever exists — but not [required]: the call failed
         from the caller's view, so an unreachable database must not be
         allowed to veto (or silently commit into) an action that
         otherwise succeeded without it. *)
      Action.Atomic.enlist act ~required:false ~node:t.gvd_node ~kind:resource
        ~scope:"" ()
  | Ok (Moved _) -> ());
  result

let lookup t ~from name = plain_call t ~from t.ep_lookup name
let entry_info t ~from uid = plain_call t ~from t.ep_info uid

let stored_on t ~from n =
  Net.Rpc.call (Action.Atomic.rpc t.art) ~from ~dst:t.gvd_node t.ep_stored_on n

let served_by t ~from n =
  Net.Rpc.call (Action.Atomic.rpc t.art) ~from ~dst:t.gvd_node t.ep_served_by n

let unvoted _ = false

(* A read that holds nothing once answered: nothing to enlist, undo or
   release. *)
let read_unlocked t ~act uid mode =
  Net.Rpc.call (Action.Atomic.rpc t.art) ~from:(Action.Atomic.node act)
    ~dst:t.gvd_node t.ep_read { r_uid = uid; r_mode = mode }

let read t ~act uid r =
  let locked side = { r_uid = uid; r_mode = Lock (Action.Atomic.owner act, side) } in
  match r with
  | Servers -> call_enlisted t ~act ~voted:unvoted t.ep_read (locked Sv_side)
  | Stores -> call_enlisted t ~act ~voted:unvoted t.ep_read (locked St_side)
  | Committed -> read_unlocked t ~act uid Free
  | Settled -> read_unlocked t ~act uid (Await (Action.Atomic.owner act))

let snapshot t ~from uid = plain_call t ~from t.ep_read { r_uid = uid; r_mode = Free }

let get_server t ~act uid = read t ~act uid Servers
let get_view t ~act uid = read t ~act uid Stores

let update t ~act ?if_rev uid op =
  call_enlisted t ~act ~voted:unvoted t.ep_update
    {
      up_action = Action.Atomic.owner act;
      up_uid = uid;
      up_op = op;
      up_if_rev = if_rev;
      up_vote = false;
    }

(* With [vote], an applied validate voted yes; a conflict did not. *)
let validate t ~act ~rev ~vote uid version =
  call_enlisted t ~act
    ~voted:(fun o -> vote && o.o_applied)
    t.ep_update
    {
      up_action = Action.Atomic.owner act;
      up_uid = uid;
      up_op = Note_version version;
      up_if_rev = Some rev;
      up_vote = vote;
    }

(* A granted [Counted] bind staged its Increment and voted yes. *)
let bind t ~act ~uid use =
  let voted = match use with Counted _ -> fun _ -> true | Locked -> unvoted in
  call_enlisted t ~act ~voted t.ep_bind
    {
      bt_uid = uid;
      bt_action = Action.Atomic.owner act;
      bt_client = Action.Atomic.node act;
      bt_use = use;
    }

let mirror_to t backup =
  if not (List.memq backup t.backups) then t.backups <- t.backups @ [ backup ]

let resync_from t ~source ~from =
  (* Pull the source's committed images (RPC from [from], normally our own
     node, within a recovery fiber) and install them locally. *)
  match
    Net.Rpc.call (Action.Atomic.rpc t.art) ~from ~dst:source.gvd_node
      source.ep_resync ()
  with
  | Ok images ->
      install_images t images;
      Sim.Metrics.incr (metrics t) "gvd.resyncs";
      Ok ()
  | Error e -> Error e

(* -- direct introspection -- *)

let committed_version t uid = (entry_exn t uid).e_image.im_state.im_version
let current_sv t uid = (entry_exn t uid).e_image.im_server.im_sv
let current_st t uid = (entry_exn t uid).e_image.im_state.im_st

let current_uses t uid =
  (* All use lists, including those of nodes currently removed from Sv:
     the cleanup daemon must see counters wherever they hide. *)
  let e = entry_exn t uid in
  List.sort (fun (a, _) (b, _) -> String.compare a b) e.e_image.im_server.im_uses

let quiescent t uid = all_quiescent (entry_exn t uid).e_image

let snapshot_version t uid = (entry_exn t uid).e_version
let st_revision t uid = (entry_exn t uid).e_snap.im_state.im_st_rev

let all_uids t =
  Hashtbl.fold (fun _ e acc -> e.e_uid :: acc) t.entries [] |> List.sort Store.Uid.compare

let residual_locks t = Lockmgr.Manager.all_held t.locks

let residual_actions t =
  Hashtbl.fold
    (fun name a acc -> if a.a_undo <> [] || a.a_redo <> [] then name :: acc else acc)
    t.actions []
  |> List.sort String.compare
