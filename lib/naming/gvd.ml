type 'a reply =
  | Granted of 'a
  | Busy of string
  | Refused of string
  | Moved of Net.Network.node_id
      (* wrong shard: the entry was handed off to the given naming node;
         the router follows the hint and retries there *)

type server_view = {
  sv_servers : Net.Network.node_id list;
  sv_uses : (Net.Network.node_id * Use_list.t) list;
}

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

(* -- wire types -- *)

type op_req = { o_uid : Store.Uid.t; o_action : string; o_node : Net.Network.node_id }

type use_req = {
  u_uid : Store.Uid.t;
  u_action : string;
  u_client : Net.Network.node_id;
  u_nodes : Net.Network.node_id list;
}

type excl_req = {
  x_action : string;
  x_pairs : (Store.Uid.t * Net.Network.node_id list) list;
}

type read_req = { r_uid : Store.Uid.t; r_action : string }

type note_req = { n_uid : Store.Uid.t; n_action : string; n_version : Store.Version.t }

(* The optimistic commit's combined validate-and-note: one request carries
   both the version note the classic path sends ([vv_version]) and the St
   revision the committing client's lock-free snapshot read observed
   ([vv_rev]). The handler re-checks the revision under the note's own
   write-fence lock, so a Granted-[true] reply means "no Include/Exclude
   committed since your snapshot AND the fence now holds to your action's
   end" — in a single RPC round. *)
type validate_req = {
  vv_uid : Store.Uid.t;
  vv_action : string;
  vv_version : Store.Version.t;
  vv_rev : int;
}

(* Validated Exclude (the §13 discipline applied to §4.2's own
   operation): the caller read (St, rev) lock-free, decided to drop
   [mb_node] off that snapshot, and now asks for the drop to be applied
   only if the revision still stands — decide-then-mutate in one atomic
   round instead of a blind mutation under a blocking lock. *)
type member_req = {
  mb_uid : Store.Uid.t;
  mb_action : string;
  mb_node : Net.Network.node_id;
  mb_rev : int;
}

(* The single-round bind request (schemes B/C): GetServer + Remove(dead)
   + Increment + GetView collapsed into one database operation, with the
   caller's coalesced pending Decrements ([bt_credits], one count per
   server node) piggybacked on the same round. *)
type batch_req = {
  bt_uid : Store.Uid.t;
  bt_action : string;
  bt_client : Net.Network.node_id;
  bt_replicas : int; (* activation subset size wanted by the policy *)
  bt_credits : (Net.Network.node_id * int) list;
}

type batch_view = {
  bv_impl : string;
  bv_chosen : Net.Network.node_id list; (* the servers whose counters were bumped *)
  bv_removed : Net.Network.node_id list; (* dead servers pruned from SvA *)
  bv_stores : Net.Network.node_id list; (* committed StA snapshot *)
  bv_version : int; (* snapshot version of the entry *)
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
  (* Actions that have touched the database since the last crash of the
     service node. With [durable], a crash restores every entry to its
     committed image and wipes locks — so pre-crash actions must vote no
     at prepare (their reads and staged updates are gone). *)
  known_actions : (string, unit) Hashtbl.t;
  (* With [durable], the actions that voted yes here and await phase 2:
     their staged updates and locks are stable, so they survive a crash
     and are resolved against the coordinator's decision on recovery. *)
  prepared : (string, unit) Hashtbl.t;
  (* In-flight presumed-abort probes for lock holders whose coordinator
     is partitioned away, keyed by holder action. *)
  breaking : (string, unit) Hashtbl.t;
  entries : (int, entry) Hashtbl.t; (* keyed by uid serial *)
  names : (string, Store.Uid.t) Hashtbl.t;
  locks : Lockmgr.Manager.t;
  (* Before-images per action and per independently-locked half:
     (action, uid serial, side) -> half image. *)
  undo : (string * int * side, half_image) Hashtbl.t;
  (* Staged commuting use-list updates per action and entry:
     (action, uid serial) -> (server node, client, delta). Unlike the
     structural Sv/St writes these are operation (redo) records, applied
     at commit and simply dropped at abort: a before-image restore would
     erase the committed deltas of concurrent [Delta]-mode holders. *)
  pending : (string * int, (Net.Network.node_id * Net.Network.node_id * int) list) Hashtbl.t;
  mutable guard : Action.Orphan_guard.t option;
      (* watches action origins; aborts orphaned actions of dead clients *)
  ep_lookup : (string, Store.Uid.t option) Net.Rpc.endpoint;
  ep_info : (Store.Uid.t, entry_info option) Net.Rpc.endpoint;
  ep_stored_on : (Net.Network.node_id, Store.Uid.t list) Net.Rpc.endpoint;
  ep_served_by : (Net.Network.node_id, Store.Uid.t list) Net.Rpc.endpoint;
  ep_get_server : (read_req, server_view reply) Net.Rpc.endpoint;
  ep_insert : (op_req, unit reply) Net.Rpc.endpoint;
  ep_remove : (op_req, unit reply) Net.Rpc.endpoint;
  ep_increment : (use_req, unit reply) Net.Rpc.endpoint;
  ep_decrement : (use_req, unit reply) Net.Rpc.endpoint;
  ep_zero : (use_req, unit reply) Net.Rpc.endpoint;
  ep_get_view : (read_req, Net.Network.node_id list reply) Net.Rpc.endpoint;
  ep_batch : (batch_req, batch_view reply) Net.Rpc.endpoint;
  ep_view_snap : (Store.Uid.t, (Net.Network.node_id list * int) reply) Net.Rpc.endpoint;
  ep_view_commit : (Store.Uid.t, (Net.Network.node_id list * int) reply) Net.Rpc.endpoint;
  ep_validate : (validate_req, bool reply) Net.Rpc.endpoint;
  ep_membership : (member_req, (bool * Store.Version.t) reply) Net.Rpc.endpoint;
  ep_exclude : (excl_req, unit reply) Net.Rpc.endpoint;
  ep_include : (op_req, Store.Version.t reply) Net.Rpc.endpoint;
  ep_retire_sv : (op_req, unit reply) Net.Rpc.endpoint;
  ep_retire_st : (op_req, unit reply) Net.Rpc.endpoint;
  ep_note_version : (note_req, unit reply) Net.Rpc.endpoint;
  ep_handoff : (handoff_req, handoff reply) Net.Rpc.endpoint;
  ep_snapshot : (unit, (int * image * int) list) Net.Rpc.endpoint;
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

let metrics t = Net.Network.metrics (netw t)

let sv_key uid = "sv:" ^ Store.Uid.to_string uid
let st_key uid = "st:" ^ Store.Uid.to_string uid

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
  match entry_opt t uid with
  | Some e -> e
  | None -> failwith ("gvd: unknown object " ^ Store.Uid.to_string uid)

(* Record the before-image of ONE side of the entry for the action, once:
   the side the action's lock actually covers. *)
let save_sv t ~action e =
  let key = (action, Store.Uid.serial e.e_uid, Sv_side) in
  if not (Hashtbl.mem t.undo key) then
    Hashtbl.add t.undo key (Server_half e.e_image.im_server)

let save_st t ~action e =
  let key = (action, Store.Uid.serial e.e_uid, St_side) in
  if not (Hashtbl.mem t.undo key) then
    Hashtbl.add t.undo key (State_half e.e_image.im_state)

(* Stage commuting use-list deltas for the action (redo records, applied
   at commit). Only taken under the [Delta] lock. *)
let stage_deltas t ~action e deltas =
  let key = (action, Store.Uid.serial e.e_uid) in
  let cur = Option.value ~default:[] (Hashtbl.find_opt t.pending key) in
  Hashtbl.replace t.pending key (cur @ deltas)

let rec apply_n f n x = if n <= 0 then x else apply_n f (n - 1) (f x)

let apply_delta ul ~client d =
  if d >= 0 then apply_n (fun ul -> Use_list.increment ul ~client) d ul
  else apply_n (fun ul -> Use_list.decrement ul ~client) (-d) ul

let touch_guard t action =
  Hashtbl.replace t.known_actions action ();
  match t.guard with
  | Some g -> Action.Orphan_guard.touch g ~scope:"gvd" ~action
  | None -> ()

let settle_guard t action =
  match t.guard with
  | Some g -> Action.Orphan_guard.settle g ~scope:"gvd" ~action
  | None -> ()

let transfer_guard t action parent =
  match t.guard with
  | Some g -> Action.Orphan_guard.transfer g ~scope:"gvd" ~action ~parent
  | None -> ()

(* A refused database lock may be held by an action whose coordinator is
   partitioned away: its phase-2 fan-out (commit or abort) never reached
   this node, the orphan guard only fires on crashes, and nothing retries
   the release after the cut heals. Probe such holders' coordinators from
   a separate fiber and complete them locally through the registered
   resource manager — a commit decision commits, anything else (or a
   coordinator unreachable through the whole probe budget) is presumed
   abort. Holders with a reachable coordinator are live contention and
   are left alone, so healthy runs see no extra traffic. *)
(* Complete [owner] locally from its coordinator's decision while
   [pending ()] holds: a commit decision commits, anything else (or a
   coordinator unreachable through the whole probe budget) is presumed
   abort. A still-active action is left alone — its own phase 2 will
   arrive. Runs in a fiber on the service node. *)
let settle_from_coordinator t owner ~pending =
  let coordinator = Action.Orphan_guard.origin_of_action owner in
  let rh = Action.Atomic.resource_host t.art in
  let finish how =
    match how with
    | `Commit ->
        tracef t "%s: wedged holder %s -> commit" t.gvd_node owner;
        ignore
          (Action.Resource_host.commit rh ~from:t.gvd_node ~node:t.gvd_node
             ~resource ~action:owner)
    | `Abort why ->
        tracef t "%s: wedged holder %s -> presumed abort (%s)" t.gvd_node
          owner why;
        ignore
          (Action.Resource_host.abort rh ~from:t.gvd_node ~node:t.gvd_node
             ~resource ~action:owner)
  in
  let rec settle n =
    if pending () then
      match
        Action.Atomic.query_decision t.art ~from:t.gvd_node ~coordinator
          ~action:owner
      with
      | Ok Action.Atomic.D_commit -> finish `Commit
      | Ok (Action.Atomic.D_abort | Action.Atomic.D_unknown) ->
          finish (`Abort "decided")
      | Ok Action.Atomic.D_active -> ()
      | Error _ ->
          if n = 0 then finish (`Abort "coordinator unreachable")
          else begin
            Sim.Engine.sleep (eng t) 2.0;
            settle (n - 1)
          end
  in
  settle 5

let break_stale_lock_holders t key =
  List.iter
    (fun (owner, _mode) ->
      let coordinator = Action.Orphan_guard.origin_of_action owner in
      if
        (not (Hashtbl.mem t.breaking owner))
        && not (Net.Network.reachable (netw t) t.gvd_node coordinator)
      then begin
        Hashtbl.add t.breaking owner ();
        Net.Network.spawn_on (netw t) t.gvd_node
          ~name:(Printf.sprintf "%s.break-lock:%s" t.gvd_node owner)
          (fun () ->
            settle_from_coordinator t owner ~pending:(fun () ->
                List.exists
                  (fun (o, _) -> String.equal o owner)
                  (Lockmgr.Manager.holders t.locks key));
            Hashtbl.remove t.breaking owner)
      end)
    (Lockmgr.Manager.holders t.locks key)

(* Lock acquisition helpers: block up to the timeout, refuse after. *)
let lock_timeout = 30.0

let with_lock t ~action ~mode key (f : unit -> 'a reply) : 'a reply =
  touch_guard t action;
  match
    Lockmgr.Manager.acquire t.locks ~owner:action ~mode ~timeout:lock_timeout
      key
  with
  | Ok () -> f ()
  | Error `Timeout ->
      break_stale_lock_holders t key;
      Sim.Metrics.incr (metrics t) "gvd.lock_refusals";
      Refused (Printf.sprintf "lock %s (%s) refused" key (Lockmgr.Mode.to_string mode))

let uses_of im = im.im_server.im_uses

let use_list im node =
  match List.assoc_opt node (uses_of im) with
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
  tracef t "register %a sv=[%s] st=[%s]" Store.Uid.pp uid
    (String.concat "," sv) (String.concat "," st)

let h_get_server t { r_uid; r_action } =
  match entry_opt t r_uid with
  | None -> absent t r_uid
  | Some e ->
      with_lock t ~action:r_action ~mode:Lockmgr.Mode.Read (sv_key r_uid)
        (fun () ->
          Sim.Metrics.incr (metrics t) "gvd.get_server";
          Granted
            {
              sv_servers = e.e_image.im_server.im_sv;
              sv_uses =
                List.map
                  (fun n -> (n, use_list e.e_image n))
                  e.e_image.im_server.im_sv;
            })

let h_insert t { o_uid; o_action; o_node } =
  match entry_opt t o_uid with
  | None -> absent t o_uid
  | Some e ->
      with_lock t ~action:o_action ~mode:Lockmgr.Mode.Write (sv_key o_uid)
        (fun () ->
          if not (all_quiescent e.e_image) then begin
            Sim.Metrics.incr (metrics t) "gvd.insert_busy";
            Busy "object not quiescent"
          end
          else begin
            save_sv t ~action:o_action e;
            e.e_image <-
              {
                e.e_image with
                im_server =
                  {
                    e.e_image.im_server with
                    im_sv = add_unique o_node e.e_image.im_server.im_sv;
                    im_sv_home = add_unique o_node e.e_image.im_server.im_sv_home;
                  };
              };
            tracef t "%s insert %s into Sv(%a)" o_action o_node Store.Uid.pp o_uid;
            Sim.Metrics.incr (metrics t) "gvd.inserts";
            Granted ()
          end)

let h_remove t { o_uid; o_action; o_node } =
  match entry_opt t o_uid with
  | None -> absent t o_uid
  | Some e ->
      with_lock t ~action:o_action ~mode:Lockmgr.Mode.Write (sv_key o_uid)
        (fun () ->
          save_sv t ~action:o_action e;
          e.e_image <-
            {
              e.e_image with
              im_server =
                {
                  e.e_image.im_server with
                  im_sv =
                    List.filter (fun n -> n <> o_node) e.e_image.im_server.im_sv;
                };
            };
          tracef t "%s remove %s from Sv(%a)" o_action o_node Store.Uid.pp o_uid;
          Sim.Metrics.incr (metrics t) "gvd.removes";
          Granted ())

(* Increment/Decrement: commuting counter updates under the [Delta] lock,
   so concurrent binders no longer serialise behind a write lock
   (§4.1.3's contention problem). The updates are staged as redo records
   and applied when the action commits; abort just drops them — a
   before-image restore would erase concurrent holders' committed
   deltas. [delta] is +1 (increment) or -1 (decrement) per listed node. *)
let h_use_delta t ~delta ~name { u_uid; u_action; u_client; u_nodes } =
  match entry_opt t u_uid with
  | None -> absent t u_uid
  | Some e ->
      with_lock t ~action:u_action ~mode:Lockmgr.Mode.Delta (sv_key u_uid)
        (fun () ->
          stage_deltas t ~action:u_action e
            (List.map (fun node -> (node, u_client, delta)) u_nodes);
          Sim.Metrics.incr (metrics t) ("gvd." ^ name);
          Granted ())

(* Zero (the cleanup protocol's repair for a crashed client) is not a
   commuting update — it erases the client's counters whatever their
   value — so it keeps the write lock and before-image undo. Strict 2PL
   makes the two undo disciplines safe to mix: [Write] excludes [Delta],
   so no staged delta can exist on an entry while a zero's before-image
   is live, and vice versa. *)
let h_zero t { u_uid; u_action; u_client; u_nodes = _ } =
  match entry_opt t u_uid with
  | None -> absent t u_uid
  | Some e ->
      with_lock t ~action:u_action ~mode:Lockmgr.Mode.Write (sv_key u_uid)
        (fun () ->
          save_sv t ~action:u_action e;
          e.e_image <-
            List.fold_left
              (fun im node ->
                set_use_list im node
                  (Use_list.drop_client (use_list im node) ~client:u_client))
              e.e_image
              (List.map fst e.e_image.im_server.im_uses);
          Sim.Metrics.incr (metrics t) "gvd.zeroes";
          Granted ())

let h_get_view t { r_uid; r_action } =
  match entry_opt t r_uid with
  | None -> absent t r_uid
  | Some e ->
      (* A locked GetView that finds the St entry unavailable is about to
         queue: count it, so experiments can attribute naming-tier lock
         waits to this path specifically (the probe is pure). *)
      if
        not
          (Lockmgr.Manager.available t.locks ~owner:r_action
             ~mode:Lockmgr.Mode.Read (st_key r_uid))
      then Sim.Metrics.incr (metrics t) "gvd.view_lock_waits";
      with_lock t ~action:r_action ~mode:Lockmgr.Mode.Read (st_key r_uid)
        (fun () ->
          Sim.Metrics.incr (metrics t) "gvd.get_view";
          Granted e.e_image.im_state.im_st)

(* Lock-free snapshot reads (schemes B/C): serve the latest committed
   image without touching the lock table. Writers install a new snapshot
   only at commit, so a snapshot reader can never observe an uncommitted
   mutation; the price is bounded staleness, which the commit-time
   machinery (store-side backward validation, the Include version fence)
   already tolerates. Scheme A keeps the locked read path — Figure 6's
   semantics depend on its read locks being held to action end. *)
let h_get_view_snapshot t uid =
  match entry_opt t uid with
  | None -> absent t uid
  | Some e ->
      Sim.Metrics.incr (metrics t) "gvd.get_view";
      Sim.Metrics.incr (metrics t) "gvd.snapshot_reads";
      Granted (e.e_snap.im_state.im_st, e.e_version)

(* The optimistic commit's St read: the committed member list plus the St
   revision to validate against at prepare time. Lock-free like the other
   snapshot reads — the fence the classic locked GetView provided is
   re-established (or the staleness detected) by [h_validate_view]. *)
let h_get_view_commit t uid =
  match entry_opt t uid with
  | None -> absent t uid
  | Some e ->
      Sim.Metrics.incr (metrics t) "gvd.get_view";
      Sim.Metrics.incr (metrics t) "gvd.snapshot_reads";
      Granted (e.e_snap.im_state.im_st, e.e_snap.im_state.im_st_rev)

let take k xs =
  let rec go k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: go (k - 1) rest
  in
  go k xs

(* The single-round bind (schemes B/C): one request carries the whole
   database half of a Figure-7/8 bind — GetServer, Remove of detectably
   dead servers, Increment of the chosen subset — with the caller's
   coalesced pending Decrements piggybacked, and the reply carries the
   committed StA snapshot so no separate GetView round is needed.

   The lock mode is chosen by a lock-free peek at the committed
   snapshot: only when a listed server is detectably dead does the
   handler need the write lock (for the structural Remove); the common
   case runs in [Delta] mode and concurrent binders commute. A server
   that dies between the peek and the grant is simply not chosen — its
   Remove happens on a later bind. *)
let h_batch t { bt_uid; bt_action; bt_client; bt_replicas; bt_credits } =
  match entry_opt t bt_uid with
  | None -> absent t bt_uid
  | Some e ->
      let up n = Net.Network.is_up (netw t) n in
      let structural =
        List.exists (fun n -> not (up n)) e.e_snap.im_server.im_sv
      in
      let mode = if structural then Lockmgr.Mode.Write else Lockmgr.Mode.Delta in
      with_lock t ~action:bt_action ~mode (sv_key bt_uid) (fun () ->
          Sim.Metrics.incr (metrics t) "gvd.batch_binds";
          Sim.Metrics.incr (metrics t) "gvd.get_server";
          let sv = e.e_image.im_server.im_sv in
          let dead = List.filter (fun n -> not (up n)) sv in
          let removed =
            if mode = Lockmgr.Mode.Write && dead <> [] then begin
              save_sv t ~action:bt_action e;
              e.e_image <-
                {
                  e.e_image with
                  im_server =
                    {
                      e.e_image.im_server with
                      im_sv = List.filter (fun n -> not (List.mem n dead)) sv;
                    };
                };
              Sim.Metrics.incr (metrics t) ~by:(List.length dead) "gvd.removes";
              dead
            end
            else []
          in
          let live = List.filter up e.e_image.im_server.im_sv in
          let in_use =
            List.filter
              (fun n -> not (Use_list.is_empty (use_list e.e_image n)))
              live
          in
          let chosen = if in_use = [] then take bt_replicas live else in_use in
          if chosen = [] then Refused "no live server"
          else begin
            Sim.Metrics.incr (metrics t) "gvd.increments";
            if bt_credits <> [] then Sim.Metrics.incr (metrics t) "gvd.decrements";
            let deltas =
              List.map (fun n -> (n, bt_client, 1)) chosen
              @ List.map (fun (n, c) -> (n, bt_client, -c)) bt_credits
            in
            (match mode with
            | Lockmgr.Mode.Delta -> stage_deltas t ~action:bt_action e deltas
            | _ ->
                (* Write mode excludes every concurrent counter holder,
                   so the before-image is a sound undo and the deltas can
                   apply in place. *)
                save_sv t ~action:bt_action e;
                e.e_image <-
                  List.fold_left
                    (fun im (node, client, d) ->
                      set_use_list im node (apply_delta (use_list im node) ~client d))
                    e.e_image deltas);
            Sim.Metrics.incr (metrics t) "gvd.get_view";
            Sim.Metrics.incr (metrics t) "gvd.snapshot_reads";
            tracef t "%s batch-bind %a chosen=[%s]%s" bt_action Store.Uid.pp
              bt_uid (String.concat "," chosen)
              (if removed = [] then "" else " removed=[" ^ String.concat "," removed ^ "]");
            Granted
              {
                bv_impl = e.e_impl;
                bv_chosen = chosen;
                bv_removed = removed;
                bv_stores = e.e_snap.im_state.im_st;
                bv_version = e.e_version;
              }
          end)

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

(* Exclude: promote (or acquire) the §4.2.1 lock on every listed entry
   first; only mutate once every lock is held, so refusal leaves the
   database untouched. *)
let h_exclude t { x_action; x_pairs } =
  touch_guard t x_action;
  match
    List.find_map
      (fun (uid, _) ->
        if owns t uid then None
        else Hashtbl.find_opt t.moved_out (Store.Uid.serial uid))
      x_pairs
  with
  | Some dest -> Moved dest
  | None ->
  let all_locked =
    List.for_all
      (fun (uid, _) -> take_fence t ~action:x_action (st_key uid))
      x_pairs
  in
  if not all_locked then begin
    Sim.Metrics.incr (metrics t) "gvd.exclude_refused";
    Refused "exclude lock promotion refused"
  end
  else begin
    List.iter
      (fun (uid, nodes) ->
        match entry_opt t uid with
        | None -> ()
        | Some e ->
            save_st t ~action:x_action e;
            e.e_image <-
              {
                e.e_image with
                im_state =
                  {
                    e.e_image.im_state with
                    im_st =
                      List.filter
                        (fun n -> not (List.mem n nodes))
                        e.e_image.im_state.im_st;
                  };
              };
            tracef t "%s exclude [%s] from St(%a)" x_action
              (String.concat "," nodes) Store.Uid.pp uid;
            Sim.Metrics.incr (metrics t) ~by:(List.length nodes) "gvd.exclusions")
      x_pairs;
    Granted ()
  end

let h_retire_sv t { o_uid; o_action; o_node } =
  match entry_opt t o_uid with
  | None -> absent t o_uid
  | Some e ->
      with_lock t ~action:o_action ~mode:Lockmgr.Mode.Write (sv_key o_uid)
        (fun () ->
          if not (all_quiescent e.e_image) then Busy "object not quiescent"
          else begin
            save_sv t ~action:o_action e;
            e.e_image <-
              {
                e.e_image with
                im_server =
                  {
                    im_sv =
                      List.filter (fun n -> n <> o_node) e.e_image.im_server.im_sv;
                    im_sv_home =
                      List.filter (fun n -> n <> o_node)
                        e.e_image.im_server.im_sv_home;
                    im_uses = List.remove_assoc o_node e.e_image.im_server.im_uses;
                  };
              };
            tracef t "%s retire server %s from %a" o_action o_node Store.Uid.pp
              o_uid;
            Sim.Metrics.incr (metrics t) "gvd.server_retirements";
            Granted ()
          end)

let h_retire_st t { o_uid; o_action; o_node } =
  match entry_opt t o_uid with
  | None -> absent t o_uid
  | Some e ->
      with_lock t ~action:o_action ~mode:Lockmgr.Mode.Write (st_key o_uid)
        (fun () ->
          save_st t ~action:o_action e;
          e.e_image <-
            {
              e.e_image with
              im_state =
                {
                  e.e_image.im_state with
                  im_st =
                    List.filter (fun n -> n <> o_node) e.e_image.im_state.im_st;
                  im_st_home =
                    List.filter (fun n -> n <> o_node)
                      e.e_image.im_state.im_st_home;
                };
            };
          tracef t "%s retire store %s from %a" o_action o_node Store.Uid.pp o_uid;
          Sim.Metrics.incr (metrics t) "gvd.store_retirements";
          Granted ())

let h_include t { o_uid; o_action; o_node } =
  match entry_opt t o_uid with
  | None -> absent t o_uid
  | Some e ->
      with_lock t ~action:o_action ~mode:Lockmgr.Mode.Write (st_key o_uid)
        (fun () ->
          save_st t ~action:o_action e;
          e.e_image <-
            {
              e.e_image with
              im_state =
                {
                  e.e_image.im_state with
                  im_st = add_unique o_node e.e_image.im_state.im_st;
                  im_st_home = add_unique o_node e.e_image.im_state.im_st_home;
                };
            };
          tracef t "%s include %s into St(%a) -> [%s]" o_action o_node
            Store.Uid.pp o_uid
            (String.concat "," e.e_image.im_state.im_st);
          Sim.Metrics.incr (metrics t) "gvd.includes";
          Granted e.e_image.im_state.im_version)

(* Hand an entry off to another shard (online rebalance). Runs atomically
   at the simulation level — no suspension points between the check and
   the removal — so no bind can observe a half-migrated entry. Only
   lock-free entries move: a holder (or waiter) implies in-flight
   before-images whose undo must stay co-located with the entry, so the
   router retries busy entries until the locks drain. Use lists ride
   along inside the image: entries with active bindings migrate fine. *)
let h_handoff t { hr_uid; hr_dest } =
  match entry_opt t hr_uid with
  | None -> absent t hr_uid
  | Some e ->
      let free key =
        Lockmgr.Manager.holders t.locks key = []
        && Lockmgr.Manager.waiting t.locks key = 0
      in
      if not (free (sv_key hr_uid) && free (st_key hr_uid)) then begin
        Sim.Metrics.incr (metrics t) "gvd.handoff_busy";
        Busy "entry locked"
      end
      else begin
        let serial = Store.Uid.serial hr_uid in
        let names =
          Hashtbl.fold
            (fun name uid acc ->
              if Store.Uid.equal uid hr_uid then name :: acc else acc)
            t.names []
          |> List.sort String.compare
        in
        Hashtbl.remove t.entries serial;
        List.iter (fun name -> Hashtbl.remove t.names name) names;
        Hashtbl.replace t.moved_out serial hr_dest;
        Sim.Metrics.incr (metrics t) "gvd.handoffs_out";
        tracef t "handoff %a -> %s" Store.Uid.pp hr_uid hr_dest;
        Granted
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
  Sim.Metrics.incr (metrics t) "gvd.handoffs_in";
  tracef t "accepted handoff of %a" Store.Uid.pp ho.ho_uid

let handoff_out t ~from ~uid ~dest =
  Net.Rpc.call (Action.Atomic.rpc t.art) ~from ~dst:t.gvd_node t.ep_handoff
    { hr_uid = uid; hr_dest = dest }

(* Record the committed version at commit time, under the same lock
   discipline as Exclude (§4.2.1): readers are unaffected. *)
let h_note_version t { n_uid; n_action; n_version } =
  touch_guard t n_action;
  match entry_opt t n_uid with
  | None -> absent t n_uid
  | Some e ->
      let key = st_key n_uid in
      if not (take_fence t ~action:n_action key) then begin
        break_stale_lock_holders t key;
        Refused "version-note lock refused"
      end
      else begin
        save_st t ~action:n_action e;
        if Store.Version.newer_than n_version e.e_image.im_state.im_version then
          e.e_image <-
            {
              e.e_image with
              im_state = { e.e_image.im_state with im_version = n_version };
            };
        Granted ()
      end

(* The optimistic commit's validate-and-note, one RPC round (§4.2.1
   relaxed): re-check the St revision the committing client's lock-free
   snapshot read observed, under the same write-fence lock the classic
   version note takes.

   - Lock refused (an Include/Exclude holds the write lock right now):
     [Refused] — the client treats it like a conflict and retries.
   - Revision moved (a membership change committed since the snapshot):
     [Granted false]. The just-acquired fence is deliberately KEPT — it
     belongs to the action and blocks further membership commits, so the
     retried copy-back re-reads a revision that can no longer move and the
     next validation must succeed: one conflict costs one retry, not a
     livelock.
   - Revision stands: record the committed version exactly as
     [h_note_version] would and reply [Granted true]. From here to action
     end the fence excludes concurrent Includes — the same guarantee the
     classic locked GetView provided, established at prepare time instead
     of commit start.

   Idempotent under duplicate delivery: the lock grant is re-entrant, the
   before-image save is once-per-action, the version advance is guarded by
   [newer_than], and the revision cannot change between duplicates while
   the fence is held. *)
let h_validate_view t { vv_uid; vv_action; vv_version; vv_rev } =
  touch_guard t vv_action;
  match entry_opt t vv_uid with
  | None -> absent t vv_uid
  | Some e ->
      let mode = fence_mode t in
      let key = st_key vv_uid in
      (* Probe before mutating: [available] is the pure validate-under-mode
         query, so a doomed request breaks stale holders and refuses
         without installing a lock or saving an image. *)
      if not (Lockmgr.Manager.available t.locks ~owner:vv_action ~mode key)
      then begin
        break_stale_lock_holders t key;
        Sim.Metrics.incr (metrics t) "gvd.lock_refusals";
        Refused "validate lock refused"
      end
      else begin
        if not (take_fence t ~action:vv_action key) then
          Refused "validate lock refused"
        else if e.e_snap.im_state.im_st_rev <> vv_rev then begin
          Sim.Metrics.incr (metrics t) "gvd.validate_conflicts";
          tracef t "%s validate %a: rev %d moved to %d" vv_action Store.Uid.pp
            vv_uid vv_rev e.e_snap.im_state.im_st_rev;
          Granted false
        end
        else begin
          save_st t ~action:vv_action e;
          if Store.Version.newer_than vv_version e.e_image.im_state.im_version
          then
            e.e_image <-
              {
                e.e_image with
                im_state = { e.e_image.im_state with im_version = vv_version };
              };
          Granted true
        end
      end

(* Validated Exclude: the same validate-under-the-fence shape as
   [h_validate_view], driving §4.2's own membership mutation. The caller
   (the autonomic controller) read (St, rev) lock-free, decided "drop n"
   off that snapshot, and the handler applies the drop only if the
   revision still stands:

   - Lock refused: [Refused], caller retries or falls back to the classic
     blocking Exclude.
   - Revision moved (some other membership change committed since the
     snapshot): [Granted (false, _)] KEEPING the fence — the caller
     re-reads St (which can no longer move) and re-decides; if the drop
     is still wanted, the next attempt must succeed.
   - Revision stands: mutate exactly as [h_exclude] would. A drop that
     would empty [St] is refused outright — the last state holder is
     never evicted, however sick: a slow state beats no state. *)
let h_membership t { mb_uid; mb_action; mb_node; mb_rev } =
  touch_guard t mb_action;
  match entry_opt t mb_uid with
  | None -> absent t mb_uid
  | Some e ->
      let mode = fence_mode t in
      let key = st_key mb_uid in
      if not (Lockmgr.Manager.available t.locks ~owner:mb_action ~mode key)
      then begin
        break_stale_lock_holders t key;
        Sim.Metrics.incr (metrics t) "gvd.lock_refusals";
        Refused "membership lock refused"
      end
      else begin
        if not (take_fence t ~action:mb_action key) then
          Refused "membership lock refused"
        else if e.e_snap.im_state.im_st_rev <> mb_rev then begin
          Sim.Metrics.incr (metrics t) "gvd.membership_conflicts";
          tracef t "%s membership %a: rev %d moved to %d" mb_action
            Store.Uid.pp mb_uid mb_rev e.e_snap.im_state.im_st_rev;
          Granted (false, e.e_image.im_state.im_version)
        end
        else
          let st = e.e_image.im_state.im_st in
          if List.mem mb_node st && List.length st <= 1 then begin
            Sim.Metrics.incr (metrics t) "gvd.exclude_refused";
            Refused "would empty St"
          end
          else begin
            save_st t ~action:mb_action e;
            e.e_image <-
              {
                e.e_image with
                im_state =
                  {
                    e.e_image.im_state with
                    im_st = List.filter (fun n -> n <> mb_node) st;
                  };
              };
            tracef t "%s exclude-validated %s from St(%a)" mb_action mb_node
              Store.Uid.pp mb_uid;
            Sim.Metrics.incr (metrics t) "gvd.exclusions";
            Granted (true, e.e_image.im_state.im_version)
          end
      end

(* Synchronously push the committed images (with their snapshot versions)
   of the given entry serials to every backup instance: ONE coalesced
   payload per commit, scattered to all backups in a single [call_all]
   round — previously this was one RPC per mutated entry per operation.
   A push failure is tolerated (that backup is down; it resynchronises by
   pulling a snapshot on recovery). *)
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
          (List.sort_uniq Int.compare serials)
      in
      if payload <> [] then
        ignore
          (Net.Rpc.call_all (Action.Atomic.rpc t.art) ~from:t.gvd_node ep_mirror
             (List.map (fun b -> (b.gvd_node, payload)) backups))

(* -- resource manager: ties the database into action completion -- *)

let actions_images t action =
  Hashtbl.fold
    (fun (a, serial, side) half acc ->
      if String.equal a action then (serial, side, half) :: acc else acc)
    t.undo []

let actions_deltas t action =
  Hashtbl.fold
    (fun (a, serial) ops acc ->
      if String.equal a action then (serial, ops) :: acc else acc)
    t.pending []

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

let manager t =
  {
    Action.Resource_host.m_prepare =
      (fun ~action ->
        (* Under the always-available assumption every action is known;
           with a durable (crashable) service, an action from before the
           last crash lost its locks and staged updates and must abort,
           and a yes vote makes the action's stage stable. *)
        if not t.durable then true
        else if Hashtbl.mem t.known_actions action then begin
          Hashtbl.replace t.prepared action ();
          true
        end
        else false);
    m_commit =
      (fun ~action ->
        let images = actions_images t action in
        let deltas = actions_deltas t action in
        (* Apply the staged commuting counter updates first... *)
        List.iter
          (fun (serial, ops) ->
            (match Hashtbl.find_opt t.entries serial with
            | Some e ->
                e.e_image <-
                  List.fold_left
                    (fun im (node, client, d) ->
                      set_use_list im node
                        (apply_delta (use_list im node) ~client d))
                    e.e_image ops
            | None -> ());
            Hashtbl.remove t.pending (action, serial))
          deltas;
        (* ...then install a fresh committed snapshot for every half the
           action touched, bumping each entry's version exactly once, and
           only then release the locks: a lock-free reader can never see
           a pre-install state after a later action was granted. *)
        let touched_sides =
          List.map (fun (s, side, _) -> (s, side)) images
          @ List.map (fun (s, _) -> (s, Sv_side)) deltas
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
        List.iter
          (fun (serial, side, _) -> Hashtbl.remove t.undo (action, serial, side))
          images;
        Lockmgr.Manager.release_all t.locks ~owner:action;
        Hashtbl.remove t.known_actions action;
        Hashtbl.remove t.prepared action;
        settle_guard t action;
        mirror_push t touched);
    m_abort =
      (fun ~action ->
        List.iter
          (fun (serial, side, half) ->
            (match Hashtbl.find_opt t.entries serial with
            | Some e ->
                restore_half e half;
                tracef t "%s undo-restore entry %d -> St=[%s]" action serial
                  (String.concat "," e.e_image.im_state.im_st)
            | None -> ());
            Hashtbl.remove t.undo (action, serial, side))
          (actions_images t action);
        (* Staged deltas are redo records: abort just drops them. *)
        List.iter
          (fun (serial, _) -> Hashtbl.remove t.pending (action, serial))
          (actions_deltas t action);
        Lockmgr.Manager.release_all t.locks ~owner:action;
        Hashtbl.remove t.known_actions action;
        Hashtbl.remove t.prepared action;
        settle_guard t action);
    m_transfer =
      (fun ~action ~parent ->
        List.iter
          (fun (serial, side, half) ->
            (* The parent keeps its own (older) before-image if it has
               one; otherwise it inherits the child's. *)
            if not (Hashtbl.mem t.undo (parent, serial, side)) then
              Hashtbl.add t.undo (parent, serial, side) half;
            Hashtbl.remove t.undo (action, serial, side))
          (actions_images t action);
        (* Staged deltas append to the parent's: both sets apply when the
           top-level action eventually commits. *)
        List.iter
          (fun (serial, ops) ->
            let pkey = (parent, serial) in
            let cur = Option.value ~default:[] (Hashtbl.find_opt t.pending pkey) in
            Hashtbl.replace t.pending pkey (cur @ ops);
            Hashtbl.remove t.pending (action, serial))
          (actions_deltas t action);
        Lockmgr.Manager.transfer_all t.locks ~from_owner:action ~to_owner:parent;
        if Hashtbl.mem t.known_actions action then begin
          Hashtbl.remove t.known_actions action;
          Hashtbl.replace t.known_actions parent ()
        end;
        transfer_guard t action parent);
  }

let install ?(use_exclude_write = true) ?(durable = false)
    ?(service_time = 0.0) art ~node =
  let t =
    {
      art;
      gvd_node = node;
      use_exclude_write;
      durable;
      service_time;
      service = Sim.Semaphore.create 1;
      moved_out = Hashtbl.create 16;
      known_actions = Hashtbl.create 64;
      prepared = Hashtbl.create 16;
      breaking = Hashtbl.create 16;
      entries = Hashtbl.create 64;
      names = Hashtbl.create 64;
      locks = Lockmgr.Manager.create ~metrics:(Net.Network.metrics (Action.Atomic.network art))
          (Action.Atomic.engine art);
      undo = Hashtbl.create 64;
      pending = Hashtbl.create 64;
      guard = None;
      ep_lookup = Net.Rpc.endpoint "gvd.lookup";
      ep_info = Net.Rpc.endpoint "gvd.info";
      ep_stored_on = Net.Rpc.endpoint "gvd.stored_on";
      ep_served_by = Net.Rpc.endpoint "gvd.served_by";
      ep_get_server = Net.Rpc.endpoint "gvd.get_server";
      ep_insert = Net.Rpc.endpoint "gvd.insert";
      ep_remove = Net.Rpc.endpoint "gvd.remove";
      ep_increment = Net.Rpc.endpoint "gvd.increment";
      ep_decrement = Net.Rpc.endpoint "gvd.decrement";
      ep_zero = Net.Rpc.endpoint "gvd.zero";
      ep_get_view = Net.Rpc.endpoint "gvd.get_view";
      ep_batch = Net.Rpc.endpoint "gvd.bind_batch";
      ep_view_snap = Net.Rpc.endpoint "gvd.get_view_snapshot";
      ep_exclude = Net.Rpc.endpoint "gvd.exclude";
      ep_include = Net.Rpc.endpoint "gvd.include";
      ep_retire_sv = Net.Rpc.endpoint "gvd.retire_sv";
      ep_retire_st = Net.Rpc.endpoint "gvd.retire_st";
      ep_note_version = Net.Rpc.endpoint "gvd.note_version";
      ep_view_commit = Net.Rpc.endpoint "gvd.get_view_commit";
      ep_validate = Net.Rpc.endpoint "gvd.validate_view";
      ep_membership = Net.Rpc.endpoint "gvd.membership";
      ep_handoff = Net.Rpc.endpoint "gvd.handoff";
      ep_snapshot = Net.Rpc.endpoint "gvd.snapshot";
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
  Net.Rpc.serve rpc ~node t.ep_stored_on (fun n ->
      Hashtbl.fold
        (fun _ e acc ->
          if List.mem n e.e_image.im_state.im_st_home then e.e_uid :: acc else acc)
        t.entries []
      |> List.sort Store.Uid.compare);
  Net.Rpc.serve rpc ~node t.ep_served_by (fun n ->
      Hashtbl.fold
        (fun _ e acc ->
          if List.mem n e.e_image.im_server.im_sv_home then e.e_uid :: acc else acc)
        t.entries []
      |> List.sort Store.Uid.compare);
  Net.Rpc.serve rpc ~node t.ep_get_server (fun req ->
      serviced t (fun () -> h_get_server t req));
  Net.Rpc.serve rpc ~node t.ep_insert (fun req ->
      serviced t (fun () -> h_insert t req));
  Net.Rpc.serve rpc ~node t.ep_remove (fun req ->
      serviced t (fun () -> h_remove t req));
  Net.Rpc.serve rpc ~node t.ep_increment (fun req ->
      serviced t (fun () -> h_use_delta t ~name:"increments" ~delta:1 req));
  Net.Rpc.serve rpc ~node t.ep_decrement (fun req ->
      serviced t (fun () -> h_use_delta t ~name:"decrements" ~delta:(-1) req));
  Net.Rpc.serve rpc ~node t.ep_zero (fun req ->
      serviced t (fun () -> h_zero t req));
  Net.Rpc.serve rpc ~node t.ep_get_view (fun req ->
      serviced t (fun () -> h_get_view t req));
  Net.Rpc.serve rpc ~node t.ep_batch (fun req ->
      serviced t (fun () -> h_batch t req));
  Net.Rpc.serve rpc ~node t.ep_view_snap (fun uid ->
      serviced t (fun () -> h_get_view_snapshot t uid));
  Net.Rpc.serve rpc ~node t.ep_exclude (fun req ->
      serviced t (fun () -> h_exclude t req));
  Net.Rpc.serve rpc ~node t.ep_include (fun req ->
      serviced t (fun () -> h_include t req));
  Net.Rpc.serve rpc ~node t.ep_retire_sv (fun req -> h_retire_sv t req);
  Net.Rpc.serve rpc ~node t.ep_retire_st (fun req -> h_retire_st t req);
  Net.Rpc.serve rpc ~node t.ep_note_version (fun req ->
      serviced t (fun () -> h_note_version t req));
  Net.Rpc.serve rpc ~node t.ep_view_commit (fun uid ->
      serviced t (fun () -> h_get_view_commit t uid));
  Net.Rpc.serve rpc ~node t.ep_validate (fun req ->
      serviced t (fun () -> h_validate_view t req));
  Net.Rpc.serve rpc ~node t.ep_membership (fun req ->
      serviced t (fun () -> h_membership t req));
  Net.Rpc.serve rpc ~node t.ep_handoff (fun req -> h_handoff t req);
  Net.Rpc.serve rpc ~node ep_mirror (fun images ->
      List.iter
        (fun (serial, im, version) ->
          match Hashtbl.find_opt t.entries serial with
          | Some e ->
              e.e_image <- im;
              e.e_snap <- im;
              e.e_version <- max version e.e_version
          | None -> ())
        images;
      Sim.Metrics.incr (metrics t) "gvd.mirror_applies");
  Net.Rpc.serve rpc ~node t.ep_snapshot (fun () ->
      Hashtbl.fold
        (fun serial e acc -> (serial, e.e_snap, e.e_version) :: acc)
        t.entries []);
  let mgr = manager t in
  Action.Resource_host.register (Action.Atomic.resource_host art) ~node
    ~resource mgr;
  t.guard <-
    Some
      (Action.Orphan_guard.create (Action.Atomic.network art) ~node
         ~abort:(fun ~scope:_ ~action ->
           Sim.Metrics.incr (metrics t) "gvd.orphan_aborts";
           tracef t "aborting orphaned action %s" action;
           mgr.Action.Resource_host.m_abort ~action));
  if durable then begin
    (* The persistent-object semantics of the database itself: committed
       entry images are stable, and so is the stage of every prepared
       action; the locks, before-images and staged updates of all other
       in-flight actions are volatile and die with the node. *)
    let net = Action.Atomic.network art in
    let in_doubt action = Hashtbl.mem t.prepared action in
    let keep tbl action_of =
      let kept =
        Hashtbl.fold
          (fun k v acc -> if in_doubt (action_of k) then (k, v) :: acc else acc)
          tbl []
      in
      Hashtbl.reset tbl;
      List.iter (fun (k, v) -> Hashtbl.replace tbl k v) kept
    in
    Net.Network.on_crash net node (fun () ->
        Hashtbl.iter
          (fun (action, serial, _) half ->
            match Hashtbl.find_opt t.entries serial with
            | Some e when not (in_doubt action) -> restore_half e half
            | _ -> ())
          t.undo;
        keep t.undo (fun (action, _, _) -> action);
        keep t.pending fst;
        keep t.known_actions Fun.id;
        Lockmgr.Manager.release_everything ~keep:in_doubt t.locks;
        Sim.Metrics.incr (metrics t) "gvd.crash_resets");
    (* A phase 2 sent while the node was down is never re-sent: settle
       each in-doubt action from its coordinator's decision. *)
    Net.Network.on_recover net node (fun () ->
        List.iter
          (fun action ->
            Net.Network.spawn_on net node
              ~name:(Printf.sprintf "%s.in-doubt:%s" node action) (fun () ->
                settle_from_coordinator t action ~pending:(fun () ->
                    in_doubt action)))
          (Hashtbl.fold (fun action () acc -> action :: acc) t.prepared []))
  end;
  t

(* -- client stubs: call, then enlist the action with the database -- *)

(* Under a gray-failure profile, plain idempotent reads race a backup copy
   against a browned-out shard (same destination — under per-message
   brownout inflation a re-send is a fresh draw). Everything that enlists
   stays un-hedged: it stages locks and counter updates, and a duplicate
   delivery would ride below the dedup guard. *)
let plain_call t ~from ep req =
  if Net.Network.hedged (Action.Atomic.network t.art) then
    Net.Rpc.call_hedged (Action.Atomic.rpc t.art) ~from ~dst:t.gvd_node
      ~hedge:(Net.Rpc.hedge ()) ep req
  else Net.Rpc.call (Action.Atomic.rpc t.art) ~from ~dst:t.gvd_node ep req

let call_enlisted t ~act ep req =
  let from = Action.Atomic.node act in
  let result = Net.Rpc.call (Action.Atomic.rpc t.art) ~from ~dst:t.gvd_node ep req in
  (match result with
  | Ok (Granted _) ->
      Action.Atomic.enlist act ~node:t.gvd_node ~resource ()
  | Ok (Busy _ | Refused _) ->
      (* The handler may still hold locks for the action (e.g. insert got
         its write lock but found the object busy); enlist so they are
         released at action end. *)
      Action.Atomic.enlist act ~node:t.gvd_node ~resource ()
  | Error _ ->
      (* Indistinguishable cases: the request was lost (no effects) or
         only the reply was (the handler ran and holds locks and staged
         state for the action). Enlist conservatively so action end
         releases whatever exists — but not [required]: the call failed
         from the caller's view, so an unreachable database must not be
         allowed to veto (or silently commit into) an action that
         otherwise succeeded without it. *)
      Action.Atomic.enlist act ~required:false ~node:t.gvd_node ~resource ()
  | Ok (Moved _) -> ());
  result

let lookup t ~from name = plain_call t ~from t.ep_lookup name
let entry_info t ~from uid = plain_call t ~from t.ep_info uid

let stored_on t ~from n =
  Net.Rpc.call (Action.Atomic.rpc t.art) ~from ~dst:t.gvd_node t.ep_stored_on n

let served_by t ~from n =
  Net.Rpc.call (Action.Atomic.rpc t.art) ~from ~dst:t.gvd_node t.ep_served_by n

let get_server t ~act uid =
  call_enlisted t ~act t.ep_get_server
    { r_uid = uid; r_action = Action.Atomic.owner act }

let insert t ~act ~uid node =
  call_enlisted t ~act t.ep_insert
    { o_uid = uid; o_action = Action.Atomic.owner act; o_node = node }

let remove t ~act ~uid node =
  call_enlisted t ~act t.ep_remove
    { o_uid = uid; o_action = Action.Atomic.owner act; o_node = node }

let increment t ~act ~uid ~client nodes =
  call_enlisted t ~act t.ep_increment
    { u_uid = uid; u_action = Action.Atomic.owner act; u_client = client; u_nodes = nodes }

let decrement t ~act ~uid ~client nodes =
  call_enlisted t ~act t.ep_decrement
    { u_uid = uid; u_action = Action.Atomic.owner act; u_client = client; u_nodes = nodes }

let zero_client t ~act ~uid ~client =
  call_enlisted t ~act t.ep_zero
    { u_uid = uid; u_action = Action.Atomic.owner act; u_client = client; u_nodes = [] }

let get_view t ~act uid =
  call_enlisted t ~act t.ep_get_view
    { r_uid = uid; r_action = Action.Atomic.owner act }

let bind_batch t ~act ~uid ~client ~replicas ~credits =
  call_enlisted t ~act t.ep_batch
    {
      bt_uid = uid;
      bt_action = Action.Atomic.owner act;
      bt_client = client;
      bt_replicas = replicas;
      bt_credits = credits;
    }

(* Snapshot reads are lock-free and touch no recoverable state, so they
   are plain calls — no enlistment, nothing for the action to release. *)
let get_view_snapshot t ~from uid = plain_call t ~from t.ep_view_snap uid

let exclude t ~act pairs =
  call_enlisted t ~act t.ep_exclude
    { x_action = Action.Atomic.owner act; x_pairs = pairs }

let include_ t ~act ~uid node =
  call_enlisted t ~act t.ep_include
    { o_uid = uid; o_action = Action.Atomic.owner act; o_node = node }

(* The validated Exclude enlists like every other mutator: the handler
   takes the fence lock and stages a before-image for the action, so
   action end must release/restore them whatever the outcome. *)
let exclude_validated t ~act ~uid ~rev node =
  call_enlisted t ~act t.ep_membership
    {
      mb_uid = uid;
      mb_action = Action.Atomic.owner act;
      mb_node = node;
      mb_rev = rev;
    }

let mirror_to t backup =
  if not (List.memq backup t.backups) then t.backups <- t.backups @ [ backup ]

let resync_from t ~source ~from =
  (* Pull the source's committed images (RPC from [from], normally our own
     node, within a recovery fiber) and install them locally. *)
  match
    Net.Rpc.call (Action.Atomic.rpc t.art) ~from ~dst:source.gvd_node
      source.ep_snapshot ()
  with
  | Ok images ->
      List.iter
        (fun (serial, im, version) ->
          match Hashtbl.find_opt t.entries serial with
          | Some e ->
              e.e_image <- im;
              e.e_snap <- im;
              e.e_version <- max version e.e_version
          | None -> ())
        images;
      Sim.Metrics.incr (metrics t) "gvd.resyncs";
      Ok ()
  | Error e -> Error e

let note_version t ~act ~uid version =
  call_enlisted t ~act t.ep_note_version
    { n_uid = uid; n_action = Action.Atomic.owner act; n_version = version }

(* Lock-free like the other snapshot stubs: a plain, non-enlisted call.
   Nothing recoverable happens server-side until [validate_view]. *)
let get_view_commit t ~from uid =
  Net.Rpc.call (Action.Atomic.rpc t.art) ~from ~dst:t.gvd_node t.ep_view_commit
    uid

(* The validate half DOES take the write fence and stage a version note,
   so it enlists exactly like [note_version]. *)
let validate_view t ~act ~uid ~version ~rev =
  call_enlisted t ~act t.ep_validate
    {
      vv_uid = uid;
      vv_action = Action.Atomic.owner act;
      vv_version = version;
      vv_rev = rev;
    }

let committed_version t uid = (entry_exn t uid).e_image.im_state.im_version

let retire_server_home t ~act ~uid node =
  call_enlisted t ~act t.ep_retire_sv
    { o_uid = uid; o_action = Action.Atomic.owner act; o_node = node }

let retire_store_home t ~act ~uid node =
  call_enlisted t ~act t.ep_retire_st
    { o_uid = uid; o_action = Action.Atomic.owner act; o_node = node }

(* -- direct introspection -- *)

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
  let acts = Hashtbl.create 8 in
  Hashtbl.iter (fun (a, _) _ -> Hashtbl.replace acts a ()) t.pending;
  Hashtbl.iter (fun (a, _, _) _ -> Hashtbl.replace acts a ()) t.undo;
  Hashtbl.fold (fun a () acc -> a :: acc) acts [] |> List.sort String.compare
