(* The commit view the last answered invocation through a binding
   carried, whose action it was, and the member that answered it on
   which incarnation. *)
type kept_view = {
  kv_owner : string;
  kv_member : Net.Network.node_id;
  kv_incarnation : int;
  kv_view : Server.commit_view;
}

type t = {
  g_uid : Store.Uid.t;
  g_impl : string;
  g_policy : Policy.t;
  mutable g_members : Net.Network.node_id list;
  g_stores : Net.Network.node_id list;
  g_client : Net.Network.node_id;
  mutable g_acked : (string * int) list;
  mutable g_view : kept_view option;
  mutable g_on_write : unit -> unit;
}

type invoke_error = Unavailable of string | Lock_refused | Staged_lost

let pp_invoke_error ppf = function
  | Unavailable why -> Format.fprintf ppf "unavailable: %s" why
  | Lock_refused -> Format.pp_print_string ppf "lock refused"
  | Staged_lost ->
      Format.pp_print_string ppf "staged state lost across failover"

type pending = {
  p_ivar : Server.mc_reply Sim.Ivar.t;
  mutable p_replies : int;
  mutable p_expected : int;
}

type runtime = {
  srv : Server.runtime;
  sequencer : Net.Network.node_id;
  mutable next_req : int;
  mutable next_serial : int;
  pending : (int, pending) Hashtbl.t;
}

let create srv ~sequencer =
  Net.Multicast.enable_sequencer (Server.mc srv) ~node:sequencer;
  {
    srv;
    sequencer;
    next_req = 0;
    next_serial = 0;
    pending = Hashtbl.create 32;
  }

let server_runtime rt = rt.srv

let art rt = Server.atomic_runtime rt.srv
let net rt = Action.Atomic.network (art rt)
let eng rt = Action.Atomic.engine (art rt)
let rpc rt = Action.Atomic.rpc (art rt)
let metrics rt = Net.Network.metrics (net rt)

(* The client node must serve the multicast reply endpoint once. *)
let ensure_reply_service rt client =
  if not (Net.Rpc.serving (rpc rt) ~node:client (Server.reply_endpoint rt.srv)) then
    Net.Rpc.serve (rpc rt) ~node:client (Server.reply_endpoint rt.srv)
      (fun ({ Server.mr_req; mr_result; _ } as reply) ->
        match Hashtbl.find_opt rt.pending mr_req with
        | None -> ()
        | Some p ->
            p.p_replies <- p.p_replies + 1;
            (match mr_result with
            | Server.Reply _ ->
                (* First real reply wins; replicas are mutually
                   consistent. *)
                ignore (Sim.Ivar.try_fill p.p_ivar reply)
            | Server.Locked | Server.Not_active | Server.Not_coordinator
            | Server.State_lost | Server.Settled ->
                (* A bad answer only decides once every member answered
                   badly; a stale (freshly recovered, instance-less)
                   replica must not outrace a live one. *)
                if p.p_replies >= p.p_expected then
                  ignore (Sim.Ivar.try_fill p.p_ivar reply)))

let fresh_serial rt =
  rt.next_serial <- rt.next_serial + 1;
  rt.next_serial

(* Highest answered invocation serial of [act] through the binding: sent
   with every request so a promoted coordinator can detect lost staging.
   Kept per owner, since a nested action and its parent invoke through
   the same binding under their own serials. *)
let last_acked ~act g =
  Option.value ~default:0 (List.assoc_opt (Action.Atomic.owner act) g.g_acked)

(* An invocation of [act] answered by [member]: note its serial, and keep
   the commit view its reply carried for a commit that follows. *)
let answered ~act g ~serial ~member ~incarnation view =
  let owner = Action.Atomic.owner act in
  g.g_acked <- (owner, serial) :: List.remove_assoc owner g.g_acked;
  g.g_view <-
    Some
      { kv_owner = owner; kv_member = member; kv_incarnation = incarnation; kv_view = view }

let activate rt ~client ~uid ~impl ~policy ~servers ~stores =
  ensure_reply_service rt client;
  (* Pass 1: activate plainly wherever possible — all candidate servers
     at once, keeping the activated list in server order so replica
     preference (coordinator choice, single-copy pick) is unchanged.
     The candidate order is the network's preference
     ({!Net.Network.rank_servers}), so the replica preference that falls
     out — coordinator choice, single-copy pick, GetServer answers —
     leans away from browned-out nodes. *)
  let servers = Net.Network.rank_servers (net rt) servers in
  let activated =
    Sim.Join.all (eng rt)
      (List.map
         (fun server () ->
           match
             Server.activate rt.srv ~from:client ~server ~uid ~impl ~stores
               ~role:Server.Plain ~members:[]
           with
           | Ok (Server.Activated _) -> Some server
           | Ok (Server.Activation_failed _) | Error _ -> None)
         servers)
    |> List.filter_map Fun.id
  in
  match activated with
  | [] -> Error "no replica could be activated"
  | first :: _ ->
      let members =
        match policy with
        | Policy.Single_copy_passive -> [ first ]
        | Policy.Active _ -> activated
        | Policy.Coordinator_cohort _ ->
            (* Pass 2: assign roles now that the actual membership is
               known — activation is idempotent, so this just refreshes
               role and member lists (cohorts arrange their promotion
               watches here). *)
            ignore
              (Sim.Join.all (eng rt)
                 (List.mapi
                    (fun i server () ->
                      let role =
                        if i = 0 then Server.Coordinator else Server.Cohort
                      in
                      ignore
                        (Server.activate rt.srv ~from:client ~server ~uid ~impl
                           ~stores ~role ~members:activated))
                    activated));
            activated
      in
      Ok
        {
          g_uid = uid;
          g_impl = impl;
          g_policy = policy;
          g_members = members;
          g_stores = stores;
          g_client = client;
          g_acked = [];
          g_view = None;
          g_on_write = ignore;
        }

let live_members rt g =
  List.filter (fun m -> Net.Network.is_up (net rt) m) g.g_members

(* After a successful invocation the whole group is enlisted: every member
   holds locks/staged state for the action (active: all executed it;
   coordinator-cohort: checkpoints propagated it). Replicated policies
   enlist non-required members — their individual crashes are exactly what
   the policy masks — while the single-copy server is required. *)
let enlist_members act g =
  let required =
    match g.g_policy with
    | Policy.Single_copy_passive -> true
    | Policy.Active _ | Policy.Coordinator_cohort _ -> false
  in
  (* The scope is the uid's string, made once when the uid was. *)
  let scope = Store.Uid.to_string g.g_uid in
  List.iter
    (fun m -> Action.Atomic.enlist act ~required ~node:m ~kind:Server.resource_kind ~scope ())
    g.g_members

(* --- point-to-point invocation (single copy and coordinator-cohort) --- *)

let rpc_invoke rt g ~act ~write ~serial ~op server =
  (* Enlist before the call, not on the reply: once the request is on the
     wire the server may execute it — staging payload and taking locks —
     even if the reply never makes it back. An unanswered invocation must
     still put the member on the action's completion fan-out, or an abort
     would strand whatever the server staged. Enlisting a member that
     never saw the request is harmless: its completion no-ops. *)
  enlist_members act g;
  (* Read before the call, so that a crash after the server answered
     shows even if the node recovered before the reply landed. *)
  let incarnation = Net.Network.incarnation (net rt) server in
  match
    Server.invoke rt.srv ~from:g.g_client ~server ~uid:g.g_uid
      ~action:(Action.Atomic.owner act) ~serial
      ~last_acked:(last_acked ~act g) ~write ~op
  with
  | Ok (Server.Reply (r, view)) ->
      answered ~act g ~serial ~member:server ~incarnation view;
      Ok r
  | Ok Server.Locked -> Error Lock_refused
  | Ok Server.State_lost -> Error Staged_lost
  | Ok Server.Settled ->
      Error (Unavailable ("action already settled at " ^ server))
  | Ok Server.Not_active -> Error (Unavailable ("no instance on " ^ server))
  | Ok Server.Not_coordinator -> Error (Unavailable (server ^ " is a cohort"))
  | Error e -> Error (Unavailable (Net.Rpc.error_to_string e))

(* Coordinator-cohort: find the coordinator (it may have moved after a
   failover), retrying through the shared policy while election settles. *)
let find_coordinator rt g =
  (* Probe the members for the one claiming the coordinator role
     ({!Net.Rpc.first_answer}), so one browned-out cohort cannot drag
     the whole probe to its pace. *)
  let ask m =
    match Server.role_of rt.srv ~from:g.g_client ~server:m ~uid:g.g_uid with
    | Ok (Some Server.Coordinator) -> Some m
    | Ok _ | Error _ -> None
  in
  let probe () = Net.Rpc.first_answer (rpc rt) g.g_members ask in
  match
    Net.Retry.run (Action.Atomic.retry (art rt)) ~op:"group.find_coordinator"
      (Net.Retry.policy ~attempts:10 ~base:2.0 ~factor:1.2 ~max_delay:4.0 ())
      (fun () ->
        match probe () with
        | Some m -> Ok m
        | None -> Error "no member claims the coordinator role")
  with
  | Ok m -> Some m
  | Error _ -> None

let cc_invoke rt g ~act ~write ~serial ~op =
  match
    Net.Retry.run (Action.Atomic.retry (art rt))
      ?deadline_at:(Action.Atomic.deadline act) ~op:"group.cc_invoke"
      (Net.Retry.policy ~attempts:5 ~base:2.0 ~factor:1.5 ~max_delay:8.0 ())
      (fun () ->
        match find_coordinator rt g with
        | None -> Ok (Error (Unavailable "no coordinator found"))
        | Some coordinator -> (
            match rpc_invoke rt g ~act ~write ~serial ~op coordinator with
            | Ok r -> Ok (Ok r)
            | Error (Unavailable why) ->
                (* Coordinator died mid-call: wait for the election, retry
                   the same serial (the dedup table makes this
                   exactly-once). *)
                Sim.Metrics.incr (metrics rt) "group.cc_failovers";
                Error why
            | Error e -> Ok (Error e)))
  with
  | Ok r -> r
  | Error why -> Error (Unavailable ("no coordinator answered: " ^ why))

(* --- active replication: ordered multicast, first reply wins --- *)

let mc_invoke rt g ~act ~write ~serial ~op =
  let members = live_members rt g in
  if members = [] then Error (Unavailable "no live replica")
  else begin
    let req = rt.next_req in
    rt.next_req <- req + 1;
    let p =
      { p_ivar = Sim.Ivar.create (); p_replies = 0; p_expected = List.length members }
    in
    Hashtbl.add rt.pending req p;
    let mc = Server.invoke_channel rt.srv in
    let msg =
      {
        Server.mi_uid = g.g_uid;
        mi_action = Action.Atomic.owner act;
        mi_serial = serial;
        mi_last_acked = last_acked ~act g;
        mi_write = write;
        mi_op = op;
        mi_reply_to = g.g_client;
        mi_req = req;
      }
    in
    (* Enlist before the cast, not on its reply: the sequencer scatters
       the copies and only then acks, so a sequencer crash (or a reply
       lost past the RPC timeout) hands us an error while the invokes are
       already in flight to every member. The action may then abort, and
       a member delivering the straggler afterwards would stage state and
       take locks no completion ever cleans — enlistment puts them on the
       fan-out now, and the abort's settle tombstone makes each instance
       refuse the late delivery. Enlisting a member the cast never
       reaches is harmless: its completion no-ops. *)
    enlist_members act g;
    let cast =
      Net.Multicast.cast_atomic (Server.mc rt.srv) ~from:g.g_client
        ~sequencer:rt.sequencer ~members mc msg
    in
    let result =
      match cast with
      | Error e -> Error (Unavailable ("sequencer: " ^ Net.Rpc.error_to_string e))
      | Ok _seq -> (
          match
            Sim.Ivar.read_timeout (eng rt) Lockmgr.Manager.wait_bound p.p_ivar
          with
          | Error _ -> Error (Unavailable "no replica answered")
          | Ok { Server.mr_result; mr_replica; mr_incarnation; _ } -> (
              match mr_result with
              | Server.Reply (r, view) ->
                  answered ~act g ~serial ~member:mr_replica
                    ~incarnation:mr_incarnation view;
                  Ok r
              | Server.Locked -> Error Lock_refused
              | Server.State_lost -> Error Staged_lost
              | Server.Settled -> Error (Unavailable "action already settled")
              | Server.Not_active -> Error (Unavailable "replica had no instance")
              | Server.Not_coordinator -> Error (Unavailable "unexpected cohort")))
    in
    Hashtbl.remove rt.pending req;
    result
  end

let invoke rt g ~act ?(write = true) op =
  Sim.Metrics.incr (metrics rt) "group.invocations";
  if write then g.g_on_write ();
  let attempt () =
    (* Whatever view an earlier reply carried, this attempt may change the
       state behind it: only its own reply can say. *)
    g.g_view <- None;
    (* A fresh serial per attempt: a [Locked] refusal never executed the
       op, so the retry is a brand-new invocation to the dedup table. *)
    let serial = fresh_serial rt in
    match g.g_policy with
    | Policy.Single_copy_passive -> (
        match g.g_members with
        | [ server ] -> rpc_invoke rt g ~act ~write ~serial ~op server
        | _ -> Error (Unavailable "single-copy group has no unique server"))
    | Policy.Coordinator_cohort _ -> cc_invoke rt g ~act ~write ~serial ~op
    | Policy.Active _ -> mc_invoke rt g ~act ~write ~serial ~op
  in
  (* Lock refusals under contention are transient — the holder commits
     and releases within a bounded action — so back off and retry rather
     than bouncing the whole bind. No [~dst]: a lock refusal comes from a
     live node, so there is nothing for the failure detector to shed. *)
  match
    Net.Retry.run (Action.Atomic.retry (art rt))
      ?deadline_at:(Action.Atomic.deadline act) ~op:"group.invoke"
      (Net.Retry.policy ~attempts:6 ~base:1.0 ~factor:2.0 ~max_delay:8.0 ())
      (fun () ->
        match attempt () with
        | Ok r -> Ok (Ok r)
        | Error Lock_refused ->
            Sim.Metrics.incr (metrics rt) "group.lock_retries";
            Error "lock refused"
        | Error e -> Ok (Error e))
  with
  | Ok r -> r
  | Error _ -> Error Lock_refused

(* Ask the live members for [act]'s view: the fallback when the last
   reply's view cannot be used. *)
let ask_view rt g ~act =
  let action = Action.Atomic.owner act in
  let acked = last_acked ~act g in
  (* Members are mutually consistent, so any holder's view is the view:
     the first answer of {!Net.Rpc.first_answer} is as good as the
     gather. *)
  let ask m =
    match
      Server.commit_view rt.srv ~from:g.g_client ~server:m ~uid:g.g_uid
        ~action ~last_acked:acked
    with
    | Ok (Some view) -> Some view
    | Ok None | Error _ -> None
  in
  (* A replica that answered the invocation exists (or existed); live
     replicas that are merely behind the ordered stream catch up within a
     few latencies, so retry briefly before giving up. *)
  Net.Retry.run (Action.Atomic.retry (art rt))
    ?deadline_at:(Action.Atomic.deadline act) ~op:"group.commit_view"
    (Net.Retry.policy ~attempts:6 ~base:2.0 ~factor:1.2 ~max_delay:4.0 ())
    (fun () ->
      match Net.Rpc.first_answer (rpc rt) (live_members rt g) ask with
      | Some view -> Ok view
      | None -> Error "no functioning replica holds the action's state")

let commit_view rt g ~act =
  match g.g_view with
  | Some k
    when String.equal k.kv_owner (Action.Atomic.owner act)
         && Net.Network.is_up (net rt) k.kv_member
         && Net.Network.incarnation (net rt) k.kv_member = k.kv_incarnation ->
      (* The reply to the action's last invocation through the binding
         carried the view, and the member that built it has not crashed
         since: it still holds the action's state as the reply left it. *)
      Ok k.kv_view
  | Some _ | None -> ask_view rt g ~act

let passivate rt g ~from =
  ignore
    (Sim.Join.all (eng rt)
       (List.map
          (fun m () ->
            ignore (Server.passivate rt.srv ~from ~server:m ~uid:g.g_uid))
          (live_members rt g)))
