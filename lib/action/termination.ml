type outcome = Commit | Abort | Presumed_abort | Orphan_abort

type ops = {
  holds : scope:string -> action:string -> bool;
  evidence : scope:string -> action:string -> Store.Uid.t list;
  complete : scope:string -> action:string -> outcome -> unit;
}

(* The crash watch of one (scope, action). *)
type entry = { watch : Net.Network.watch; mutable voted : bool }

type t = {
  rt : Atomic.runtime;
  node : Net.Network.node_id;
  ops : ops;
  entries : (string * string, entry) Hashtbl.t;
  probing : (string * string, unit) Hashtbl.t;
      (* refusal probes in flight: one per holder at a time *)
}

type trigger = Crash | Recovery | Refusal

let budget = function
  | Crash -> Net.Retry.policy ~attempts:65 ~base:5.0 ~factor:1.2 ~max_delay:8.0 ()
  | Recovery ->
      Net.Retry.policy ~attempts:60 ~base:2.0 ~factor:1.5 ~max_delay:8.0 ()
  | Refusal -> Net.Retry.policy ~attempts:6 ~base:2.0 ~factor:1.5 ~max_delay:8.0 ()

let op = function
  | Crash -> "termination.crash"
  | Recovery -> "termination.recovery"
  | Refusal -> "termination.refusal"

let origin_of_action action =
  match String.index_opt action ':' with
  | Some i -> String.sub action 0 i
  | None -> action

(* Store evidence: while a participant holds the action's stage no later
   action can have committed past it, so a state of one of [uids] stamped
   by [action] on a reachable store other than [node] proves the decision
   was commit, and its absence from every reachable store makes presumed
   abort the safe reading. *)
let committed_on_a_store rt ~node ~action uids =
  let sh = Atomic.store_host rt in
  let net = Atomic.network rt in
  let stamped peer uid =
    match Store_host.read sh ~from:node ~store:peer uid with
    | Ok (Some s) ->
        String.equal s.Store.Object_state.version.Store.Version.committed_by action
    | Ok None | Error _ -> false
  in
  List.exists
    (fun uid ->
      List.exists
        (fun peer ->
          (not (String.equal peer node)) && Net.Network.is_up net peer && stamped peer uid)
        (Store_host.nodes sh))
    uids

(* The rule, for [action] at one participant, in the calling fiber on
   [node]. Once started it asks until it hears a final decision and then
   applies it, even if phase 2 caught up meanwhile: completion is
   idempotent everywhere. *)
let terminate rt ~node ops trigger ~scope ~action ~coordinator =
  let holds () = ops.holds ~scope ~action in
  let finish outcome how =
    Sim.Trace.recordf
      (Net.Network.trace (Atomic.network rt))
      ~now:(Sim.Engine.now (Atomic.engine rt))
      ~tag:"termination" "%s: %s %s -> %s" node scope action how;
    ops.complete ~scope ~action outcome
  in
  (* Whether the last answer was [D_active]: the coordinator is alive and
     will send phase 2 itself. *)
  let deciding = ref false in
  if holds () then
    match
      Net.Retry.run (Atomic.retry rt) ~dst:coordinator ~op:(op trigger)
        (budget trigger) (fun () ->
          match Atomic.query_decision rt ~from:node ~coordinator ~action with
          | Ok Atomic.D_commit -> Ok Commit
          | Ok (Atomic.D_abort | Atomic.D_unknown) -> Ok Abort
          | Ok Atomic.D_active ->
              deciding := true;
              Error "coordinator still deciding"
          | Error e ->
              deciding := false;
              Error (Net.Rpc.error_to_string e))
    with
    | Ok Commit -> finish Commit "commit"
    | Ok _ -> finish Abort "abort"
    | Error _ when !deciding || not (holds ()) -> ()
    | Error _ ->
        if committed_on_a_store rt ~node ~action (ops.evidence ~scope ~action)
        then finish Commit "commit (store evidence)"
        else finish Presumed_abort "presumed abort (no store evidence)"

let create rt ~node ops =
  let t =
    { rt; node; ops; entries = Hashtbl.create 8; probing = Hashtbl.create 1 }
  in
  (* Probes are fibers on [node]: they die with it. *)
  Net.Network.on_crash (Atomic.network rt) node (fun () -> Hashtbl.reset t.probing);
  t

(* [coordinator_of] runs only for an action not yet watched: touching an
   action on every operation costs one table lookup. *)
let watch t ~scope ~action ~coordinator_of ~voted =
  let key = (scope, action) in
  match Hashtbl.find_opt t.entries key with
  | Some e -> if voted then e.voted <- true
  | None ->
      let coordinator = coordinator_of action in
      if not (String.equal coordinator t.node) then begin
        let net = Atomic.network t.rt in
        let watch =
          Net.Network.watch_crash net coordinator (fun () ->
              match Hashtbl.find_opt t.entries key with
              | None -> ()
              | Some { voted; _ } ->
                  Hashtbl.remove t.entries key;
                  if voted then
                    Net.Network.spawn_on net t.node
                      ~name:(Printf.sprintf "in-doubt:%s" action) (fun () ->
                        terminate t.rt ~node:t.node t.ops Crash ~scope ~action
                          ~coordinator)
                  else
                    Net.Network.spawn_on net t.node
                      ~name:(Printf.sprintf "orphan-abort:%s" action) (fun () ->
                        t.ops.complete ~scope ~action Orphan_abort))
        in
        Hashtbl.add t.entries key { watch; voted }
      end

let touch t ~scope ~action =
  watch t ~scope ~action ~coordinator_of:origin_of_action ~voted:false

let vote t ~scope ~action =
  watch t ~scope ~action ~coordinator_of:origin_of_action ~voted:true

let forget t ~scope ~action =
  let key = (scope, action) in
  match Hashtbl.find_opt t.entries key with
  | None -> ()
  | Some e ->
      Hashtbl.remove t.entries key;
      Net.Network.unwatch (Atomic.network t.rt) e.watch

let transfer t ~scope ~action ~parent =
  forget t ~scope ~action;
  touch t ~scope ~action:parent

let refused_by t ~scope holders =
  let net = Atomic.network t.rt in
  List.iter
    (fun (action, coordinator) ->
      let key = (scope, action) in
      if
        (not (Hashtbl.mem t.probing key))
        && not (Net.Network.reachable net t.node coordinator)
      then begin
        Hashtbl.add t.probing key ();
        Net.Network.spawn_on net t.node
          ~name:(Printf.sprintf "%s.refused-by:%s" t.node action) (fun () ->
            terminate t.rt ~node:t.node t.ops Refusal ~scope ~action ~coordinator;
            Hashtbl.remove t.probing key)
      end)
    holders

let refused t ~scope holders =
  refused_by t ~scope (List.map (fun a -> (a, origin_of_action a)) holders)

let recover t ~scope ~action =
  Net.Network.spawn_on (Atomic.network t.rt) t.node
    ~name:(Printf.sprintf "%s.in-doubt:%s" t.node action) (fun () ->
      terminate t.rt ~node:t.node t.ops Recovery ~scope ~action
        ~coordinator:(origin_of_action action))

(* -- store participants: one scope, the intent log -- *)

let store_ops rt ~node =
  let sh = Atomic.store_host rt in
  let log = Store_host.log sh node in
  {
    holds = (fun ~scope:_ ~action -> Option.is_some (Store.Intent_log.prepared log ~action));
    evidence =
      (fun ~scope:_ ~action ->
        match Store.Intent_log.prepared log ~action with
        | Some { Store.Intent_log.writes; _ } -> List.map fst writes
        | None -> []);
    complete =
      (fun ~scope:_ ~action -> function
        | Commit ->
            (* The local commit path (idempotent); it can only fail if
               this node crashed again, and then its recovery retries. *)
            ignore (Store_host.commit sh ~from:node ~store:node ~action)
        | Abort | Presumed_abort | Orphan_abort -> Store_host.discard sh node ~action);
  }

let resolve_in_doubt rt ~node =
  let ops = store_ops rt ~node in
  let log = Store_host.log (Atomic.store_host rt) node in
  let rec drain () =
    match Store.Intent_log.in_doubt log with
    | [] -> ()
    | actions ->
        List.iter
          (fun action ->
            match Store.Intent_log.prepared log ~action with
            | Some { Store.Intent_log.coordinator; _ } ->
                terminate rt ~node ops Recovery ~scope:"" ~action ~coordinator
            | None -> ())
          actions;
        drain ()
  in
  drain ()

let attach rt ~node =
  let t = create rt ~node (store_ops rt ~node) in
  Store_host.set_hooks (Atomic.store_host rt) node
    {
      Store_host.prepared =
        (fun ~action ~coordinator ->
          watch t ~scope:"" ~action ~coordinator_of:(fun _ -> coordinator) ~voted:true);
      resolved = (fun ~action -> forget t ~scope:"" ~action);
      blocked = refused_by t ~scope:"";
    };
  Net.Network.on_recover (Atomic.network rt) node (fun () -> resolve_in_doubt rt ~node)
