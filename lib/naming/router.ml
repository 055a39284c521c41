(* The sharded naming tier: one Gvd instance per naming node, a
   consistent-hash Shard_map assigning each object UID to its owning
   shard, and per-operation dispatch with retry-on-bounce.

   Dispatch is client-side pure hashing — no extra RPC is spent finding
   the owner, so a single-shard world issues exactly the same messages
   as the seed's monolithic service. When a map change migrates an
   entry, requests still routed by the old map get a [Moved] hint from
   the source shard and are retried at the destination; requests that
   land in the short in-flight window (the handoff reply's network
   flight) see "unknown object" and are retried after a short pause,
   bounded, while a rebalance is running. *)

type t = {
  rt_gvds : (Net.Network.node_id * Gvd.t) list; (* all naming nodes *)
  rt_primary : Gvd.t;
  rt_art : Action.Atomic.runtime;
  mutable rt_map : Shard_map.t;
  mutable rt_migrating : bool;
  rt_eng : Sim.Engine.t;
}

let bounce_tries = 8
let migration_pause = 0.5

let create ?use_exclude_write ?durable ?service_time art ~nodes =
  if nodes = [] then invalid_arg "Router.create: no naming nodes";
  let gvds =
    List.map
      (fun node ->
        (node, Gvd.install ?use_exclude_write ?durable ?service_time art ~node))
      nodes
  in
  {
    rt_gvds = gvds;
    rt_primary = snd (List.hd gvds);
    rt_art = art;
    rt_map = Shard_map.create ~nodes;
    rt_migrating = false;
    rt_eng = Action.Atomic.engine art;
  }

let of_gvd art gvd =
  {
    rt_gvds = [ (Gvd.node gvd, gvd) ];
    rt_primary = gvd;
    rt_art = art;
    rt_map = Shard_map.create ~nodes:[ Gvd.node gvd ];
    rt_migrating = false;
    rt_eng = Action.Atomic.engine art;
  }

let map t = t.rt_map
let primary t = t.rt_primary
let gvds t = List.map snd t.rt_gvds
let migrating t = t.rt_migrating

let metrics t = Net.Network.metrics (Action.Atomic.network t.rt_art)

let gvd_for t node = List.assoc_opt node t.rt_gvds

let owner_gvd t uid =
  match gvd_for t (Shard_map.owner t.rt_map uid) with
  | Some g -> g
  | None -> t.rt_primary

(* Shard a uid-keyed operation: run [call] against the owning instance,
   follow [Moved] hints, and absorb the migration window. The wrappers
   below never surface [Moved] to callers — an unresolvable bounce
   (exhausted retries, hint at an unknown node) degrades to [Refused].
   Moved hints are chased immediately (the destination is named in the
   hint — no point backing off); only the migration in-flight window
   waits, through the shared retry policy. *)
let dispatch t ~uid (call : Gvd.t -> ('a Gvd.reply, Net.Rpc.error) result) =
  let m = metrics t in
  let bounces = ref bounce_tries in
  let rec chase g =
    match call g with
    | Ok (Gvd.Moved dest) ->
        Sim.Metrics.incr m "router.bounces";
        decr bounces;
        if !bounces < 0 then `Done (Ok (Gvd.Refused "shard map unstable"))
        else (
          match gvd_for t dest with
          | Some g' -> chase g'
          | None -> `Done (Ok (Gvd.Refused ("moved to unknown shard " ^ dest))))
    | Ok (Gvd.Refused "unknown object") as r when t.rt_migrating ->
        (* The entry may be in flight between shards: back off and
           re-route from the current map. *)
        `Wait r
    | r -> `Done r
  in
  let last = ref None in
  match
    Net.Retry.run (Action.Atomic.retry t.rt_art) ~op:"router.dispatch"
      (Net.Retry.policy ~attempts:(bounce_tries + 1) ~base:migration_pause
         ~factor:1.5 ~max_delay:2.0 ())
      (fun () ->
        match chase (owner_gvd t uid) with
        | `Done r -> Ok r
        | `Wait r ->
            last := Some r;
            Sim.Metrics.incr m "router.retry_waits";
            Error "entry in flight between shards")
  with
  | Ok r -> r
  | Error _ -> (
      (* Waited out the whole window: surface the shard's last answer. *)
      match !last with
      | Some r -> r
      | None -> Ok (Gvd.Refused "unknown object"))

(* -- uid-keyed database operations, shard-dispatched -- *)

let get_server t ~act uid = dispatch t ~uid (fun g -> Gvd.get_server g ~act uid)

let insert t ~act ~uid node = dispatch t ~uid (fun g -> Gvd.insert g ~act ~uid node)


let decrement t ~act ~uid ~client nodes =
  dispatch t ~uid (fun g -> Gvd.decrement g ~act ~uid ~client nodes)

let get_view t ~act uid = dispatch t ~uid (fun g -> Gvd.get_view g ~act uid)

(* The single-round bind: the whole database half of a scheme-B/C bind is
   one uid-keyed request, so it dispatches to (and runs atomically on)
   exactly one shard. *)
let bind_batch t ~act ~uid ~client ~replicas ~credits =
  dispatch t ~uid (fun g -> Gvd.bind_batch g ~act ~uid ~client ~replicas ~credits)

let get_view_snapshot t ~from uid =
  dispatch t ~uid (fun g -> Gvd.get_view_snapshot g ~from uid)

let include_ t ~act ~uid node =
  dispatch t ~uid (fun g -> Gvd.include_ g ~act ~uid node)

let note_version t ~act ~uid version =
  dispatch t ~uid (fun g -> Gvd.note_version g ~act ~uid version)

let get_view_commit t ~from uid =
  dispatch t ~uid (fun g -> Gvd.get_view_commit g ~from uid)

let validate_view t ~act ~uid ~version ~rev =
  dispatch t ~uid (fun g -> Gvd.validate_view g ~act ~uid ~version ~rev)

let exclude_validated t ~act ~uid ~rev node =
  dispatch t ~uid (fun g -> Gvd.exclude_validated g ~act ~uid ~rev node)

let retire_server_home t ~act ~uid node =
  dispatch t ~uid (fun g -> Gvd.retire_server_home g ~act ~uid node)

let retire_store_home t ~act ~uid node =
  dispatch t ~uid (fun g -> Gvd.retire_store_home g ~act ~uid node)

(* Exclude is a batch: group the pairs by owning shard and run one
   sub-exclude per shard (in practice the batch is a single object). All
   sub-replies must be Granted; the first failure wins — partial grants
   are harmless because each is undone by the caller's abort. *)
let exclude t ~act pairs =
  let groups =
    List.fold_left
      (fun acc ((uid, _) as pair) ->
        let owner = Shard_map.owner t.rt_map uid in
        let cur = Option.value ~default:[] (List.assoc_opt owner acc) in
        (owner, cur @ [ pair ]) :: List.remove_assoc owner acc)
      [] pairs
  in
  let rec run = function
    | [] -> Ok (Gvd.Granted ())
    | (_, group) :: rest -> (
        let uid = fst (List.hd group) in
        match dispatch t ~uid (fun g -> Gvd.exclude g ~act group) with
        | Ok (Gvd.Granted ()) -> run rest
        | other -> other)
  in
  run groups

(* -- administrative / name-space operations -- *)

let register_direct t ~uid ~name ~impl ~sv ~st =
  let g = owner_gvd t uid in
  Gvd.register_direct g ~uid ~name ~impl ~sv ~st

let lookup t ~from name =
  (* Names live on the shard owning their UID; resolution scans shards in
     order. A single-shard world issues exactly one RPC, as the seed did. *)
  let rec scan = function
    | [] -> Ok None
    | (_, g) :: rest -> (
        match Gvd.lookup g ~from name with
        | Ok (Some uid) -> Ok (Some uid)
        | Ok None -> if rest = [] then Ok None else scan rest
        | Error _ when rest <> [] -> scan rest
        | Error e -> Error e)
  in
  scan t.rt_gvds

let entry_info t ~from uid =
  let owner = Shard_map.owner t.rt_map uid in
  let rec scan = function
    | [] -> Ok None
    | g :: rest -> (
        match Gvd.entry_info g ~from uid with
        | Ok (Some info) -> Ok (Some info)
        | Ok None -> if rest = [] then Ok None else scan rest
        | Error _ when rest <> [] -> scan rest
        | Error e -> Error e)
  in
  (* Owner first; the rest only as a migration-window fallback. *)
  let ordered =
    match gvd_for t owner with
    | Some g -> g :: List.filter (fun g' -> g' != g) (List.map snd t.rt_gvds)
    | None -> List.map snd t.rt_gvds
  in
  scan ordered

let union_query t ~from per_shard =
  List.fold_left
    (fun acc (_, g) ->
      match acc with
      | Error _ -> acc
      | Ok uids -> (
          match per_shard g ~from with
          | Ok more -> Ok (uids @ more)
          | Error e -> Error e))
    (Ok []) t.rt_gvds
  |> Result.map (List.sort_uniq Store.Uid.compare)

let stored_on t ~from node =
  union_query t ~from (fun g ~from -> Gvd.stored_on g ~from node)

let served_by t ~from node =
  union_query t ~from (fun g ~from -> Gvd.served_by g ~from node)

(* -- direct introspection: find the shard that actually holds the entry
   (during a migration the map can briefly disagree with reality) -- *)

let holding_gvd t uid =
  match List.find_opt (fun (_, g) -> Gvd.owns g uid) t.rt_gvds with
  | Some (_, g) -> g
  | None -> owner_gvd t uid

let current_st t uid = Gvd.current_st (holding_gvd t uid) uid

let all_uids t =
  List.concat_map (fun (_, g) -> Gvd.all_uids g) t.rt_gvds
  |> List.sort_uniq Store.Uid.compare

(* -- online rebalance -- *)

(* Move one entry, retrying while its locks drain. Runs in the caller's
   fiber (RPC to the source; in-process install at the destination). *)
let migrate_one t ~from ~uid ~src ~dest_gvd =
  let m = metrics t in
  let rec try_once g chases =
    match Gvd.handoff_out g ~from ~uid ~dest:(Gvd.node dest_gvd) with
    | Ok (Gvd.Granted ho) ->
        Gvd.accept_handoff dest_gvd ho;
        Sim.Metrics.incr m "router.migrations";
        Ok true
    | Ok (Gvd.Busy why) -> Error ("busy: " ^ why)
    | Ok (Gvd.Moved dest) -> (
        (* Someone already moved it (concurrent rebalance); chase. *)
        match gvd_for t dest with
        | Some g' when g' != dest_gvd ->
            if chases > 0 then try_once g' (chases - 1)
            else Error "chasing moved entry"
        | _ -> Ok true)
    | Ok (Gvd.Refused _) -> Ok false
    | Error e -> Error (Net.Rpc.error_to_string e)
  in
  match
    Net.Retry.run (Action.Atomic.retry t.rt_art) ~op:"router.migrate"
      (Net.Retry.policy ~attempts:60 ~base:1.0 ~factor:1.2 ~max_delay:4.0 ())
      (fun () -> try_once src 4)
  with
  | Ok granted -> granted
  | Error _ -> false

let rebalance t ~from nodes =
  let nodes = List.sort_uniq String.compare nodes in
  List.iter
    (fun n ->
      if not (List.mem_assoc n t.rt_gvds) then
        invalid_arg ("Router.rebalance: " ^ n ^ " is not a naming node"))
    nodes;
  let new_map = Shard_map.with_nodes t.rt_map nodes in
  let m = metrics t in
  Sim.Metrics.incr m "router.rebalances";
  t.rt_migrating <- true;
  (* Migrate every entry whose owner changes. In-flight binds keep
     running: busy entries are retried until their locks drain, racing
     requests ride the Moved bounce. *)
  List.iter
    (fun (src_node, src) ->
      List.iter
        (fun uid ->
          let dest = Shard_map.owner new_map uid in
          if dest <> src_node then
            match gvd_for t dest with
            | Some dest_gvd ->
                ignore (migrate_one t ~from ~uid ~src ~dest_gvd : bool)
            | None -> ())
        (Gvd.all_uids src))
    t.rt_gvds;
  (* Flip only after the data moved: lookups under the old map are healed
     by Moved markers, lookups under the new map find the entries home. *)
  t.rt_map <- new_map;
  t.rt_migrating <- false

let reset_map t nodes =
  if all_uids t <> [] then
    invalid_arg "Router.reset_map: shards are not empty (setup-time only)";
  List.iter
    (fun n ->
      if not (List.mem_assoc n t.rt_gvds) then
        invalid_arg ("Router.reset_map: " ^ n ^ " is not a naming node"))
    nodes;
  t.rt_map <- Shard_map.with_nodes t.rt_map nodes
