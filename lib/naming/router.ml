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
}

let bounce_tries = 8
let migration_pause = 0.5

let of_gvds art gvds =
  let nodes = List.map Gvd.node gvds in
  {
    rt_gvds = List.combine nodes gvds;
    rt_primary = List.hd gvds;
    rt_art = art;
    rt_map = Shard_map.create ~nodes;
    rt_migrating = false;
  }

let create ?use_exclude_write ?durable ?service_time art ~nodes =
  if nodes = [] then invalid_arg "Router.create: no naming nodes";
  of_gvds art
    (List.map (fun node -> Gvd.install ?use_exclude_write ?durable ?service_time art ~node) nodes)

let of_gvd art gvd = of_gvds art [ gvd ]

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

type failure = Busy of string | Refused of string | Unreachable of string

let failure_to_string = function Busy why | Refused why | Unreachable why -> why

(* Shard a uid-keyed operation: run [call] against the owning instance,
   follow [Moved] hints, and absorb the migration window. [Moved] never
   reaches callers — an unresolvable bounce (exhausted retries, hint at an
   unknown node) degrades to [Refused]. Moved hints are chased immediately
   (the destination is named in the hint — no point backing off); only
   the migration in-flight window waits, through the shared retry
   policy. *)
let dispatch t ~uid (call : Gvd.t -> ('a Gvd.reply, Net.Rpc.error) result) =
  let m = metrics t in
  let bounces = ref bounce_tries in
  let rec chase g =
    match call g with
    | Ok (Gvd.Granted v) -> Ok (Ok v)
    | Ok (Gvd.Busy why) -> Ok (Error (Busy why))
    | Ok (Gvd.Refused "unknown object") when t.rt_migrating ->
        (* The entry may be in flight between shards: back off and
           re-route from the current map. *)
        Sim.Metrics.incr m "router.retry_waits";
        Error "entry in flight between shards"
    | Ok (Gvd.Refused why) -> Ok (Error (Refused why))
    | Error e -> Ok (Error (Unreachable (Net.Rpc.error_to_string e)))
    | Ok (Gvd.Moved dest) -> (
        Sim.Metrics.incr m "router.bounces";
        decr bounces;
        if !bounces < 0 then Ok (Error (Refused "shard map unstable"))
        else
          match gvd_for t dest with
          | Some g' -> chase g'
          | None -> Ok (Error (Refused ("moved to unknown shard " ^ dest))))
  in
  match
    Net.Retry.run (Action.Atomic.retry t.rt_art) ~op:"router.dispatch"
      (Net.Retry.policy ~attempts:(bounce_tries + 1) ~base:migration_pause
         ~factor:1.5 ~max_delay:2.0 ())
      (fun () -> chase (owner_gvd t uid))
  with
  | Ok r -> r
  | Error _ -> Error (Refused "unknown object")

(* -- uid-keyed database operations, shard-dispatched -- *)

let read t ~act uid r = dispatch t ~uid (fun g -> Gvd.read g ~act uid r)
let snapshot t ~from uid = dispatch t ~uid (fun g -> Gvd.snapshot g ~from uid)

(* The single-round bind of every scheme: the whole database half of a
   bind is one uid-keyed request, so it dispatches to (and runs atomically
   on) exactly one shard. *)
let bind t ~act ~uid use = dispatch t ~uid (fun g -> Gvd.bind g ~act ~uid use)

let update t ~act ?if_rev uid op = dispatch t ~uid (fun g -> Gvd.update g ~act ?if_rev uid op)

(* -- administrative / name-space operations -- *)

let register_direct t ~uid ~name ~impl ~sv ~st =
  let g = owner_gvd t uid in
  Gvd.register_direct g ~uid ~name ~impl ~sv ~st

(* Ask the shards in order until one knows the answer; an unreachable
   shard is skipped unless it is the last. *)
let rec first_found query = function
  | [] -> Ok None
  | g :: rest -> (
      match query g with
      | Ok (Some _) as found -> found
      | (Ok None | Error _) when rest <> [] -> first_found query rest
      | r -> r)

let lookup t ~from name =
  (* Names live on the shard owning their UID; resolution scans shards in
     order. A single-shard world issues exactly one RPC, as the seed did. *)
  first_found (fun g -> Gvd.lookup g ~from name) (gvds t)

let entry_info t ~from uid =
  (* Owner first; the rest only as a migration-window fallback. *)
  let ordered =
    match gvd_for t (Shard_map.owner t.rt_map uid) with
    | Some g -> g :: List.filter (fun g' -> g' != g) (gvds t)
    | None -> gvds t
  in
  first_found (fun g -> Gvd.entry_info g ~from uid) ordered

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
        Gvd.settle_handoff g uid;
        Sim.Metrics.incr m "router.migrations";
        Ok true
    | Ok (Gvd.Busy why) -> Error ("busy: " ^ why)
    | Ok (Gvd.Moved dest) -> (
        (* Someone already moved it (concurrent rebalance); chase. A
           marker naming [dest_gvd] itself is a settled handoff: an
           unsettled one to the same destination is granted again. *)
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

let check_naming_nodes t fn nodes =
  List.iter
    (fun n ->
      if not (List.mem_assoc n t.rt_gvds) then
        invalid_arg (Printf.sprintf "Router.%s: %s is not a naming node" fn n))
    nodes

let rebalance t ~from nodes =
  let nodes = List.sort_uniq String.compare nodes in
  check_naming_nodes t "rebalance" nodes;
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
  check_naming_nodes t "reset_map" nodes;
  t.rt_map <- Shard_map.with_nodes t.rt_map nodes
