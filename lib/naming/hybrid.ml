type t = {
  binder : Binder.t;
  ns_node : Net.Network.node_id;
  sets : (int, Net.Network.node_id list) Hashtbl.t;
  ep_servers : (Store.Uid.t, Net.Network.node_id list) Net.Rpc.endpoint;
}

let art t =
  Replica.Server.atomic_runtime
    (Replica.Group.server_runtime (Binder.group_runtime t.binder))

let rpc t = Action.Atomic.rpc (art t)

let install binder ~node =
  let t =
    {
      binder;
      ns_node = node;
      sets = Hashtbl.create 32;
      ep_servers = Net.Rpc.endpoint "hybrid.servers";
    }
  in
  Net.Rpc.serve (rpc t) ~node t.ep_servers (fun uid ->
      Option.value ~default:[] (Hashtbl.find_opt t.sets (Store.Uid.serial uid)));
  t

let register t ~from:_ ~uid ~sv = Hashtbl.replace t.sets (Store.Uid.serial uid) sv

let servers t ~from uid = Net.Rpc.call (rpc t) ~from ~dst:t.ns_node t.ep_servers uid

(* The hybrid bind's naming-tier reads: the lightweight name server's
   [Sv] set, the database's [impl], and [St] under the nested-action read
   lock. They leave as one {!Sim.Join} scatter: the three pieces are
   independent (each separately locked, all asked for in read mode, none
   feeding another), with the [St] lock still owned by the nested action
   and held to top-level end. Join tasks return values; only the nested
   fiber raises. *)
let hybrid_reads t ~act ~client uid =
  let router = Binder.router t.binder in
  let read_sv () =
    match servers t ~from:client uid with
    | Ok sv -> Ok sv
    | Error e -> Error (Net.Rpc.error_to_string e)
  in
  let read_impl () =
    match Router.entry_info router ~from:client uid with
    | Ok (Some info) -> Ok info.Gvd.ei_impl
    | Ok None -> Error "unknown object"
    | Error e -> Error (Net.Rpc.error_to_string e)
  in
  let read_st nested =
    Router.read router ~act:nested uid Gvd.Stores
    |> Result.map (fun v -> v.Gvd.v_stores)
    |> Result.map_error Router.failure_to_string
  in
  Action.Atomic.atomically_nested act (fun nested ->
      let results =
        Sim.Join.all
          (Action.Atomic.engine (art t))
          [
            (fun () -> `Sv (read_sv ()));
            (fun () -> `Impl (read_impl ()));
            (fun () -> `St (read_st nested));
          ]
      in
      let sv = ref None and impl = ref None and st = ref None in
      List.iter
        (function
          | `Sv r -> sv := Some r
          | `Impl r -> impl := Some r
          | `St r -> st := Some r)
        results;
      match (!sv, !impl, !st) with
      | Some (Ok sv), Some (Ok impl), Some (Ok st) -> (sv, impl, st)
      | Some (Error why), _, _
      | _, Some (Error why), _
      | _, _, Some (Error why) ->
          raise (Action.Atomic.Abort why)
      | _ -> raise (Action.Atomic.Abort "pipelined bind: missing read"))

let bind t ~act ~uid ~policy =
  match hybrid_reads t ~act ~client:(Action.Atomic.node act) uid with
  | Error why -> Error (Binder.Name_refused why)
  | Ok (servers, impl, stores) ->
      Binder.bind_static t.binder ~act ~uid ~policy ~impl ~servers ~stores
