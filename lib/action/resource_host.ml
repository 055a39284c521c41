type vote = Vote_yes | Vote_no | Vote_read_only

type manager = {
  m_prepare : scope:string -> action:string -> vote;
  m_commit : scope:string -> action:string -> unit;
  m_abort : scope:string -> action:string -> unit;
  m_transfer : scope:string -> action:string -> parent:string -> unit;
}

type req = { r_kind : string; r_scope : string; r_action : string; r_parent : string }

type t = {
  rpc_rt : Net.Rpc.t;
  managers : (Net.Network.node_id * string, manager) Hashtbl.t; (* by node and kind *)
  ep_prepare : (req, vote) Net.Rpc.endpoint;
  ep_commit : (req, unit) Net.Rpc.endpoint;
  ep_abort : (req, unit) Net.Rpc.endpoint;
  ep_transfer : (req, unit) Net.Rpc.endpoint;
}

let manager_exn t node kind =
  match Hashtbl.find t.managers (node, kind) with
  | m -> m
  | exception Not_found ->
      failwith (Printf.sprintf "Resource_host: no resource kind %s on %s" kind node)

let create rpc_rt =
  {
    rpc_rt;
    managers = Hashtbl.create 16;
    ep_prepare = Net.Rpc.endpoint "resource.prepare";
    ep_commit = Net.Rpc.endpoint "resource.commit";
    ep_abort = Net.Rpc.endpoint "resource.abort";
    ep_transfer = Net.Rpc.endpoint "resource.transfer";
  }

let serve_endpoints t node =
  Net.Rpc.serve t.rpc_rt ~node t.ep_prepare (fun r ->
      (manager_exn t node r.r_kind).m_prepare ~scope:r.r_scope ~action:r.r_action);
  Net.Rpc.serve t.rpc_rt ~node t.ep_commit (fun r ->
      (manager_exn t node r.r_kind).m_commit ~scope:r.r_scope ~action:r.r_action);
  Net.Rpc.serve t.rpc_rt ~node t.ep_abort (fun r ->
      (manager_exn t node r.r_kind).m_abort ~scope:r.r_scope ~action:r.r_action);
  Net.Rpc.serve t.rpc_rt ~node t.ep_transfer (fun r ->
      (manager_exn t node r.r_kind).m_transfer ~scope:r.r_scope ~action:r.r_action
        ~parent:r.r_parent)

let register t ~node ~kind m =
  if not (Net.Rpc.serving t.rpc_rt ~node t.ep_prepare) then serve_endpoints t node;
  Hashtbl.replace t.managers (node, kind) m

let abort_here t ~node ~kind ~scope ~action =
  (manager_exn t node kind).m_abort ~scope ~action

let req kind scope action parent =
  { r_kind = kind; r_scope = scope; r_action = action; r_parent = parent }

let prepare t ~from ~node ~kind ~scope ~action =
  Net.Rpc.call t.rpc_rt ~from ~dst:node t.ep_prepare (req kind scope action "")

let commit t ~from ~node ~kind ~scope ~action =
  Net.Rpc.call t.rpc_rt ~from ~dst:node t.ep_commit (req kind scope action "")

let abort t ~from ~node ~kind ~scope ~action =
  Net.Rpc.call t.rpc_rt ~from ~dst:node t.ep_abort (req kind scope action "")

let transfer t ~from ~node ~kind ~scope ~action ~parent =
  Net.Rpc.call t.rpc_rt ~from ~dst:node t.ep_transfer (req kind scope action parent)
