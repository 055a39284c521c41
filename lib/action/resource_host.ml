type manager = {
  m_prepare : action:string -> bool;
  m_commit : action:string -> unit;
  m_abort : action:string -> unit;
  m_transfer : action:string -> parent:string -> unit;
}

type req = { r_resource : string; r_action : string; r_parent : string }

type t = {
  rpc_rt : Net.Rpc.t;
  managers : (Net.Network.node_id * string, manager) Hashtbl.t;
  ep_prepare : (req, bool) Net.Rpc.endpoint;
  ep_commit : (req, unit) Net.Rpc.endpoint;
  ep_abort : (req, unit) Net.Rpc.endpoint;
  ep_transfer : (req, unit) Net.Rpc.endpoint;
}

let manager_exn t node resource =
  match Hashtbl.find_opt t.managers (node, resource) with
  | Some m -> m
  | None ->
      failwith
        (Printf.sprintf "Resource_host: no resource %s on %s" resource node)

let create rpc_rt =
  let t =
    {
      rpc_rt;
      managers = Hashtbl.create 16;
      ep_prepare = Net.Rpc.endpoint "resource.prepare";
      ep_commit = Net.Rpc.endpoint "resource.commit";
      ep_abort = Net.Rpc.endpoint "resource.abort";
      ep_transfer = Net.Rpc.endpoint "resource.transfer";
    }
  in
  t

let serve_endpoints t node =
  Net.Rpc.serve t.rpc_rt ~node t.ep_prepare (fun r ->
      (manager_exn t node r.r_resource).m_prepare ~action:r.r_action);
  Net.Rpc.serve t.rpc_rt ~node t.ep_commit (fun r ->
      (manager_exn t node r.r_resource).m_commit ~action:r.r_action);
  Net.Rpc.serve t.rpc_rt ~node t.ep_abort (fun r ->
      (manager_exn t node r.r_resource).m_abort ~action:r.r_action);
  Net.Rpc.serve t.rpc_rt ~node t.ep_transfer (fun r ->
      (manager_exn t node r.r_resource).m_transfer ~action:r.r_action
        ~parent:r.r_parent)

let register t ~node ~resource m =
  if not (Net.Rpc.serving t.rpc_rt ~node t.ep_prepare) then serve_endpoints t node;
  Hashtbl.replace t.managers (node, resource) m

let registered t ~node ~resource = Hashtbl.mem t.managers (node, resource)

let abort_here t ~node ~resource ~action =
  match Hashtbl.find_opt t.managers (node, resource) with
  | Some m -> m.m_abort ~action
  | None -> ()

let req resource action parent =
  { r_resource = resource; r_action = action; r_parent = parent }

let prepare t ~from ~node ~resource ~action =
  Net.Rpc.call t.rpc_rt ~from ~dst:node t.ep_prepare (req resource action "")

let commit t ~from ~node ~resource ~action =
  Net.Rpc.call t.rpc_rt ~from ~dst:node t.ep_commit (req resource action "")

let abort t ~from ~node ~resource ~action =
  Net.Rpc.call t.rpc_rt ~from ~dst:node t.ep_abort (req resource action "")

let transfer t ~from ~node ~resource ~action ~parent =
  Net.Rpc.call t.rpc_rt ~from ~dst:node t.ep_transfer (req resource action parent)
