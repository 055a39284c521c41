(* Per-client-node lease cache of bind results.

   A hit lets a repeat bind skip every bind-time naming RPC (GetServer /
   Increment / GetView) and go straight to activation with the cached
   (SvA', StA). Safety does not depend on freshness: commit-time
   processing still reads the committed StA and validates its revision,
   and the object stores backward-validate the activation's base
   version, so a stale entry can
   only cost the client the paper's scheme-A "discover the dead server
   the hard way" path — a futile activation or a version-conflict abort,
   after which the entry is invalidated and the retry takes the full
   path. *)

type entry = {
  ce_impl : string;
  ce_servers : Net.Network.node_id list;
  ce_stores : Net.Network.node_id list;
  ce_expires : float; (* absolute sim time *)
}

type t = {
  bc_lease : float;
  bc_tbl : (Net.Network.node_id * int, entry) Hashtbl.t;
  bc_metrics : Sim.Metrics.t;
}

let create ~lease metrics =
  if lease <= 0.0 then invalid_arg "Bind_cache.create: lease must be positive";
  { bc_lease = lease; bc_tbl = Hashtbl.create 64; bc_metrics = metrics }

let key client uid = (client, Store.Uid.serial uid)

let find t ~now ~client uid =
  match Hashtbl.find_opt t.bc_tbl (key client uid) with
  | Some e when e.ce_expires >= now ->
      Sim.Metrics.incr t.bc_metrics "cache.hit";
      Some e
  | Some _ ->
      Hashtbl.remove t.bc_tbl (key client uid);
      Sim.Metrics.incr t.bc_metrics "cache.expired";
      Sim.Metrics.incr t.bc_metrics "cache.miss";
      None
  | None ->
      Sim.Metrics.incr t.bc_metrics "cache.miss";
      None

let fill t ~now ~client uid ~impl ~servers ~stores =
  Hashtbl.replace t.bc_tbl (key client uid)
    {
      ce_impl = impl;
      ce_servers = servers;
      ce_stores = stores;
      ce_expires = now +. t.bc_lease;
    }

let renew t ~now ~client uid =
  match Hashtbl.find_opt t.bc_tbl (key client uid) with
  | Some e ->
      Hashtbl.replace t.bc_tbl (key client uid)
        { e with ce_expires = now +. t.bc_lease }
  | None -> ()

let invalidate t ~client uid =
  if Hashtbl.mem t.bc_tbl (key client uid) then begin
    Hashtbl.remove t.bc_tbl (key client uid);
    Sim.Metrics.incr t.bc_metrics "cache.invalidations"
  end

let hit_rate t =
  let hits = Sim.Metrics.counter t.bc_metrics "cache.hit" in
  let misses = Sim.Metrics.counter t.bc_metrics "cache.miss" in
  if hits + misses = 0 then nan
  else float_of_int hits /. float_of_int (hits + misses)
