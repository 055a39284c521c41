type node_id = string

exception Unknown_node of node_id

(* A crash watch is a node of its target's intrusive doubly linked watch
   list, newest first, so [unwatch] is an O(1) unlink. A watch outside the
   list links to itself and holds no neighbour alive. *)
type watch = {
  w_action : unit -> unit;
  mutable w_prev : watch;
  mutable w_next : watch;
}

type node = {
  id : node_id;
  mutable up : bool;
  mutable inc : int;
  mutable grp : Sim.Engine.group;
  mutable crash_hooks : (unit -> unit) list; (* newest first *)
  mutable recover_hooks : (unit -> unit) list; (* newest first *)
  watches : watch; (* sentinel of the live watch list *)
  fifo_last : (node_id, float ref) Hashtbl.t;
      (* per-source last FIFO delivery time *)
}

(* Directed per-link fault rule. Absent entry = healthy link: the lookup
   miss is the fast path and performs no RNG draws, which keeps fault-free
   worlds byte-identical to builds without the fault plane. *)
type link_fault = {
  mutable f_drop : float; (* P(message silently dropped) *)
  mutable f_dup : float; (* P(second copy delivered later) *)
  mutable f_reorder : float; (* P(delivery delayed past later sends) *)
  mutable f_spike_p : float; (* P(latency spike added) *)
  mutable f_spike : float; (* spike magnitude, time units *)
  mutable f_cut : bool; (* one-way partition src->dst *)
}

(* Per-node service-time inflation (a brownout): the node is up, votes and
   answers, but each message it serves (or sends) may queue behind a slow
   scheduler. Distinct from a link spike — it follows the node across all
   of its links. *)
type brownout = {
  bo_prob : float; (* P(a given message is inflated) *)
  bo_lo : float;
  bo_hi : float; (* inflation magnitude, uniform in [lo, hi] *)
}

type gray_failure = Hedged | Autonomic

type t = {
  eng : Sim.Engine.t;
  nodes : (node_id, node) Hashtbl.t;
  latency : Sim.Rng.t -> float;
  detect_delay : float;
  net_rng : Sim.Rng.t;
  fault_rng : Sim.Rng.t;
  net_trace : Sim.Trace.t;
  net_metrics : Sim.Metrics.t;
  mutable partitions : (node_id * node_id) list;
  faults : (node_id * node_id, link_fault) Hashtbl.t;
  brownouts : (node_id, brownout) Hashtbl.t;
  mutable dup_ever : bool;
  msgs : Sim.Metrics.handle;
  net_health : Health.t;
  gray : gray_failure option;
}

let default_latency rng = Sim.Rng.uniform rng 0.5 1.5

(* Derive an independent stream from [base] without advancing it: copy,
   draw the copy once, and spread with the label hash. Deterministic from
   the engine seed, zero perturbation of [base]'s own stream. *)
let derive_stream base label =
  let b = Sim.Rng.int64 (Sim.Rng.copy base) in
  let h = Int64.of_int (Hashtbl.hash label) in
  Sim.Rng.create (Int64.logxor b (Int64.mul h 0x9E3779B97F4A7C15L))

let create ?(latency = default_latency) ?(detect_delay = 1.0) ?gray_failure
    eng =
  let net_rng = Sim.Rng.split (Sim.Engine.rng eng) in
  let net_metrics = Sim.Metrics.create () in
  {
    eng;
    nodes = Hashtbl.create 16;
    latency;
    detect_delay;
    net_rng;
    fault_rng = derive_stream net_rng "fault";
    net_trace = Sim.Trace.create ~enabled:false ();
    net_metrics;
    partitions = [];
    faults = Hashtbl.create 8;
    brownouts = Hashtbl.create 4;
    dup_ever = false;
    msgs = Sim.Metrics.handle net_metrics "net.msgs";
    net_health = Health.create ();
    gray = gray_failure;
  }

let derive_rng t label = derive_stream t.net_rng label

let engine t = t.eng
let trace t = t.net_trace
let metrics t = t.net_metrics
let health t = t.net_health
let gray_failure t = t.gray
let hedged t = Option.is_some t.gray

(* Replica preference under a profile: healthiest first, ties (and every
   candidate while health has nothing to say) in the caller's order. *)
let rank t nodes = Health.rank t.net_health ~now:(Sim.Engine.now t.eng) nodes
let rank_servers t nodes = if hedged t then rank t nodes else nodes

let rank_stores t nodes =
  match t.gray with Some Autonomic -> rank t nodes | None | Some Hedged -> nodes

let node t id =
  match Hashtbl.find t.nodes id with
  | n -> n
  | exception Not_found -> raise (Unknown_node id)

let unlinked_watch action =
  let rec w = { w_action = action; w_prev = w; w_next = w } in
  w

let unlink w =
  w.w_prev.w_next <- w.w_next;
  w.w_next.w_prev <- w.w_prev;
  w.w_prev <- w;
  w.w_next <- w

let add_node t id =
  if Hashtbl.mem t.nodes id then
    invalid_arg (Printf.sprintf "Network.add_node: duplicate node %s" id);
  Hashtbl.add t.nodes id
    {
      id;
      up = true;
      inc = 0;
      grp = Sim.Engine.new_group t.eng;
      crash_hooks = [];
      recover_hooks = [];
      watches = unlinked_watch ignore;
      fifo_last = Hashtbl.create 4;
    }

let node_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.nodes [] |> List.sort String.compare

let is_up t id = (node t id).up
let incarnation t id = (node t id).inc

let spawn_on t id ?name f =
  let n = node t id in
  if n.up then Sim.Engine.spawn t.eng ~group:n.grp ?name f

let record t tag fmt = Sim.Trace.recordf t.net_trace ~now:(Sim.Engine.now t.eng) ~tag fmt

let crash t id =
  let n = node t id in
  if n.up then begin
    n.up <- false;
    record t "net" "crash %s (inc %d)" id n.inc;
    Sim.Metrics.incr t.net_metrics "net.crashes";
    Sim.Engine.kill_group t.eng n.grp;
    List.iter (fun f -> f ()) (List.rev n.crash_hooks);
    (* Fire crash watches after the detection delay, modelling the failure
       detector's notification latency. *)
    let rec fire w =
      if w != n.watches then begin
        let next = w.w_next in
        unlink w;
        Sim.Engine.schedule t.eng ~delay:t.detect_delay w.w_action;
        fire next
      end
    in
    fire n.watches.w_next
  end

let recover t id =
  let n = node t id in
  if not n.up then begin
    n.up <- true;
    n.inc <- n.inc + 1;
    n.grp <- Sim.Engine.new_group t.eng;
    record t "net" "recover %s (inc %d)" id n.inc;
    Sim.Metrics.incr t.net_metrics "net.recoveries";
    let hooks = List.rev n.recover_hooks in
    Sim.Engine.spawn t.eng ~group:n.grp ~name:(id ^ ".recover") (fun () ->
        List.iter (fun f -> f ()) hooks)
  end

let on_crash t id f =
  let n = node t id in
  n.crash_hooks <- f :: n.crash_hooks

let on_recover t id f =
  let n = node t id in
  n.recover_hooks <- f :: n.recover_hooks

let pair a b = if String.compare a b <= 0 then (a, b) else (b, a)

let set_partitioned t a b flag =
  let p = pair a b in
  let without = List.filter (fun q -> q <> p) t.partitions in
  t.partitions <- (if flag then p :: without else without)

let partitioned t a b =
  match t.partitions with [] -> false | ps -> List.mem (pair a b) ps

(* -- Message-level fault plane ----------------------------------------- *)

let find_fault t ~src ~dst =
  if Hashtbl.length t.faults = 0 then None
  else Hashtbl.find_opt t.faults (src, dst)

let ensure_fault t ~src ~dst =
  match find_fault t ~src ~dst with
  | Some fl -> fl
  | None ->
      let fl =
        {
          f_drop = 0.0;
          f_dup = 0.0;
          f_reorder = 0.0;
          f_spike_p = 0.0;
          f_spike = 0.0;
          f_cut = false;
        }
      in
      Hashtbl.add t.faults (src, dst) fl;
      fl

let fault_blank fl =
  fl.f_drop = 0.0 && fl.f_dup = 0.0 && fl.f_reorder = 0.0
  && fl.f_spike_p = 0.0 && not fl.f_cut

let drop_if_blank t ~src ~dst fl =
  if fault_blank fl then Hashtbl.remove t.faults (src, dst)

let set_link_fault t ?(drop = 0.0) ?(dup = 0.0) ?(reorder = 0.0)
    ?(spike_prob = 0.0) ?(spike = 0.0) ~src ~dst () =
  let fl = ensure_fault t ~src ~dst in
  if dup > 0.0 then t.dup_ever <- true;
  fl.f_drop <- drop;
  fl.f_dup <- dup;
  fl.f_reorder <- reorder;
  fl.f_spike_p <- spike_prob;
  fl.f_spike <- spike;
  record t "fault" "link %s->%s drop=%.2f dup=%.2f reorder=%.2f spike=%.2f@p%.2f"
    src dst drop dup reorder spike spike_prob;
  drop_if_blank t ~src ~dst fl

let clear_link_fault t ~src ~dst =
  match find_fault t ~src ~dst with
  | None -> ()
  | Some fl ->
      fl.f_drop <- 0.0;
      fl.f_dup <- 0.0;
      fl.f_reorder <- 0.0;
      fl.f_spike_p <- 0.0;
      fl.f_spike <- 0.0;
      record t "fault" "link %s->%s healed" src dst;
      drop_if_blank t ~src ~dst fl

let set_oneway_cut t ~src ~dst flag =
  (match find_fault t ~src ~dst with
  | None when not flag -> ()
  | _ ->
      let fl = ensure_fault t ~src ~dst in
      if fl.f_cut <> flag then
        record t "fault" "oneway %s->%s %s" src dst
          (if flag then "cut" else "restored");
      fl.f_cut <- flag;
      drop_if_blank t ~src ~dst fl);
  ()

let oneway_cut t ~src ~dst =
  match find_fault t ~src ~dst with Some fl -> fl.f_cut | None -> false

let set_brownout t ?(prob = 0.2) ~lo ~hi node =
  ignore (Hashtbl.mem t.nodes node || raise (Unknown_node node));
  Hashtbl.replace t.brownouts node { bo_prob = prob; bo_lo = lo; bo_hi = hi };
  record t "fault" "brownout %s p=%.2f +[%.1f,%.1f]" node prob lo hi

let clear_brownout t node =
  if Hashtbl.mem t.brownouts node then begin
    Hashtbl.remove t.brownouts node;
    record t "fault" "brownout %s healed" node
  end

(* Sum the service-time inflation a message suffers at each browned-out
   endpoint (slow to serve inbound mail, slow to push outbound mail).
   Draws come from [fault_rng] only when a brownout is installed, so
   healthy worlds take the no-entry fast path with zero extra draws. *)
let brownout_extra t ~src ~dst =
  if Hashtbl.length t.brownouts = 0 then 0.0
  else
    let one node =
      match Hashtbl.find_opt t.brownouts node with
      | Some bo when Sim.Rng.bool t.fault_rng bo.bo_prob ->
          let extra = Sim.Rng.uniform t.fault_rng bo.bo_lo bo.bo_hi in
          record t "fault" "brownout %s +%.2f" node extra;
          Sim.Metrics.incr t.net_metrics "fault.brownout";
          extra
      | _ -> 0.0
    in
    let d = one dst in
    let s = if src = dst then 0.0 else one src in
    d +. s

let clear_all_faults t =
  if Hashtbl.length t.faults > 0 then begin
    Hashtbl.reset t.faults;
    record t "fault" "all message faults cleared"
  end;
  if Hashtbl.length t.brownouts > 0 then begin
    Hashtbl.reset t.brownouts;
    record t "fault" "all brownouts cleared"
  end

let dup_ever t = t.dup_ever

let reachable t src dst =
  (node t dst).up
  && (not (partitioned t src dst))
  && not (oneway_cut t ~src ~dst)

let sample_latency t = t.latency t.net_rng

(* Delivery: the message is "in the wire" for one latency sample; at
   delivery time it runs on the destination only if the destination is up
   and the pair is unpartitioned (and the directed link not cut) at that
   moment. The destination may have crashed and recovered while the message
   was in flight — it is then delivered to the new incarnation, as a real
   network would. The receiver runs inside the delivery event: a [fiber]
   receiver starts its fiber there (it may suspend), any other runs as a
   plain callback. *)
let deliver t ~fiber ~src ~dst ~delay f =
  Sim.Engine.schedule t.eng ~delay (fun () ->
      let n = node t dst in
      if n.up && not (partitioned t src dst) then
        if oneway_cut t ~src ~dst then begin
          record t "fault" "cut drop %s->%s (one-way partition)" src dst;
          Sim.Metrics.incr t.net_metrics "fault.cut_dropped"
        end
        else if fiber then Sim.Engine.start t.eng ~group:n.grp ~name:(src ^ "->" ^ dst) f
        else f ()
      else begin
        record t "net" "drop %s->%s (dst down or partitioned)" src dst;
        Sim.Metrics.incr t.net_metrics "net.dropped"
      end)

(* Apply per-link message faults. Invariant: every [send] consumes exactly
   one [net_rng] latency draw whether or not a rule is installed, so
   installing a fault on one link never shifts the latency stream observed
   by other links. All fault decisions draw from the independent
   [fault_rng] stream. *)
let transmit t ~fiber ~src ~dst f =
  Sim.Metrics.bump t.msgs;
  let delay = sample_latency t in
  let delay = delay +. brownout_extra t ~src ~dst in
  match find_fault t ~src ~dst with
  | None -> deliver t ~fiber ~src ~dst ~delay f
  | Some fl ->
      if fl.f_drop > 0.0 && Sim.Rng.bool t.fault_rng fl.f_drop then begin
        record t "fault" "drop %s->%s (injected)" src dst;
        Sim.Metrics.incr t.net_metrics "fault.drop"
      end
      else begin
        let delay =
          if fl.f_spike_p > 0.0 && Sim.Rng.bool t.fault_rng fl.f_spike_p
          then begin
            record t "fault" "delay %s->%s +%.2f" src dst fl.f_spike;
            Sim.Metrics.incr t.net_metrics "fault.delay";
            delay +. fl.f_spike
          end
          else delay
        in
        let delay =
          if fl.f_reorder > 0.0 && Sim.Rng.bool t.fault_rng fl.f_reorder
          then begin
            let extra = Sim.Rng.uniform t.fault_rng 1.0 3.0 in
            record t "fault" "reorder %s->%s (held %.2f, later sends overtake)"
              src dst extra;
            Sim.Metrics.incr t.net_metrics "fault.reorder";
            delay +. extra
          end
          else delay
        in
        if fl.f_dup > 0.0 && Sim.Rng.bool t.fault_rng fl.f_dup then begin
          record t "fault" "dup %s->%s" src dst;
          Sim.Metrics.incr t.net_metrics "fault.dup";
          deliver t ~fiber ~src ~dst
            ~delay:(delay +. Sim.Rng.uniform t.fault_rng 0.1 1.0)
            f
        end;
        deliver t ~fiber ~src ~dst ~delay f
      end

let send t ~src ~dst f = transmit t ~fiber:true ~src ~dst f
let reply t ~src ~dst f = transmit t ~fiber:false ~src ~dst f

(* FIFO sends model the sequencer's reliable ordered channel: drop, dup and
   reorder would violate its contract (PROTOCOLS §11), so only delay spikes
   and cuts apply here. *)
let send_fifo t ~src ~dst f =
  Sim.Metrics.bump t.msgs;
  let n = node t dst in
  let last =
    match Hashtbl.find_opt n.fifo_last src with
    | Some r -> r
    | None ->
        let r = ref neg_infinity in
        Hashtbl.add n.fifo_last src r;
        r
  in
  let now = Sim.Engine.now t.eng in
  let lat = sample_latency t in
  let lat = lat +. brownout_extra t ~src ~dst in
  let lat =
    match find_fault t ~src ~dst with
    | Some fl when fl.f_spike_p > 0.0 && Sim.Rng.bool t.fault_rng fl.f_spike_p
      ->
        record t "fault" "delay %s->%s +%.2f (fifo)" src dst fl.f_spike;
        Sim.Metrics.incr t.net_metrics "fault.delay";
        lat +. fl.f_spike
    | _ -> lat
  in
  let arrival = Float.max (now +. lat) (!last +. 1e-6) in
  last := arrival;
  deliver t ~fiber:true ~src ~dst ~delay:(arrival -. now) f

let watch_crash t id f =
  let n = node t id in
  let w = unlinked_watch f in
  if n.up then begin
    let s = n.watches in
    w.w_next <- s.w_next;
    w.w_prev <- s;
    s.w_next.w_prev <- w;
    s.w_next <- w
  end
  else
    (* Already down: notify after the detection delay. *)
    Sim.Engine.schedule t.eng ~delay:t.detect_delay f;
  w

let unwatch _t w = unlink w
