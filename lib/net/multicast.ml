type 'm channel = {
  ch_name : string;
  inject : 'm -> Univ.t;
  project : Univ.t -> 'm option;
}

let channel name =
  let inject, project = Univ.embed () in
  { ch_name = name; inject; project }

type seq_request = {
  sr_channel : string;
  sr_members : Network.node_id list;
  sr_payload : Univ.t;
}

type t = {
  rpc : Rpc.t;
  listeners : (Network.node_id * string, seq:int -> Univ.t -> unit) Hashtbl.t;
  sequence : (string, int ref) Hashtbl.t; (* per channel, at the sequencer *)
  seq_endpoint : (seq_request, int) Rpc.endpoint;
}

let create rpc =
  {
    rpc;
    listeners = Hashtbl.create 32;
    sequence = Hashtbl.create 8;
    seq_endpoint = Rpc.endpoint "multicast.sequencer";
  }

let listen t ~node ch h =
  let raw ~seq payload =
    match ch.project payload with
    | Some m -> h ~seq m
    | None ->
        failwith
          (Printf.sprintf "Multicast.listen: payload mismatch on %s@%s"
             ch.ch_name node)
  in
  Hashtbl.replace t.listeners (node, ch.ch_name) raw

let net t = Rpc.network t.rpc

let deliver t ~fifo ~src ~dst ~ch_name ~seq payload =
  let send = if fifo then Network.send_fifo else Network.send in
  send (net t) ~src ~dst (fun () ->
      match Hashtbl.find_opt t.listeners (dst, ch_name) with
      | None -> ()
      | Some raw -> raw ~seq payload)

(* The inter-send gap makes partial delivery on sender crash possible: the
   sending fiber suspends between point-to-point sends, so a kill of its
   group truncates the iteration — the Figure-1 failure mode. *)
let inter_send_gap = 0.01

let cast_unreliable t ~from ~members ch m =
  let eng = Network.engine (net t) in
  let payload = ch.inject m in
  List.iter
    (fun dst ->
      deliver t ~fifo:false ~src:from ~dst ~ch_name:ch.ch_name ~seq:(-1) payload;
      Sim.Engine.sleep eng inter_send_gap)
    members;
  Sim.Metrics.incr (Network.metrics (net t)) "mcast.unreliable"

let next_seq t ch_name =
  let r =
    match Hashtbl.find_opt t.sequence ch_name with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.add t.sequence ch_name r;
        r
  in
  incr r;
  !r

let enable_sequencer t ~node =
  Rpc.serve t.rpc ~node t.seq_endpoint (fun sr ->
      let seq = next_seq t sr.sr_channel in
      (* Scatter the sequenced copy to every member through the join
         primitive: all point-to-point sends are issued at the same
         virtual instant (no inter-send gap), which is exactly what makes
         the sequencer atomic where {!cast_unreliable} is not. *)
      ignore
        (Sim.Join.all
           (Network.engine (net t))
           (List.map
              (fun dst () ->
                deliver t ~fifo:true ~src:node ~dst ~ch_name:sr.sr_channel
                  ~seq sr.sr_payload)
              sr.sr_members));
      seq)

let cast_atomic t ~from ~sequencer ~members ch m =
  Sim.Metrics.incr (Network.metrics (net t)) "mcast.atomic";
  Rpc.call t.rpc ~from ~dst:sequencer t.seq_endpoint
    { sr_channel = ch.ch_name; sr_members = members; sr_payload = ch.inject m }
