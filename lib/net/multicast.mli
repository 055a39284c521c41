(** Group communication: unreliable multicast and reliable totally-ordered
    (atomic) multicast.

    §2.3(2) of the paper observes that replica groups need communication
    with reliability and ordering guarantees: all functioning members must
    receive the same messages in the same order, otherwise replicas diverge
    (Figure 1). This module provides both the broken primitive — per-member
    point-to-point sends that a sender crash can truncate — and the correct
    one, a sequencer-based atomic multicast [16].

    [cast_unreliable] iterates over members with a small inter-send gap, so
    a sender crash mid-iteration delivers to a prefix of the group: exactly
    the Figure-1 scenario. [cast_atomic] first transfers the message to a
    sequencer with a single send; once the sequencer holds it, delivery to
    every functioning member is guaranteed and totally ordered (per-member
    FIFO from a single sequencing point). *)

type t
(** Multicast runtime bound to one network. *)

type 'm channel
(** A typed group channel. Create one per logical group conversation and
    share it between senders and listeners. *)

val channel : string -> 'm channel
(** [channel name] is a fresh channel. *)

val create : Rpc.t -> t
(** [create rpc] is a multicast runtime sharing [rpc]'s network. The
    sequencer service is installed on nodes lazily by {!enable_sequencer}. *)

val listen :
  t -> node:Network.node_id -> 'm channel -> (seq:int -> 'm -> unit) -> unit
(** [listen t ~node ch h] installs [h] as [node]'s handler for messages on
    [ch]. [seq] is the sequencer-assigned total-order number, or [-1] for
    unreliable casts. The handler runs in a fiber on [node]. *)

val cast_unreliable :
  t -> from:Network.node_id -> members:Network.node_id list -> 'm channel -> 'm -> unit
(** [cast_unreliable t ~from ~members ch m] sends [m] to each member in
    turn with a small gap between sends; the sending fiber suspends at each
    gap, so a crash of [from] mid-cast truncates delivery. No ordering
    across senders. Must run in a fiber on [from]. *)

val enable_sequencer : t -> node:Network.node_id -> unit
(** Install the sequencing service on [node]. *)

val cast_atomic :
  t ->
  from:Network.node_id ->
  sequencer:Network.node_id ->
  members:Network.node_id list ->
  'm channel ->
  'm ->
  (int, Rpc.error) result
(** [cast_atomic t ~from ~sequencer ~members ch m] sends [m] through the
    sequencer: on success every member functioning at delivery time
    receives [m] with the returned sequence number, in the same relative
    order as every other atomic cast through that sequencer; if the single
    transfer to the sequencer fails, {e no} member receives it. Suspends
    the calling fiber until the sequencer acknowledges. *)
