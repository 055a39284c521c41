(** Universal type used to carry heterogeneous payloads through the
    network layer without an unchecked cast.

    Each call to [embed] creates a fresh, private constructor; only the
    matching projection recovers the value. RPC endpoints and multicast
    channels each own one embedding, giving them type-safe wire payloads. *)

type t
(** A universally typed payload. *)

exception Mismatch
(** Raised by a projection given a payload of another embedding. *)

val embed : unit -> ('a -> t) * (t -> 'a)
(** [embed ()] is a fresh injection/projection pair. The projection
    returns the injected value itself, with no option to allocate, and
    raises {!Mismatch} on payloads created by any other embedding. *)
