(** Unique identifiers for persistent objects.

    §2.2: the Object Storage service assigns each object a UID; the naming
    service maps user-given string names to UIDs and UIDs to location
    information. A UID pairs a serial number (uniqueness) with the
    user-given label (trace readability). UIDs are allocated from an
    explicit {!supply} so that simulations are deterministic and
    independent of test execution order. *)

type t
(** A unique object identifier. *)

type supply
(** A deterministic allocator of UIDs. *)

val supply : unit -> supply
(** A fresh allocator starting at serial 0. *)

val fresh : supply -> label:string -> t
(** [fresh s ~label] allocates the next UID, tagged with [label]. *)

val serial : t -> int
(** The allocation serial number. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val to_string : t -> string
(** ["label#serial"], e.g. ["account#3"]. It is computed once, by
    {!fresh}, so every call returns the same string without building
    it. *)

val pp : Format.formatter -> t -> unit
