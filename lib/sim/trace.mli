(** Structured event trace.

    Components append timestamped, tagged entries; tests and experiment
    harnesses query the trace to assert protocol behaviour ("no client bound
    to an excluded store", "coordinator elected exactly once"). A trace
    records only once {!set_enabled} turns it on. *)

type entry = {
  at : float;  (** virtual time of the event *)
  tag : string;  (** component tag, e.g. ["rpc"], ["gvd"], ["2pc"] *)
  detail : string;  (** human-readable description *)
}

type t
(** A trace sink. *)

val create : unit -> t
(** [create ()] is an empty trace, not recording. *)

val set_enabled : t -> bool -> unit
(** Toggle recording. Disabled traces drop entries with no allocation
    beyond the call itself. *)

val enabled : t -> bool
(** Whether [t] records. A hot call site checks it before {!recordf}, so
    a disabled trace costs the site one test and no allocation. *)

val record : t -> now:float -> tag:string -> string -> unit
(** [record t ~now ~tag detail] appends one entry. *)

val recordf :
  t -> now:float -> tag:string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Formatted variant of {!record}. When the trace is disabled nothing is
    rendered, but the call still costs what OCaml's argument passing
    costs: every argument is evaluated before the call, and the skipped
    format allocates a closure per argument. Guard a hot call site with
    {!enabled} instead. *)

val entries : t -> entry list
(** All entries in chronological (append) order. *)

val with_tag : t -> string -> entry list
(** Entries whose [tag] equals the argument, in order. *)

val count : t -> tag:string -> int
(** Number of entries with the given tag. *)

val find : t -> tag:string -> substring:string -> entry list
(** Entries with the given tag whose detail contains [substring]. *)

val pp : Format.formatter -> t -> unit
(** Render the whole trace, one entry per line. *)
