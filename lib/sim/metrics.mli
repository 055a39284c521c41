(** Experiment metric collection: counters and sample distributions.

    One registry is threaded through an experiment; every component
    increments named counters ([binds.futile], [commit.abort], ...) or
    records samples ([bind.latency]). The workload harness turns registries
    into the rows reported in EXPERIMENTS.md. *)

type t
(** A metrics registry. *)

val create : unit -> t
(** A fresh, empty registry. *)

val incr : t -> ?by:int -> string -> unit
(** [incr t name] adds [by] (default 1) to the counter [name], creating it
    at zero if absent. *)

type handle
(** A counter resolved once, for hot paths that bump the same counter on
    every call. *)

val handle : t -> string -> handle
(** [handle t name] is a handle on counter [name] of [t]. The counter is
    created at the handle's first {!bump}, so an unbumped handle leaves
    {!counters} unchanged. *)

val bump : handle -> unit
(** [bump h] is [incr t name] without the name lookup. *)

val counter : t -> string -> int
(** Current value of counter [name]; 0 if never incremented. *)

val observe : t -> string -> float -> unit
(** [observe t name v] appends sample [v] to the distribution [name]. *)

val samples : t -> string -> float list
(** All samples recorded under [name], oldest first. *)

val mean : t -> string -> float
(** Mean of the samples under [name]; [nan] if none. *)

val percentile : t -> string -> float -> float
(** [percentile t name p] is the [p]-th percentile (0..100, nearest-rank)
    of the samples under [name]; [nan] if none. *)

val max_sample : t -> string -> float
(** Largest sample under [name]; [nan] if none. *)

val sample_count : t -> string -> int
(** Number of samples under [name]. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val distributions : t -> string list
(** Names of all distributions, sorted. *)

val merge_into : dst:t -> t -> unit
(** [merge_into ~dst src] adds all of [src]'s counters and samples into
    [dst]; used to aggregate repeated trials. *)

val pp : Format.formatter -> t -> unit
(** Render counters and distribution summaries. *)
