(** Lock modes and their compatibility matrix.

    Besides classic [Read]/[Write], the paper introduces a type-specific
    {e exclude-write} mode (§4.2.1): it is compatible with [Read] — so a
    committing client can exclude crashed store nodes from [StA] while
    other clients still hold read locks on the entry — but conflicts with
    [Write] and with other [Exclude_write] holders.

    [Delta] is a second type-specific mode, for the use-list counters of
    §4.1.3: increments and decrements of per-client counters commute, so
    concurrent binders need not serialise behind each other. [Delta] is
    compatible with [Read] and with other [Delta] holders but conflicts
    with [Write] (structural [SvA] changes — [Insert]/[Remove] — must see
    a stable counter set) and with [Exclude_write]. Holders of [Delta]
    must confine themselves to commuting counter updates, staged as
    operation-based (redo) records rather than before-images — restoring
    a before-image would erase a concurrent holder's committed delta. *)

type t = Read | Delta | Write | Exclude_write

val compatible : t -> t -> bool
(** [compatible held requested]: can [requested] be granted alongside
    [held]? The matrix is symmetric:
    - [Read]∥[Read], [Read]∥[Delta] and [Read]∥[Exclude_write] are
      compatible;
    - [Delta]∥[Delta] is compatible (commuting counter updates);
    - everything involving [Write] conflicts;
    - [Exclude_write]∥[Exclude_write] and [Exclude_write]∥[Delta]
      conflict. *)

val strongest : t -> t -> t
(** The stronger of two modes in the total order [Read] < [Delta] <
    [Exclude_write] < [Write]. *)

val covers : t -> t -> bool
(** [covers held requested]: a holder of [held] needs no new lock to
    perform a [requested]-mode access. [Write] covers everything; a mode
    covers itself and everything weaker. *)

val equal : t -> t -> bool
val to_string : t -> string
val pp : Format.formatter -> t -> unit
