(** The three database access schemes of §4.1–4.2. *)

type t =
  | Standard
      (** Figure 6: [GetServer]/[GetView] run as nested actions of the
          client action; read locks are held to the top-level commit
          (to phase 2 if the action wrote, to its read-only prepare if
          not);
          [SvA] is static — dead servers are discovered "the hard way" at
          every bind. *)
  | Independent
      (** Figure 7: the client manipulates the databases in separate
          top-level actions before and after its own action, maintaining
          use lists, removing dead servers at bind time and decrementing
          afterwards. Database locks are held only briefly; a client crash
          leaves orphaned counters for the cleanup protocol. *)
  | Nested_toplevel
      (** Figure 8: as [Independent], but the database actions are
          top-level actions started from {e inside} the client action. *)

val to_string : t -> string
val of_string : string -> t option
val all : t list
val pp : Format.formatter -> t -> unit
