(** Stable intention log for two-phase commit.

    Participants write {e prepare records} — the new states an action
    intends to install — before voting yes; coordinators write {e decision
    records} before telling anyone to commit (presumed abort: a missing
    decision record means the action aborted). Both record kinds live on
    stable storage and survive crashes; recovery replays them. *)

type decision = Commit | Abort

type t
(** One node's intention log. *)

val create : unit -> t

type prepare_record = {
  coordinator : string;  (** node hosting the decision record *)
  writes : (Uid.t * Object_state.t) list;
}

(* Participant side *)

val prepare :
  t -> action:string -> coordinator:string -> (Uid.t * Object_state.t) list -> unit
(** Record intended writes of [action] and who coordinates it. Several
    prepares for the same action {e merge}: an action touching many
    objects prepares each object's state as it reaches commit processing,
    and all of them must be applied together. A later write for the same
    UID replaces the earlier one. *)

val prepared : t -> action:string -> prepare_record option
(** The intended writes, if a prepare record exists. *)

val resolve : t -> action:string -> unit
(** Discard the prepare record (after commit application or abort). *)

val pending_writers : t -> Uid.t -> string list
(** Actions holding a prepare record that writes the given object; the
    store-side write reservation used to refuse conflicting prepares. *)

val in_doubt : t -> string list
(** Actions with outstanding prepare records, sorted; recovery must
    resolve each by consulting the coordinator's decision record. *)

(* Coordinator side *)

val record_decision : t -> action:string -> decision -> unit
(** Durably record the outcome of [action]. *)

val decision_of : t -> action:string -> decision option
(** Look up an outcome. [None] under presumed abort means {!Abort} if the
    action is known to have ended, "still running" otherwise — callers
    distinguish by protocol phase. *)

val forget_decision : t -> action:string -> unit
(** Garbage-collect a decision record once every participant resolved. *)
