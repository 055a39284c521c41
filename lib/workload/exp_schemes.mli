(** Experiments [fig6-standard], [fig7-independent],
    [fig8-nested-toplevel] and the side-by-side [tab-schemes]: the
    behavioural trade-offs of the three database access schemes (§4.1).

    Common workload: several clients repeatedly bind to one object
    (active replication over two server nodes) and run short read/write
    actions, while
    - one server node crashes and later recovers (exercising futile binds
      under the static-Sv standard scheme, bind-time [Remove] under the
      other two, and the recovery [Insert]'s wait for quiescence);
    - one client crashes while bound (leaving orphaned use counters under
      schemes B/C for the cleanup daemon, but only briefly-held locks
      under scheme A, which termination aborts once the client is
      reported dead).

    Reported per scheme: commit rate, mean bind latency, futile bind
    attempts, dead-server removals, database lock waits, database
    operation count, server reintegration delay, orphaned counters
    cleaned. The paper's qualitative claims:

    - scheme A pays futile binds (stale [SvA]) and holds database read
      locks for whole actions (so recovery [Insert] waits for the lock),
      but issues the fewest database operations;
    - schemes B/C keep [SvA] fresh (no futile binds) at the cost of extra
      top-level database actions per client action and a cleanup protocol
      for crashed clients' counters;
    - B and C behave alike, differing only in where the database actions
      are invoked from. *)

type result = {
  r_scheme : Naming.Scheme.t;
  r_attempts : int;
  r_commits : int;
  r_bind_mean : float;
  r_futile : int;
  r_removed_dead : int;
  r_db_ops : int;
  r_db_lock_waits : int;
  r_insert_delay : float;
  r_orphans : int;
}

val run_scheme : ?seed:int64 -> Naming.Scheme.t -> result
(** Run the common workload under one scheme. *)

val fig6 : ?seed:int64 -> unit -> Table.t
val fig7 : ?seed:int64 -> unit -> Table.t
val fig8 : ?seed:int64 -> unit -> Table.t
val comparison : ?seed:int64 -> unit -> Table.t
