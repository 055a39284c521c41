(** Experiment [tab-contention]: database contention scaling of the
    access schemes (§4.1.2 vs §4.1.3).

    The paper's stated advantage for scheme A is that [GetServer] "is a
    read operation, permitting shared access from within client actions" —
    many clients bind concurrently without queueing at the database. The
    flip side of schemes B/C is that every bind is a read-modify-write
    ([GetServer]+[Increment] under a write lock), serialising binders.

    Sweep the number of concurrent (read-only) clients (1..32) and report
    mean bind latency, mean RPC rounds per bind, and database lock waits
    per scheme. Historically scheme A stayed flat while B/C grew with the
    client count; with snapshot reads and the single-round batched bind
    the Increment is a Delta-mode append and both curves are near-flat,
    with every scheme paying one RPC round per bind (scheme A's locked
    GetServer and GetView are one {!Gvd.bind} request).

    A second block races write commits against membership churn: the
    commit validates a lock-free snapshot inside its prepare round and
    never queues behind the churn at the naming tier, so its
    [gvd.view_lock_waits] column reads 0. *)

val run : ?seed:int64 -> unit -> Table.t
