(** Experiment [tab-groupcommit]: group-commit round coalescing by
    client count.

    Synchronised waves of disjoint-object writes over a shared two-store
    [St], from 1 to 8 clients. A lone client's batches are singletons and
    pay one prepare and one phase-2 round per store each; with more
    clients, batched commits pay those rounds once for the whole batch, so
    store RPC rounds per commit drop with the batch size. *)

type sample = {
  g_commits : int;
  g_store_rpcs : int;
  g_rounds : float;  (** store RPC rounds per commit *)
  g_batches : int;
  g_mean_members : float;
  g_peels : int;
  g_pulled : int;  (** windows closed early by quiescence-pull *)
}

val episode : clients:int -> unit -> sample
(** One run; [clients = 1] is the solo baseline. *)

val round_reduction : ?clients:int -> unit -> float * sample * sample
(** [(1-client rounds/commit) / (rounds/commit at clients)] for [clients]
    (default 8) writers, plus both samples. The test suite pins this at
    >= 1.5x — the acceptance criterion of the group-commit plane. *)

val run : unit -> Table.t
