(** Experiment [tab-checkpoint]: coordinator-cohort checkpointing policy
    (an ablation of §2.3(2)(ii)).

    The paper says the coordinator "regularly checkpoints its state to
    the remaining replicas" without fixing the frequency. Two policies
    are compared under identical coordinator churn:

    - {e eager} (per invocation): a failover mid-action finds the staged
      updates checkpointed at the cohort and the client's action
      continues seamlessly;
    - {e lazy} (at action ends only): mid-action failovers lose the
      staged updates; the promoted cohort detects the gap through the
      client's last-acknowledged serial and answers [State_lost], and the
      action aborts rather than silently dropping updates.

    Besides the random churn of [k1], every tenth action crashes [k1]
    1.0 after its first update for 30.0 when [k1] is the live
    coordinator, so each policy meets mid-action failovers whatever the
    churn's timing; the [injected] column counts them.

    The trade is checkpoint traffic against availability of in-progress
    actions. *)

val run : ?seed:int64 -> unit -> Table.t
