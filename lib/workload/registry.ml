type experiment = {
  id : string;
  paper_artefact : string;
  synopsis : string;
  runner : unit -> Table.t;
}

let all =
  [
    {
      id = "fig1-divergence";
      paper_artefact = "Figure 1, §2.3(2)";
      synopsis = "replica divergence: unreliable vs atomic group delivery";
      runner = (fun () -> Exp_fig1.run ());
    };
    {
      id = "fig2-single";
      paper_artefact = "Figure 2, §3.2(1)";
      synopsis = "non-replicated baseline availability under crash intensity";
      runner = (fun () -> Exp_availability.fig2 ());
    };
    {
      id = "fig3-repl-state";
      paper_artefact = "Figure 3, §3.2(2)";
      synopsis = "availability vs |St| under store churn (single-copy passive)";
      runner = (fun () -> Exp_availability.fig3 ());
    };
    {
      id = "fig4-repl-server";
      paper_artefact = "Figure 4, §3.2(3)";
      synopsis = "availability vs |Sv'| for active and coordinator-cohort";
      runner = (fun () -> Exp_availability.fig4 ());
    };
    {
      id = "fig5-general";
      paper_artefact = "Figure 5, §3.2(4)";
      synopsis = "availability surface over (|Sv|, |St|)";
      runner = (fun () -> Exp_availability.fig5 ());
    };
    {
      id = "fig6-standard";
      paper_artefact = "Figure 6, §4.1.2";
      synopsis = "scheme A: static Sv, futile binds, locks to commit";
      runner = (fun () -> Exp_schemes.fig6 ());
    };
    {
      id = "fig7-independent";
      paper_artefact = "Figure 7, §4.1.3(i)";
      synopsis = "scheme B: use lists, bind-time Remove, cleanup protocol";
      runner = (fun () -> Exp_schemes.fig7 ());
    };
    {
      id = "fig8-nested-toplevel";
      paper_artefact = "Figure 8, §4.1.3(ii)";
      synopsis = "scheme C: scheme B invoked from inside the client action";
      runner = (fun () -> Exp_schemes.fig8 ());
    };
    {
      id = "tab-schemes";
      paper_artefact = "§4.1-§4.2 (synthesis)";
      synopsis = "the three access schemes side by side";
      runner = (fun () -> Exp_schemes.comparison ());
    };
    {
      id = "tab-contention";
      paper_artefact = "§4.1.2 vs §4.1.3";
      synopsis = "database contention scaling: shared reads vs RMW binds";
      runner = (fun () -> Exp_contention.run ());
    };
    {
      id = "tab-exclude-lock";
      paper_artefact = "§4.2.1";
      synopsis = "exclude-write lock vs plain write promotion";
      runner = (fun () -> Exp_exclock.run ());
    };
    {
      id = "tab-read-opt";
      paper_artefact = "§4.2.1";
      synopsis = "read-only commits skip the state copy";
      runner = (fun () -> Exp_readopt.run ());
    };
    {
      id = "tab-checkpoint";
      paper_artefact = "§2.3(2)(ii) (ablation)";
      synopsis = "eager vs lazy coordinator-cohort checkpointing";
      runner = (fun () -> Exp_checkpoint.run ());
    };
    {
      id = "tab-scaling";
      paper_artefact = "§2.3(1), §4.1.2";
      synopsis = "replication degree changed under load";
      runner = (fun () -> Exp_scaling.run ());
    };
    {
      id = "tab-partition";
      paper_artefact = "§2.3(2)(i) (assumption probed)";
      synopsis = "a client partitioned from the naming service";
      runner = (fun () -> Exp_partition.run ());
    };
    {
      id = "tab-ns-outage";
      paper_artefact = "§3.1 (assumption relaxed)";
      synopsis = "crash and recovery of a durable naming service";
      runner = (fun () -> Exp_ns_outage.run ());
    };
    {
      id = "tab-ns-replicated";
      paper_artefact = "§3.1 (extension implemented)";
      synopsis = "primary-backup replication of the naming service";
      runner = (fun () -> Exp_ns_failover.run ());
    };
    {
      id = "tab-hybrid";
      paper_artefact = "§5";
      synopsis = "non-atomic name server + atomic state database";
      runner = (fun () -> Exp_hybrid.run ());
    };
    {
      id = "tab-shard-scaling";
      paper_artefact = "§3.1 (extension implemented)";
      synopsis = "naming tier sharded over N nodes; lease cache; online rebalance";
      runner = (fun () -> Exp_shard_scaling.run ());
    };
    {
      id = "tab-groupcommit";
      paper_artefact = "§2.3(3) (optimised)";
      synopsis = "group-commit: coalesced 2PC rounds per store";
      runner = (fun () -> Exp_groupcommit.run ());
    };
    {
      id = "tab-chaos";
      paper_artefact = "§2.3 safety obligations (validation)";
      synopsis = "seeded fault-injection schedules + consolidated invariant audit";
      runner = (fun () -> Exp_chaos.run ());
    };
    {
      id = "tab-brownout";
      paper_artefact = "§2.3(3) (robustness extension)";
      synopsis = "hedged vs unhedged commit latency under gray failure";
      runner = (fun () -> Exp_brownout.run ());
    };
    {
      id = "tab-autonomic";
      paper_artefact = "§4.2 (autonomic extension)";
      synopsis = "health-driven Exclude/Include of a browned store";
      runner = (fun () -> Exp_autonomic.run ());
    };
  ]

let find id = List.find_opt (fun e -> String.equal e.id id) all

let ids () = List.map (fun e -> e.id) all
