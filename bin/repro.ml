(* Command-line driver for the reproduction: list and run the experiments
   that regenerate the paper's figures, or run a demonstration scenario
   with a full trace dump. *)

open Cmdliner

let list_cmd =
  let doc = "List every experiment (table/figure) the harness can regenerate." in
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-22s %-22s %s\n" e.Workload.Registry.id
          e.Workload.Registry.paper_artefact e.Workload.Registry.synopsis)
      Workload.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc = "Run one experiment by id (see $(b,list)), or $(b,all)." in
  let id =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"experiment id")
  in
  let run id =
    if String.equal id "all" then begin
      List.iter
        (fun e -> Workload.Table.print (e.Workload.Registry.runner ()))
        Workload.Registry.all;
      `Ok ()
    end
    else
      match Workload.Registry.find id with
      | Some e ->
          Workload.Table.print (e.Workload.Registry.runner ());
          `Ok ()
      | None ->
          `Error
            ( false,
              Printf.sprintf "unknown experiment %S; try: %s" id
                (String.concat ", " ("all" :: Workload.Registry.ids ())) )
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(ret (const run $ id))

let demo_cmd =
  let doc =
    "Run a small end-to-end scenario (bind, invoke, crash, exclude, recover, \
     re-include) and dump the protocol trace."
  in
  let scheme_arg =
    let parse s =
      match Naming.Scheme.of_string s with
      | Some v -> Ok v
      | None -> Error (`Msg (Printf.sprintf "unknown scheme %S" s))
    in
    let print ppf s = Naming.Scheme.pp ppf s in
    Arg.(
      value
      & opt (conv (parse, print)) Naming.Scheme.Standard
      & info [ "scheme" ] ~docv:"SCHEME"
          ~doc:"database access scheme: standard, independent, nested-toplevel")
  in
  let run scheme =
    let open Naming in
    let w =
      Service.create ~seed:7L
        {
          Service.gvd_node = "ns";
          gvd_nodes = [];
          server_nodes = [ "alpha" ];
          store_nodes = [ "beta1"; "beta2" ];
          client_nodes = [ "client" ];
        }
    in
    Sim.Trace.set_enabled (Service.trace w) true;
    let uid =
      Service.create_object w ~name:"account" ~impl:"account"
        ~sv:[ "alpha" ] ~st:[ "beta1"; "beta2" ] ()
    in
    Service.run ~until:1.0 w;
    let eng = Service.engine w in
    let net = Service.network w in
    Service.spawn_client w "client" (fun () ->
        (match
           Service.with_bound w ~client:"client" ~scheme
             ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
               Printf.printf "deposit 100 -> %s\n"
                 (Service.invoke w group ~act "deposit 100");
               (* beta2 dies mid-action: commit must exclude it. *)
               Net.Network.crash net "beta2";
               Sim.Engine.sleep eng 2.0)
         with
        | Ok () -> print_endline "action committed (beta2 excluded)"
        | Error e -> Printf.printf "action aborted: %s\n" e);
        Printf.printf "St after commit: [%s]\n"
          (String.concat "; " (Naming.Gvd.current_st (Service.gvd w) uid)));
    Sim.Engine.schedule eng ~delay:40.0 (fun () -> Net.Network.recover net "beta2");
    Service.run w;
    Printf.printf "St after recovery: [%s]\n"
      (String.concat "; " (Naming.Gvd.current_st (Service.gvd w) uid));
    print_endline "--- protocol trace ---";
    Sim.Trace.pp Format.std_formatter (Service.trace w)
  in
  Cmd.v (Cmd.info "demo" ~doc) Term.(const run $ scheme_arg)

let audit_cmd =
  let doc =
    "Run the accounting audit: random clients, schemes and node churn; \
     verify exactly-once application and store mutual consistency; exit \
     non-zero if any trial mismatches."
  in
  let seeds =
    Arg.(value & opt int 20 & info [ "trials" ] ~docv:"N" ~doc:"number of seeded trials")
  in
  let run trials =
    let bad = ref 0 in
    for seed = 1 to trials do
      let r = Workload.Audit.counter_stress ~seed:(Int64.of_int (seed * 7919)) () in
      if not (Workload.Audit.exact r) then begin
        incr bad;
        Format.printf "seed=%d %a@." seed Workload.Audit.pp_report r
      end
    done;
    if !bad = 0 then begin
      Printf.printf "audit: %d/%d trials exact\n" trials trials;
      `Ok ()
    end
    else begin
      Printf.printf "audit: %d/%d trials MISMATCHED\n" !bad trials;
      `Error (false, "accounting audit failed (see the reports above)")
    end
  in
  Cmd.v (Cmd.info "audit" ~doc) Term.(ret (const run $ seeds))

let chaos_cmd =
  let doc =
    "Run the deterministic chaos harness (tab-chaos) over seeded fault \
     schedules; exit non-zero, echoing the failing seed and its minimized \
     schedule, if any invariant audit fails."
  in
  let seeds =
    Arg.(
      value
      & opt (list int64) Workload.Exp_chaos.default_seeds
      & info [ "seeds" ] ~docv:"SEEDS"
          ~doc:"comma-separated seeds to replay (default: the CI smoke set)")
  in
  let run seeds =
    let table, clean = Workload.Exp_chaos.run_check ~seeds () in
    Workload.Table.print table;
    if clean then `Ok () else `Error (false, "chaos audit failed (see notes above)")
  in
  Cmd.v (Cmd.info "chaos" ~doc) Term.(ret (const run $ seeds))

let main =
  let doc =
    "Reproduction of Little, McCue & Shrivastava, \"Maintaining Information \
     about Persistent Replicated Objects in a Distributed System\" (ICDCS \
     1993)."
  in
  Cmd.group
    (Cmd.info "repro" ~version:"1.0.0" ~doc)
    [ list_cmd; run_cmd; demo_cmd; audit_cmd; chaos_cmd ]

let () = exit (Cmd.eval main)
