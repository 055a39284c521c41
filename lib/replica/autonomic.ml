(* The autonomic membership plane: one controller daemon per server node
   that watches the stores' latency health and drives the §4.2
   Exclude/Include protocols for gray failures the crash detector never
   sees.

   A crashed store excludes itself the moment a commit trips over it
   (§4.2's exclude-on-unreachable) and re-includes on recovery
   ({!Naming.Reintegration.attach_store_node}). A browned-out store does
   neither: it answers — slowly — so every commit keeps paying its tail
   until a hedge or a deadline rescues that one scatter. The controller
   closes the loop at the membership layer instead: probe the stores on a
   fixed cadence, feed a private latency tracker, and once a store has
   looked sustainedly slow for a full hysteresis window AND a quorum of
   controllers concurs, propose its Exclude through the validated round.
   When the store looks healthy again for the same window, trigger its
   catch-up re-Include, and damp the next Exclude with a cooldown so a
   flapping brownout cannot livelock membership.

   Decision doctrine, in order:
   - hysteresis: K consecutive probe rounds must flag the store
     ({!Net.Health.sustained_slow} on this controller's private tracker)
     before an Exclude is even considered — one slow round is noise;
   - quorum: at least [min (quorum, #controllers)] controllers must see
     the store slow {e right now} (small digest gossip over the
     [autonomic.digest] endpoint) — one observer behind a bad link must
     not shed a store the rest of the fleet reaches fine;
   - cooldown: a store re-Included at [t] cannot be re-Excluded before
     [t + cooldown] — flap damping;
   - safety is not this module's job: the Exclude itself validates the
     St revision inside its round and refuses to empty [St]
     ({!Gvd.exclude_validated} via the injected driver), and the
     re-Include runs the full catch-up fence before the store rejoins
     the commit set, so the controller can afford to be wrong.

   The plane lives in [lib/replica] but drives naming-tier protocols, so
   every naming-facing operation is injected ({!deps}) — tests fabricate
   the closures to unit-test the decision logic without a world.

   Off means off: nothing here runs unless {!attach} is called (the
   [Autonomic] gray-failure profile of {!Naming.Service.create}), and
   the plane draws no RNG, so worlds without it are byte-identical. *)

type config = {
  au_period : float;
  au_hysteresis : int;
  au_quorum : int;
  au_cooldown : float;
  au_slow_floor : float;
  au_probe_timeout : float;
}

let default_config =
  {
    au_period = 5.0;
    au_hysteresis = 3;
    au_quorum = 2;
    au_cooldown = 120.0;
    au_slow_floor = 8.0;
    au_probe_timeout = 10.0;
  }

type deps = {
  d_rpc : Net.Rpc.t;
  d_stores : Net.Network.node_id list;
  d_servers : Net.Network.node_id list;
  d_probe :
    from:Net.Network.node_id ->
    store:Net.Network.node_id ->
    (unit, Net.Rpc.error) result;
  d_exclude : from:Net.Network.node_id -> store:Net.Network.node_id -> int;
  d_include : store:Net.Network.node_id -> unit;
}

type ctrl = {
  c_node : Net.Network.node_id;
  c_health : Net.Health.t;
      (* private: this controller's own probe observations, so the quorum
         really is independent observers, not one shared tracker echoing
         itself *)
  c_streak : (Net.Network.node_id, int) Hashtbl.t;
      (* consecutive rounds a member store looked sustained-slow *)
  c_heal : (Net.Network.node_id, int) Hashtbl.t;
      (* consecutive rounds an excluded store looked healthy *)
  c_cooldown : (Net.Network.node_id, float) Hashtbl.t;
      (* no re-Exclude before this time (set at re-Include) *)
  mutable c_excluded : Net.Network.node_id list;
      (* stores this controller excluded and therefore owns re-Including *)
  mutable c_epoch : int; (* bumped by every membership change we drove *)
}

type t = {
  t_cfg : config;
  t_deps : deps;
  t_eng : Sim.Engine.t;
  t_net : Net.Network.t;
  t_metrics : Sim.Metrics.t;
  t_ep_digest : (unit, Net.Network.node_id list) Net.Rpc.endpoint;
  t_ctrls : (Net.Network.node_id, ctrl) Hashtbl.t;
}

let create ?(config = default_config) deps =
  let net = Net.Rpc.network deps.d_rpc in
  {
    t_cfg = config;
    t_deps = deps;
    t_eng = Net.Network.engine net;
    t_net = net;
    t_metrics = Net.Network.metrics net;
    t_ep_digest = Net.Rpc.endpoint "autonomic.digest";
    t_ctrls = Hashtbl.create 7;
  }

let config t = t.t_cfg

let tracef t fmt =
  Sim.Trace.recordf (Net.Network.trace t.t_net)
    ~now:(Sim.Engine.now t.t_eng) ~tag:"autonomic" fmt

let counter tbl store = Option.value ~default:0 (Hashtbl.find_opt tbl store)

(* The controller's slow verdict for one store. {!Net.Health}'s
   [sustained_slow] judges against the {e fleet} EWMA, which is right
   for a tracker fed by all traffic but self-normalizes here: the
   private tracker sees only probes, one per store per round, so a
   browned store in a two-store world drags the fleet EWMA up to half
   its own latency and ducks under the 3x bar. The second clause judges
   against the {e best} probed peer instead — a store three times
   slower than the healthiest store (and past the floor) is slow no
   matter how much of the fleet is sick with it. Timeouts and crashes
   have no latency to compare and flow through the first clause
   ([note_failure] drives the slow indicator straight up). *)
let store_slow t c ~now store =
  Net.Health.sustained_slow c.c_health ~now store
  || Net.Health.samples c.c_health store >= 4
     &&
     let mine = Net.Health.latency_ewma c.c_health store in
     let best =
       List.fold_left
         (fun acc s ->
           let e = Net.Health.latency_ewma c.c_health s in
           if s <> store && Net.Health.samples c.c_health s > 0 && e > 0.0 then
             Float.min acc e
           else acc)
         infinity t.t_deps.d_stores
     in
     best < infinity
     && mine > Float.max t.t_cfg.au_slow_floor (3.0 *. best)

(* What this controller tells a quorum-gathering peer: the stores that
   look slow to it right now. Deliberately the raw verdict, not the
   hysteresis streak — confirmations need not be phase-aligned with the
   asker's window. *)
let digest t c =
  let now = Sim.Engine.now t.t_eng in
  List.filter (fun s -> store_slow t c ~now s) t.t_deps.d_stores

(* One probe sweep: time a round-trip to every store and feed the
   verdict streaks. Probes fan out concurrently and the round waits at
   most [au_probe_timeout] for each — a browned store's 20-40s inflated
   round-trip must not stretch the round itself, or the hysteresis
   window (K rounds) silently becomes K sick-RTTs and detection crawls.
   A probe that misses the budget counts as a failure observation (the
   slow indicator jumps without a latency sample); its straggling fiber
   eventually completes and is ignored. *)
let probe_round t c =
  let started = Sim.Engine.now t.t_eng in
  let cells =
    List.map
      (fun store ->
        Sim.Metrics.incr t.t_metrics "autonomic.probes";
        let iv = Sim.Ivar.create () in
        Net.Network.spawn_on t.t_net c.c_node ~name:"autonomic-probe"
          (fun () ->
            let t0 = Sim.Engine.now t.t_eng in
            let r = t.t_deps.d_probe ~from:c.c_node ~store in
            ignore
              (Sim.Ivar.try_fill iv (r, Sim.Engine.now t.t_eng -. t0)));
        (store, iv))
      t.t_deps.d_stores
  in
  List.iter
    (fun (store, iv) ->
      let budget =
        Float.max 0.0
          (t.t_cfg.au_probe_timeout -. (Sim.Engine.now t.t_eng -. started))
      in
      match Sim.Ivar.read_timeout t.t_eng budget iv with
      | Ok (Ok (), latency) ->
          Net.Health.note_ok c.c_health ~dst:store
            ~now:(Sim.Engine.now t.t_eng) ~latency
      | Ok (Error _, _) ->
          Net.Health.note_failure c.c_health ~dst:store
            ~now:(Sim.Engine.now t.t_eng)
      | Error _ ->
          (* Missed the budget: a censored observation — the round-trip
             took {e at least} the budget. Feed it as a latency sample
             rather than a bare failure: the probe cadence is far slower
             than the traffic {!Net.Health} was tuned for, so the
             decaying slow indicator alone can sit below the sustained
             bar forever, while a latency EWMA pinned at the budget
             keeps both the floor test and the best-peer clause live.
             (This is why [au_probe_timeout] must exceed
             [au_slow_floor].) *)
          Net.Health.note_ok c.c_health ~dst:store
            ~now:(Sim.Engine.now t.t_eng)
            ~latency:t.t_cfg.au_probe_timeout)
    cells;
  let now = Sim.Engine.now t.t_eng in
  List.iter
    (fun store ->
      let slow = store_slow t c ~now store in
      if List.mem store c.c_excluded then
        Hashtbl.replace c.c_heal store
          (if slow then 0 else counter c.c_heal store + 1)
      else
        Hashtbl.replace c.c_streak store
          (if slow then counter c.c_streak store + 1 else 0))
    t.t_deps.d_stores

(* Ask the peer controllers whether they, too, see [store] slow. The
   effective quorum shrinks to the controller population so small worlds
   stay governable; an unreachable peer simply does not confirm. *)
let quorum_confirms t c store =
  let peers = List.filter (fun s -> s <> c.c_node) t.t_deps.d_servers in
  let confirms =
    List.fold_left
      (fun n peer ->
        match
          Net.Rpc.call t.t_deps.d_rpc ~from:c.c_node ~dst:peer t.t_ep_digest ()
        with
        | Ok slow when List.mem store slow -> n + 1
        | Ok _ | Error _ -> n)
      1 peers
  in
  (confirms, min t.t_cfg.au_quorum (List.length peers + 1))

let decide t c =
  let now = Sim.Engine.now t.t_eng in
  List.iter
    (fun store ->
      if List.mem store c.c_excluded then begin
        if counter c.c_heal store >= t.t_cfg.au_hysteresis then begin
          (* Healed: hand the store to the catch-up re-Include (it only
             rejoins [St] once its state clears the include fence) and
             arm the flap-damping cooldown. *)
          c.c_excluded <- List.filter (fun s -> s <> store) c.c_excluded;
          Hashtbl.replace c.c_heal store 0;
          Hashtbl.replace c.c_streak store 0;
          Hashtbl.replace c.c_cooldown store (now +. t.t_cfg.au_cooldown);
          c.c_epoch <- c.c_epoch + 1;
          Sim.Metrics.incr t.t_metrics "autonomic.includes";
          tracef t "%s re-includes healed store %s (epoch %d)" c.c_node store
            c.c_epoch;
          t.t_deps.d_include ~store
        end
      end
      else if counter c.c_streak store >= t.t_cfg.au_hysteresis then begin
        match Hashtbl.find_opt c.c_cooldown store with
        | Some until when now < until ->
            Sim.Metrics.incr t.t_metrics "autonomic.damped"
        | _ -> (
            match quorum_confirms t c store with
            | confirms, quorum when confirms < quorum ->
                Sim.Metrics.incr t.t_metrics "autonomic.quorum_refused"
            | _ ->
                let excluded =
                  t.t_deps.d_exclude ~from:c.c_node ~store
                in
                if excluded > 0 then begin
                  c.c_excluded <- store :: c.c_excluded;
                  Hashtbl.replace c.c_heal store 0;
                  c.c_epoch <- c.c_epoch + 1;
                  Sim.Metrics.incr t.t_metrics "autonomic.excludes";
                  tracef t "%s excludes slow store %s from %d objects (epoch %d)"
                    c.c_node store excluded c.c_epoch
                end
                else
                  (* Nothing to exclude: a commit's own §4.2 exclusion or
                     a peer controller beat us to every object (or the
                     store is the last copy everywhere). Reset the streak
                     so we do not re-propose every round. *)
                  Hashtbl.replace c.c_streak store 0)
      end)
    t.t_deps.d_stores

(* One controller tick, exposed for deterministic unit tests. *)
let tick t c =
  probe_round t c;
  decide t c

let attach t node =
  let c =
    {
      c_node = node;
      c_health = Net.Health.create ~slow_floor:t.t_cfg.au_slow_floor ();
      c_streak = Hashtbl.create 7;
      c_heal = Hashtbl.create 7;
      c_cooldown = Hashtbl.create 7;
      c_excluded = [];
      c_epoch = 0;
    }
  in
  Hashtbl.replace t.t_ctrls node c;
  Net.Rpc.serve t.t_deps.d_rpc ~node t.t_ep_digest (fun () -> digest t c);
  c

(* Spawn the controller daemon on [node], floor-gossip style: the idle
   wait is a {!Sim.Engine.daemon_sleep} so drain-mode runs ignore the
   parked daemon, a crash of the node kills the fiber with its group,
   and recovery re-arms it for the new incarnation (the ctrl record —
   the controller's stable storage — survives). *)
let start t node =
  let c =
    match Hashtbl.find_opt t.t_ctrls node with
    | Some c -> c
    | None -> attach t node
  in
  let spawn () =
    Net.Network.spawn_on t.t_net node ~name:"autonomic" (fun () ->
        let rec loop () =
          Sim.Engine.daemon_sleep t.t_eng t.t_cfg.au_period;
          tick t c;
          loop ()
        in
        loop ())
  in
  spawn ();
  Net.Network.on_recover t.t_net node spawn

(* {2 Introspection} *)

let controller t node = Hashtbl.find_opt t.t_ctrls node

let excluded t node =
  match controller t node with
  | Some c -> List.sort String.compare c.c_excluded
  | None -> []

let epoch t node =
  match controller t node with Some c -> c.c_epoch | None -> 0

let slow_streak t node store =
  match controller t node with
  | Some c -> counter c.c_streak store
  | None -> 0

let heal_streak t node store =
  match controller t node with
  | Some c -> counter c.c_heal store
  | None -> 0

let health t node = Option.map (fun c -> c.c_health) (controller t node)
