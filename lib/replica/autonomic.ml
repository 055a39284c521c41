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
   looked sustainedly slow for a full hysteresis window, propose its
   Exclude through the validated round. When the store looks healthy
   again for the same window, trigger its catch-up re-Include.

   Decision doctrine:
   - hysteresis: K consecutive probe rounds must flag the store
     ({!Net.Health.sustained_slow} on this controller's private tracker)
     before an Exclude is even considered — one slow round is noise —
     and K consecutive healthy rounds must pass before an excluded store
     is re-Included, so a flapping brownout changes membership at most
     once per K rounds each way;
   - safety is not this module's job: the Exclude itself validates the
     St revision inside its round and refuses to empty [St]
     (an [Exclude] update with [~if_rev], via the injected [d_exclude]), and the
     re-Include runs the full catch-up fence before the store rejoins
     the commit set, so the controller can afford to be wrong.

   The plane lives in [lib/replica] but drives naming-tier protocols, so
   every naming-facing operation is injected ({!deps}) — tests fabricate
   the closures to unit-test the decision logic without a world.

   Off means off: nothing here runs unless {!attach} is called (the
   [Autonomic] gray-failure profile of {!Naming.Service.create}), and
   the plane draws no RNG, so worlds without it are byte-identical. *)

let period = 5.0
let hysteresis = 3

(* Must exceed {!Net.Health.slow_floor}: a probe that misses it is fed to
   the tracker as a latency of exactly this much (see [probe_round]). *)
let probe_timeout = 10.0

type deps = {
  d_net : Net.Network.t;
  d_stores : Net.Network.node_id list;
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
      (* private: this controller's own probe observations, apart from
         the traffic-fed tracker of the network *)
  c_streak : (Net.Network.node_id, int) Hashtbl.t;
      (* consecutive rounds a member store looked sustained-slow *)
  c_heal : (Net.Network.node_id, int) Hashtbl.t;
      (* consecutive rounds an excluded store looked healthy *)
  mutable c_excluded : Net.Network.node_id list;
      (* stores this controller excluded and therefore owns re-Including *)
  mutable c_epoch : int; (* bumped by every membership change we drove *)
}

type t = {
  t_deps : deps;
  t_eng : Sim.Engine.t;
  t_net : Net.Network.t;
  t_metrics : Sim.Metrics.t;
  t_ctrls : (Net.Network.node_id, ctrl) Hashtbl.t;
}

let create deps =
  let net = deps.d_net in
  {
    t_deps = deps;
    t_eng = Net.Network.engine net;
    t_net = net;
    t_metrics = Net.Network.metrics net;
    t_ctrls = Hashtbl.create 7;
  }

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
     && mine > Float.max Net.Health.slow_floor (3.0 *. best)

(* One probe sweep: time a round-trip to every store and feed the
   verdict streaks. Probes fan out concurrently and the round waits at
   most [probe_timeout] for each — a browned store's 20-40s inflated
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
          (probe_timeout -. (Sim.Engine.now t.t_eng -. started))
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
             (This is why [probe_timeout] must exceed
             {!Net.Health.slow_floor}.) *)
          Net.Health.note_ok c.c_health ~dst:store
            ~now:(Sim.Engine.now t.t_eng)
            ~latency:probe_timeout)
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

let decide t c =
  List.iter
    (fun store ->
      if List.mem store c.c_excluded then begin
        if counter c.c_heal store >= hysteresis then begin
          (* Healed: hand the store to the catch-up re-Include (it only
             rejoins [St] once its state clears the include fence). *)
          c.c_excluded <- List.filter (fun s -> s <> store) c.c_excluded;
          Hashtbl.replace c.c_heal store 0;
          Hashtbl.replace c.c_streak store 0;
          c.c_epoch <- c.c_epoch + 1;
          Sim.Metrics.incr t.t_metrics "autonomic.includes";
          tracef t "%s re-includes healed store %s (epoch %d)" c.c_node store
            c.c_epoch;
          t.t_deps.d_include ~store
        end
      end
      else if counter c.c_streak store >= hysteresis then begin
        let excluded = t.t_deps.d_exclude ~from:c.c_node ~store in
        if excluded > 0 then begin
          c.c_excluded <- store :: c.c_excluded;
          Hashtbl.replace c.c_heal store 0;
          c.c_epoch <- c.c_epoch + 1;
          Sim.Metrics.incr t.t_metrics "autonomic.excludes";
          tracef t "%s excludes slow store %s from %d objects (epoch %d)"
            c.c_node store excluded c.c_epoch
        end
        else
          (* Nothing to exclude: a commit's own §4.2 exclusion or a peer
             controller beat us to every object (or the store is the last
             copy everywhere). Reset the streak so we do not re-propose
             every round. *)
          Hashtbl.replace c.c_streak store 0
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
      c_health = Net.Health.create ();
      c_streak = Hashtbl.create 7;
      c_heal = Hashtbl.create 7;
      c_excluded = [];
      c_epoch = 0;
    }
  in
  Hashtbl.replace t.t_ctrls node c;
  c

(* Spawn the controller daemon on [node]: the idle wait is a
   {!Sim.Engine.daemon_sleep} so drain-mode runs ignore the parked daemon,
   a crash of the node kills the fiber with its group, and recovery
   re-arms it for the new incarnation (the ctrl record — the controller's
   stable storage — survives). *)
let start t node =
  let c =
    match Hashtbl.find_opt t.t_ctrls node with
    | Some c -> c
    | None -> attach t node
  in
  let spawn () =
    Net.Network.spawn_on t.t_net node ~name:"autonomic" (fun () ->
        let rec loop () =
          Sim.Engine.daemon_sleep t.t_eng period;
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
