(* From runs to named metrics: the end-to-end metrics a user of the system
   sees, the per-layer metrics that explain them, and the fingerprint the
   determinism check compares between reps. *)

type better = Lower | Higher | Neither

type metric = {
  name : string;
  unit_ : string;
  better : better;
  value : float;
  note : string;  (** how the value was taken, for the printed report *)
}

let metric ?(note = "") name unit_ better value = { name; unit_; better; value; note }

(* Nearest-rank percentile of an unsorted sample, as Sim.Metrics takes it. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then nan
  else
    let s = Array.copy xs in
    Array.sort Float.compare s;
    s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

(* Quartile spread as a share of the median, by the inclusive method. *)
let iqr_share xs =
  let s = Array.of_list xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n < 2 then 0.0
  else
    let q p =
      let h = p *. float_of_int (n - 1) in
      let lo = int_of_float h in
      let hi = min (n - 1) (lo + 1) in
      s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))
    in
    let m = q 0.5 in
    if m = 0.0 then 0.0 else (q 0.75 -. q 0.25) /. m

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* --- what one rep produced, reduced to what the report needs --- *)

type rep = {
  run : Episode.run;
  factor : float;  (** scales the rep's CPU seconds to the reference host *)
  attempted : int;  (** actions run *)
  attempts : int;  (** with_bound calls, retries included *)
  committed : int;
  committed_writes : int;
  latencies : float array;  (** of committed actions *)
  full_vs : float;  (** virtual time the load was full *)
  full_commits : int;  (** commits completed in that time *)
  max_gap_vs : float;
  outcome_digest : string;
}

let reduce spec (inputs : Episode.inputs) (r : Episode.record) (run : Episode.run) ~factor =
  let committed = ref 0 and writes = ref 0 in
  Bytes.iteri
    (fun i c ->
      if c = 'c' then begin
        incr committed;
        if inputs.Episode.write.(i) then incr writes
      end)
    r.Episode.outcome;
  let lat = Array.make !committed 0.0 and done_at = Array.make !committed 0.0 in
  let k = ref 0 in
  Bytes.iteri
    (fun i c ->
      if c = 'c' then begin
        lat.(!k) <- r.Episode.latency.(i);
        done_at.(!k) <- r.Episode.finished.(i);
        incr k
      end)
    r.Episode.outcome;
  Array.sort Float.compare done_at;
  (* Service is judged while the load is full: until the last due time of
     an open loop, or until the first closed-loop client has finished, so
     the drain at the end (one client left, thinking) does not count as lost
     throughput. Gaps are taken from the first completion on, as nothing can
     complete before the first round trips. *)
  let full_until =
    match spec.Episode.arrival with
    | Episode.Open _ -> run.Episode.start +. inputs.Episode.pause.(inputs.Episode.n - 1)
    | Episode.Closed { clients; actions } ->
        let t = ref infinity in
        for c = 0 to clients - 1 do
          t := Float.min !t r.Episode.finished.(((c + 1) * actions) - 1)
        done;
        !t
  in
  let first = if Array.length done_at = 0 then full_until else done_at.(0) in
  let gap = ref 0.0 and prev = ref first and in_window = ref 0 in
  Array.iter
    (fun t ->
      if t <= full_until then begin
        gap := Float.max !gap (t -. !prev);
        prev := t;
        incr in_window
      end)
    done_at;
  let attempted =
    Bytes.fold_left (fun n c -> if c = '-' then n else n + 1) 0 r.Episode.outcome
  in
  {
    run;
    factor;
    attempted;
    attempts = Array.fold_left ( + ) 0 r.Episode.attempts;
    committed = !committed;
    committed_writes = !writes;
    latencies = lat;
    full_vs = full_until -. run.Episode.start;
    full_commits = !in_window;
    max_gap_vs = Float.max !gap (full_until -. !prev);
    outcome_digest =
      Digest.to_hex
        (Digest.string (Marshal.to_string (r.Episode.outcome, r.Episode.attempts, r.Episode.latency) []));
  }

(* Everything a rep computed that must not depend on the host. The traced
   rep allocates for its spans, so its minor words are left out. *)
let fingerprint ~traced rep =
  let f = Printf.sprintf "%.17g" and i = string_of_int in
  let run = rep.run in
  [
    ("outcomes and latencies", rep.outcome_digest);
    ("engine events", i run.Episode.events);
    ("live words", i run.Episode.live_words);
    ("audit violations", i (List.length run.Episode.violations));
    ("naming rounds per bind", f run.Episode.rounds_per_bind);
    ("batch members mean", f run.Episode.batch_members);
  ]
  @ (if traced then [] else [ ("minor words", f run.Episode.minor_words) ])
  @ List.map (fun (k, v) -> ("counter " ^ k, i v)) run.Episode.counters

let first_difference a b =
  let rec go = function
    | [], [] -> None
    | (k, v) :: xs, (k', v') :: ys ->
        if k = k' && v = v' then go (xs, ys)
        else Some (Printf.sprintf "%s = %s, but %s = %s" k v k' v')
    | (k, v) :: _, [] -> Some (Printf.sprintf "%s = %s, then missing" k v)
    | [], (k, v) :: _ -> Some (Printf.sprintf "%s missing, then %s = %s" k k v)
  in
  go (a, b)

(* --- pooling the episodes of a run --- *)

(* A run measures several episodes of one workload, each with its own seed
   and each repeated. Counts are summed over the episodes' first reps, so a
   run's deterministic metrics rest on that much more work than one
   episode's. *)
type pooled = {
  episodes : int;
  attempted : int;
  attempts : int;
  committed : int;
  committed_writes : int;
  latencies : float array;
  full_vs : float;
  full_commits : int;
  gaps : float list;  (** each episode's longest gap *)
  live_words : float list;  (** each episode's live heap *)
  minor_words : float;
  events : int;
  counters : (string * int) list;
  rounds_per_bind : float;
  batch_members : float;
  best_run_s : float;  (** {!fastest}, summed over the episodes *)
  rep_run_s : float list;  (** every rep's raw CPU seconds *)
  violations : string list;
}

let mean xs =
  match List.filter (fun x -> not (Float.is_nan x)) xs with
  | [] -> 0.0
  | ys -> List.fold_left ( +. ) 0.0 ys /. float_of_int (List.length ys)

(* Median with the middle pair averaged. *)
let median xs =
  let s = Array.of_list xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then nan else if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Run time of an episode on the reference host. Reps of one episode
   process the same events in the same order, so their slices line up; a
   burst of interference slows a slice in one rep, rarely the same slice in
   every rep, so each slice counts at its fastest. *)
let fastest reps =
  match reps with
  | [] -> nan
  | r :: _ ->
      let best = Array.map (fun s -> s *. r.factor) r.run.Episode.slices in
      List.iter
        (fun r ->
          Array.iteri (fun i s -> best.(i) <- Float.min best.(i) (s *. r.factor)) r.run.Episode.slices)
        reps;
      Array.fold_left ( +. ) 0.0 best

let pool (episodes : rep list list) =
  let firsts : rep list = List.map List.hd episodes in
  let sum f = List.fold_left (fun a r -> a + f r) 0 firsts in
  let sumf f = List.fold_left (fun a r -> a +. f r) 0.0 firsts in
  let counters =
    List.fold_left
      (fun acc r ->
        List.fold_left
          (fun acc (k, v) ->
            let prev = Option.value ~default:0 (List.assoc_opt k acc) in
            (k, prev + v) :: List.remove_assoc k acc)
          acc r.run.Episode.counters)
      [] firsts
    |> List.sort compare
  in
  {
    episodes = List.length episodes;
    attempted = sum (fun r -> r.attempted);
    attempts = sum (fun r -> r.attempts);
    committed = sum (fun r -> r.committed);
    committed_writes = sum (fun r -> r.committed_writes);
    latencies = Array.concat (List.map (fun (r : rep) -> r.latencies) firsts);
    full_vs = sumf (fun r -> r.full_vs);
    full_commits = sum (fun r -> r.full_commits);
    gaps = List.map (fun (r : rep) -> r.max_gap_vs) firsts;
    live_words = List.map (fun (r : rep) -> float_of_int r.run.Episode.live_words) firsts;
    minor_words = sumf (fun r -> r.run.Episode.minor_words);
    events = sum (fun r -> r.run.Episode.events);
    counters;
    rounds_per_bind = mean (List.map (fun r -> r.run.Episode.rounds_per_bind) firsts);
    batch_members = mean (List.map (fun r -> r.run.Episode.batch_members) firsts);
    best_run_s = List.fold_left (fun a reps -> a +. fastest reps) 0.0 episodes;
    rep_run_s = List.concat_map (List.map (fun r -> r.run.Episode.run_s)) episodes;
    violations =
      List.concat
        (List.mapi
           (fun e (r : rep) -> List.map (Printf.sprintf "episode %d: %s" e) r.run.Episode.violations)
           firsts);
  }

let counter p name = float_of_int (Option.value ~default:0 (List.assoc_opt name p.counters))

let counters_with_prefix p prefix =
  List.fold_left
    (fun acc (k, v) -> if String.starts_with ~prefix k then acc + v else acc)
    0 p.counters
  |> float_of_int

(* --- end-to-end metrics --- *)

let end_to_end ~setups p =
  let c = float_of_int p.committed in
  let spread xs = Printf.sprintf "IQR %.1f%%" (100.0 *. iqr_share xs) in
  [
    metric "setup_s" "s" Lower (median setups)
      ~note:
        (Printf.sprintf "median of %d, best %.6f, %s" (List.length setups)
           (List.fold_left Float.min infinity setups) (spread setups));
    metric "commits_per_cpu_s" "1/s" Higher (c /. p.best_run_s)
      ~note:
        (Printf.sprintf "fastest rep of each slice of %d episodes; %d reps, raw run time %s"
           p.episodes (List.length p.rep_run_s) (spread p.rep_run_s));
    metric "commits_per_vs" "1/vs" Higher
      (ratio (float_of_int p.full_commits) p.full_vs)
      ~note:(Printf.sprintf "%d commits in %.1f vs of full load" p.full_commits p.full_vs);
    metric "latency_p50_vs" "vs" Lower (percentile p.latencies 50.0)
      ~note:(Printf.sprintf "%d samples" (Array.length p.latencies));
    metric "latency_p99_vs" "vs" Lower (percentile p.latencies 99.0)
      ~note:(Printf.sprintf "%d samples beyond it" (Array.length p.latencies / 100));
    metric "attempts_per_commit" "count" Lower (float_of_int p.attempts /. c)
      ~note:
        (Printf.sprintf "%d attempts, %d of %d actions committed" p.attempts p.committed
           p.attempted);
    metric "msgs_per_commit" "count" Lower (counter p "net.msgs" /. c);
    metric "minor_words_per_commit" "words" Lower (p.minor_words /. c);
    metric "live_mb_end" "MB" Lower
      (median p.live_words *. float_of_int (Sys.word_size / 8) /. 1e6)
      ~note:"median over episodes";
  ]

(* --- per-layer metrics --- *)

type spans = { bind : float array; invoke : float array; commit : float array }

let spans (inputs : Episode.inputs) (r : Episode.record) =
  let pick f =
    let xs = ref [] in
    for i = inputs.Episode.n - 1 downto 0 do
      if Bytes.get r.Episode.outcome i = 'c' then xs := f i :: !xs
    done;
    Array.of_list !xs
  in
  {
    bind = pick (fun i -> r.Episode.t_body.(i) -. r.Episode.t_call.(i));
    invoke = pick (fun i -> r.Episode.t_invoked.(i) -. r.Episode.t_body.(i));
    commit = pick (fun i -> r.Episode.finished.(i) -. r.Episode.t_invoked.(i));
  }

(* [traced] is the traced rep of the first episode and [untraced_s] the
   median scaled run time of that episode's untraced reps. *)
let per_layer ~(costs : Probes.costs) ~traced ~untraced_s ~spans:sp p =
  let c = float_of_int p.committed in
  let per x = ratio x c in
  let k = counter p in
  let ns_per_commit = p.best_run_s *. 1e9 /. c in
  let events = float_of_int p.events in
  let grants = k "lock.granted" +. k "lock.granted_after_wait" in
  let store_rounds =
    k "rpc.op.store.prepare" +. k "rpc.op.store.prepare_batch" +. k "rpc.op.store.commit"
    +. k "rpc.op.store.commit_batch" +. k "rpc.op.store.abort"
  in
  let store_calls = counters_with_prefix p "rpc.op.store." in
  let actions = k "action.commits" +. k "action.aborts" in
  let naming_rpcs = counters_with_prefix p "rpc.op.gvd." in
  let share count ns = ratio (per count *. ns) ns_per_commit in
  let shares =
    [
      ("host.sim_share", share events costs.sim_ns);
      ("host.net_share", share (k "rpc.calls") costs.net_ns);
      ("host.lockmgr_share", share grants costs.lock_ns);
      ("host.store_share", share store_calls costs.store_ns);
      ("host.action_share", share actions costs.action_ns);
      ("host.naming_share", share naming_rpcs costs.naming_ns);
    ]
  in
  let unattributed = 1.0 -. List.fold_left (fun a (_, s) -> a +. s) 0.0 shares in
  let count name v = metric name "count" Neither v in
  let ns name v = metric name "ns" Neither v in
  let frac name v = metric name "ratio" Neither v in
  let vs name v = metric name "vs" Neither v in
  [
    count "sim.events_per_commit" (per events);
    ns "sim.cpu_ns_per_event" costs.sim_ns;
    metric "sim.minor_words_per_event" "words" Neither costs.sim_words;
    count "net.rpc_calls_per_commit" (per (k "rpc.calls"));
    count "net.scatters_per_commit" (per (k "rpc.scatters"));
    count "net.mcast_per_commit" (per (k "mcast.atomic" +. k "mcast.unreliable"));
    count "net.retries_per_commit" (per (k "retry.retries"));
    count "net.giveups" (k "retry.giveups");
    ns "net.cpu_ns_per_rpc_self" costs.net_ns;
    metric "net.minor_words_per_rpc" "words" Neither costs.net_words;
    count "lockmgr.grants_per_commit" (per grants);
    count "lockmgr.waits_per_commit" (per (k "lock.waited"));
    count "lockmgr.timeouts" (k "lock.timeout");
    ns "lockmgr.cpu_ns_per_op" costs.lock_ns;
    count "store.rounds_per_commit" (per store_rounds);
    count "store.reads_per_commit" (per (k "rpc.op.store.read"));
    ns "store.cpu_ns_per_op" costs.store_ns;
    frac "action.abort_ratio" (ratio (k "action.aborts") actions);
    count "action.resource_rounds_per_commit"
      (per (k "rpc.op.resource.prepare" +. k "rpc.op.resource.commit" +. k "rpc.op.resource.abort"));
    ns "action.cpu_ns_per_2pc_self" costs.action_ns;
    metric "replica.bytes_shipped_per_write" "bytes" Neither
      (ratio (k "commit.bytes_shipped") (float_of_int p.committed_writes));
    count "replica.batch_members_mean" p.batch_members;
    count "replica.floor_entries_per_commit" (per (k "groupcommit.floors_gossiped"));
    count "replica.activations_per_commit" (per (k "server.activations"));
    count "replica.lock_refusals_per_commit" (per (k "server.lock_refusals"));
    frac "replica.validate_conflict_ratio"
      (ratio (k "commit.validate_conflict") (k "commit.validate_ok" +. k "commit.validate_conflict"));
    frac "replica.delta_hit_ratio"
      (ratio (k "commit.delta_hits")
         (k "commit.delta_hits" +. k "commit.delta_fallbacks" +. k "commit.delta_oversize"));
    count "naming.rpcs_per_commit" (per naming_rpcs);
    count "naming.rounds_per_bind" p.rounds_per_bind;
    ns "naming.cpu_ns_per_op_self" costs.naming_ns;
    vs "span.bind_vs.p50" (percentile sp.bind 50.0);
    vs "span.bind_vs.p99" (percentile sp.bind 99.0);
    vs "span.invoke_vs.p50" (percentile sp.invoke 50.0);
    vs "span.invoke_vs.p99" (percentile sp.invoke 99.0);
    vs "span.commit_vs.p50" (percentile sp.commit 50.0);
    vs "span.commit_vs.p99" (percentile sp.commit 99.0);
    metric "host.trace_overhead_pct" "%" Neither
      (100.0 *. ((traced.run.Episode.run_s *. traced.factor) -. untraced_s) /. untraced_s);
  ]
  @ List.map (fun (n, v) -> frac n v) shares
  @ [
      frac "host.unattributed_share" unattributed;
      vs "max_gap_vs" (median p.gaps);
      frac "fail_ratio"
        (ratio (float_of_int (p.attempts - p.committed)) (float_of_int p.attempts));
      count "audit_violations" (float_of_int (List.length p.violations));
      metric "cpu_s_total" "s" Neither (List.fold_left ( +. ) 0.0 p.rep_run_s);
    ]
