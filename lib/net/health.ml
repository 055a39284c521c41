(* Per-destination latency health, the gray-failure counterpart of the
   failure detector. Crashes are binary and the detector answers them;
   a browned-out node — alive enough to vote, slow enough to drag every
   scatter — needs a *score*. On a hedged network ({!Network.health}),
   every RPC completion feeds one sample here (pure arithmetic on the
   virtual clock: no RNG draws, no events); its consumers are the hedged
   scatter delay and health-ordered replica preference. Each autonomic
   controller keeps a tracker of its own. *)

(* Both records are all-float, so OCaml stores their fields unboxed and
   updating a sample allocates nothing; the sample counts are floats for
   that reason (exact far beyond any run's length). *)
type dest = {
  mutable d_ewma : float; (* smoothed round-trip latency *)
  mutable d_dev : float; (* smoothed mean absolute deviation *)
  mutable d_slow : float; (* EWMA of the slow-call indicator, in [0,1] *)
  mutable d_samples : float;
  mutable d_last : float; (* virtual time of the newest sample *)
}

type fleet = {
  mutable g_ewma : float; (* fleet-wide smoothed latency *)
  mutable g_dev : float;
  mutable g_samples : float;
}

type t = { dests : (string, dest) Hashtbl.t; fleet : fleet }

let alpha = 0.2
let slow_floor = 8.0
let tau = 60.0 (* slow-score decay constant *)
let hedge_floor = 4.0

let create () =
  {
    dests = Hashtbl.create 16;
    fleet = { g_ewma = 0.0; g_dev = 0.0; g_samples = 0.0 };
  }

let dest t dst =
  match Hashtbl.find t.dests dst with
  | d -> d
  | exception Not_found ->
      let d =
        { d_ewma = 0.0; d_dev = 0.0; d_slow = 0.0; d_samples = 0.0; d_last = neg_infinity }
      in
      Hashtbl.add t.dests dst d;
      d

(* A destination that stopped being sampled must not stay condemned
   forever: the slow score decays toward 0 with time constant [tau], so
   health recovers even while nobody calls. *)
let decayed_slow d ~now =
  if d.d_samples = 0.0 then 0.0
  else
    let dt = now -. d.d_last in
    if dt <= 0.0 then d.d_slow else d.d_slow *. exp (-.dt /. tau)

(* A call is slow relative to the fleet, not to its own destination: a
   node that is *always* three times slower than everyone else must keep
   scoring as slow (judging it against its own EWMA would normalize the
   sickness away). The floor keeps cold starts and sub-latency noise from
   flagging anything. *)
let slow_threshold t =
  let f = t.fleet in
  Float.max slow_floor (3.0 *. (if f.g_samples = 0.0 then 0.0 else f.g_ewma))

(* The first sample of a series is taken as is; later ones blend in. *)
let[@inline] blend ~first prev x =
  if first then x else ((1.0 -. alpha) *. prev) +. (alpha *. x)

let note_slow d ~now ~slow =
  d.d_slow <-
    blend ~first:(d.d_samples = 0.0) (decayed_slow d ~now)
      (if slow then 1.0 else 0.0)

let count_sample d ~now =
  d.d_samples <- d.d_samples +. 1.0;
  d.d_last <- now

let[@inline] note_latency t ~dst ~now latency =
  let slow = latency > slow_threshold t in
  let d = dest t dst in
  note_slow d ~now ~slow;
  let first = d.d_samples = 0.0 in
  d.d_dev <- blend ~first d.d_dev (Float.abs (latency -. d.d_ewma));
  d.d_ewma <- blend ~first d.d_ewma latency;
  let f = t.fleet in
  let first = f.g_samples = 0.0 in
  f.g_dev <- blend ~first f.g_dev (Float.abs (latency -. f.g_ewma));
  f.g_ewma <- blend ~first f.g_ewma latency;
  f.g_samples <- f.g_samples +. 1.0;
  count_sample d ~now

let note_ok t ~dst ~now ~latency = note_latency t ~dst ~now latency

(* The latency is worked out here, unboxed: a caller that holds the
   clock's two readings passes their existing boxes and allocates
   nothing. *)
let note_round_trip t ~dst ~sent ~now = note_latency t ~dst ~now (now -. sent)

(* A transport failure (timeout, crash detection) says nothing about how
   fast the destination serves when it does answer — it is the failure
   detector's business — but a timeout IS a slow call from the caller's
   seat, so it feeds the slow indicator without polluting the latency
   EWMA. *)
let note_failure t ~dst ~now =
  let d = dest t dst in
  note_slow d ~now ~slow:true;
  count_sample d ~now

let samples t dst = int_of_float (dest t dst).d_samples
let latency_ewma t dst = (dest t dst).d_ewma

let slow_score t ~now dst =
  match Hashtbl.find_opt t.dests dst with
  | None -> 0.0
  | Some d -> decayed_slow d ~now

(* Health in [0,1]: 1 = no evidence of sickness. An unknown destination
   scores 1.0 — absence of evidence ranks it with the healthy, and the
   stable sort keeps the caller's order among ties, preserving the
   paper's replica-preference semantics when nothing distinguishes the
   candidates. *)
let score t ~now dst =
  match Hashtbl.find_opt t.dests dst with
  | None -> 1.0
  | Some d when d.d_samples = 0.0 -> 1.0
  | Some d ->
      let slow = decayed_slow d ~now in
      let f = t.fleet in
      let base = if f.g_samples = 0.0 || f.g_ewma <= 0.0 then 1.0
        else Float.min 1.0 (f.g_ewma /. Float.max f.g_ewma d.d_ewma) in
      (1.0 -. slow) *. base

let rank t ~now nodes =
  List.stable_sort
    (fun a b -> Float.compare (score t ~now b) (score t ~now a))
    nodes

(* Sustained slowness — what the autonomic controllers act on. Requires
   a real streak (several samples, decayed indicator past the bar), so
   one unlucky round trip cannot condemn a healthy destination. *)
let sustained_slow_bar = 0.6
let sustained_slow_min_samples = 4.0

let sustained_slow t ~now dst =
  match Hashtbl.find_opt t.dests dst with
  | None -> false
  | Some d ->
      d.d_samples >= sustained_slow_min_samples
      && decayed_slow d ~now >= sustained_slow_bar

(* The hedge delay: how long to give the primary before the backup
   launches. Fleet mean plus three deviations approximates a high
   percentile of the healthy latency distribution — long enough that a
   healthy primary almost always wins (hedges stay rare), short enough
   that a browned-out primary forfeits quickly. The floor covers the
   cold-start world where nothing has been measured yet. *)
let hedge_delay t =
  let f = t.fleet in
  if f.g_samples < 8.0 then hedge_floor
  else Float.max hedge_floor (f.g_ewma +. (3.0 *. f.g_dev))
