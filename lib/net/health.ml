(* Per-destination latency health, the gray-failure counterpart of the
   failure detector. Crashes are binary and the detector answers them;
   a browned-out node — alive enough to vote, slow enough to drag every
   scatter — needs a *score*. Every RPC completion feeds one sample here
   (pure arithmetic on the virtual clock: no RNG draws, no events, so the
   always-on bookkeeping leaves fault-free worlds byte-identical). The
   consumers are Retry's degraded breaker trips, the hedged scatter delay,
   and health-ordered replica preference — all live only under a
   gray-failure profile ({!Network.gray_failure}). *)

type dest = {
  mutable d_ewma : float; (* smoothed round-trip latency *)
  mutable d_dev : float; (* smoothed mean absolute deviation *)
  mutable d_slow : float; (* EWMA of the slow-call indicator, in [0,1] *)
  mutable d_samples : int;
  mutable d_last : float; (* virtual time of the newest sample *)
}

type t = {
  dests : (string, dest) Hashtbl.t;
  mutable g_ewma : float; (* fleet-wide smoothed latency *)
  mutable g_dev : float;
  mutable g_samples : int;
  slow_floor : float;
  tau : float; (* slow-score decay constant *)
}

let alpha = 0.2

let create ?(slow_floor = 8.0) ?(tau = 60.0) () =
  { dests = Hashtbl.create 16; g_ewma = 0.0; g_dev = 0.0; g_samples = 0; slow_floor; tau }

let dest t dst =
  match Hashtbl.find_opt t.dests dst with
  | Some d -> d
  | None ->
      let d =
        { d_ewma = 0.0; d_dev = 0.0; d_slow = 0.0; d_samples = 0; d_last = neg_infinity }
      in
      Hashtbl.add t.dests dst d;
      d

(* A destination that stopped being sampled must not stay condemned
   forever: the slow score decays toward 0 with time constant [tau], so
   health recovers even while nobody calls. *)
let decayed_slow t d ~now =
  if d.d_samples = 0 then 0.0
  else
    let dt = now -. d.d_last in
    if dt <= 0.0 then d.d_slow else d.d_slow *. exp (-.dt /. t.tau)

(* A call is slow relative to the fleet, not to its own destination: a
   node that is *always* three times slower than everyone else must keep
   scoring as slow (judging it against its own EWMA would normalize the
   sickness away). The floor keeps cold starts and sub-latency noise from
   flagging anything. *)
let slow_threshold t =
  Float.max t.slow_floor (3.0 *. (if t.g_samples = 0 then 0.0 else t.g_ewma))

let is_slow t ~latency = latency > slow_threshold t

let note_sample t ~dst ~now ~latency ~slow =
  let d = dest t dst in
  let blend prev x =
    if d.d_samples = 0 then x else ((1.0 -. alpha) *. prev) +. (alpha *. x)
  in
  d.d_slow <- blend (decayed_slow t d ~now) (if slow then 1.0 else 0.0);
  (match latency with
  | None -> ()
  | Some l ->
      d.d_dev <- blend d.d_dev (Float.abs (l -. d.d_ewma));
      d.d_ewma <- blend d.d_ewma l;
      let gblend prev x =
        if t.g_samples = 0 then x else ((1.0 -. alpha) *. prev) +. (alpha *. x)
      in
      t.g_dev <- gblend t.g_dev (Float.abs (l -. t.g_ewma));
      t.g_ewma <- gblend t.g_ewma l;
      t.g_samples <- t.g_samples + 1);
  d.d_samples <- d.d_samples + 1;
  d.d_last <- now

let note_ok t ~dst ~now ~latency =
  note_sample t ~dst ~now ~latency:(Some latency) ~slow:(is_slow t ~latency)

(* A transport failure (timeout, crash detection) says nothing about how
   fast the destination serves when it does answer — it is the failure
   detector's business — but a timeout IS a slow call from the caller's
   seat, so it feeds the slow indicator without polluting the latency
   EWMA. *)
let note_failure t ~dst ~now = note_sample t ~dst ~now ~latency:None ~slow:true

let samples t dst = (dest t dst).d_samples
let latency_ewma t dst = (dest t dst).d_ewma

let slow_score t ~now dst =
  match Hashtbl.find_opt t.dests dst with
  | None -> 0.0
  | Some d -> decayed_slow t d ~now

(* Health in [0,1]: 1 = no evidence of sickness. An unknown destination
   scores 1.0 — absence of evidence ranks it with the healthy, and the
   stable sort keeps the caller's order among ties, preserving the
   paper's replica-preference semantics when nothing distinguishes the
   candidates. *)
let score t ~now dst =
  match Hashtbl.find_opt t.dests dst with
  | None -> 1.0
  | Some d when d.d_samples = 0 -> 1.0
  | Some d ->
      let slow = decayed_slow t d ~now in
      let base = if t.g_samples = 0 || t.g_ewma <= 0.0 then 1.0
        else Float.min 1.0 (t.g_ewma /. Float.max t.g_ewma d.d_ewma) in
      (1.0 -. slow) *. base

let rank t ~now nodes =
  List.stable_sort
    (fun a b -> Float.compare (score t ~now b) (score t ~now a))
    nodes

(* Sustained slowness — the degraded-breaker trip condition. Requires a
   real streak (several samples, decayed indicator past the bar), so one
   unlucky round trip cannot shed a healthy destination. *)
let sustained_slow_bar = 0.6
let sustained_slow_min_samples = 4

let sustained_slow t ~now dst =
  match Hashtbl.find_opt t.dests dst with
  | None -> false
  | Some d ->
      d.d_samples >= sustained_slow_min_samples
      && decayed_slow t d ~now >= sustained_slow_bar

(* The hedge delay: how long to give the primary before the backup
   launches. Fleet mean plus three deviations approximates a high
   percentile of the healthy latency distribution — long enough that a
   healthy primary almost always wins (hedges stay rare), short enough
   that a browned-out primary forfeits quickly. The floor covers the
   cold-start world where nothing has been measured yet. *)
let hedge_delay ?(floor = 4.0) t =
  if t.g_samples < 8 then floor
  else Float.max floor (t.g_ewma +. (3.0 *. t.g_dev))
