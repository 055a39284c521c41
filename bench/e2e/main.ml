(* End-to-end benchmark of the default world.

     dune exec bench/e2e/main.exe -- --seed N [--workload W] [--seconds S]
       [--trace 0|1] [--spans FILE] [--json FILE] [--reps N] [--scale F]
       [--drop P]

   Each workload runs four episodes, each with its own seed. Rounds of one
   untraced rep per episode go on (at least --reps rounds, and more until
   --seconds of CPU time are spent); one traced rep of the first episode
   follows, all in this process. CPU seconds are scaled to a reference host
   speed measured around each rep (Calib), and the run time takes, slice by
   slice, the fastest rep of each episode; everything else comes from each
   episode's first rep, pooled over the episodes, and must repeat bit for
   bit in every rep. Every metric is printed with its unit, the full result goes to
   --json, and the last line of standard output is one JSON object carrying
   the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1). The
   exit code is 1 when an audit fails or a rep differs. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let spans_file = ref ""
let json_file = ref "e2e-results.json"
let min_reps = ref 2
let scale = ref 1.0
let drop = ref 0.0

let args =
  [
    ("--workload", Arg.Set_string workload, "W  run only this workload (default: all)");
    ("--seed", Arg.Set_int seed, "N  workload seed (default 1)");
    ("--seconds", Arg.Set_float seconds, "S  CPU seconds of untraced reps per workload (default 10)");
    ("--trace", Arg.Set_int trace, "0|1  last line carries end-to-end (0) or per-layer (1) metrics");
    ("--spans", Arg.Set_string spans_file, "FILE  write the traced reps' spans as JSON lines");
    ("--json", Arg.Set_string json_file, "FILE  full result (default e2e-results.json)");
    ("--reps", Arg.Set_int min_reps, "N  minimum rounds of untraced reps (default 2)");
    ("--scale", Arg.Set_float scale, "F  shrink every workload by this factor (smoke test)");
    ( "--drop",
      Arg.Set_float drop,
      "P  drop this share of messages from clients c1-c8 to naming (reproduces a bug; see README.md)" );
  ]

let max_rounds = 100

(* Each episode of each workload draws its own seed from the command-line
   one. *)
let derive seed name =
  Int64.(add (mul (of_int seed) 0x9E3779B97F4A7C15L) (of_int (Hashtbl.hash name)))

type result = {
  spec : Episode.spec;
  pooled : Measure.pooled;
  e2e : Measure.metric list;
  layers : Measure.metric list;
  mismatch : string option;
  span_lines : string list;
}

let span_lines spec (inputs : Episode.inputs) (r : Episode.record) =
  let line i name parent t0 t1 =
    Json.to_string
      (Json.Obj
         [
           ("workload", Json.Str spec.Episode.name);
           ("action", Json.Num (float_of_int i));
           ("span", Json.Str name);
           ("parent", match parent with None -> Json.Null | Some p -> Json.Str p);
           ("start", Json.Num t0);
           ("end", Json.Num t1);
         ])
  in
  List.concat
    (List.init inputs.Episode.n (fun i ->
         if Bytes.get r.Episode.outcome i <> 'c' then []
         else
           let act = Some "action" in
           [
             line i "action" None r.Episode.started.(i) r.Episode.finished.(i);
             line i "bind" act r.Episode.t_call.(i) r.Episode.t_body.(i);
             line i "invoke" act r.Episode.t_body.(i) r.Episode.t_invoked.(i);
             line i "commit" act r.Episode.t_invoked.(i) r.Episode.finished.(i);
           ]))

(* Episodes per run: each with its own seed, pooled for the deterministic
   metrics, which then vary half as much from seed to seed as one
   episode's would. *)
let episodes = 4

let run_workload ~costs spec =
  let spec = if !scale = 1.0 then spec else Episode.scale !scale spec in
  let seeds = List.init episodes (fun e -> derive !seed (Printf.sprintf "%s/%d" spec.Episode.name e)) in
  let inputs = List.map (fun s -> Episode.generate spec ~seed:s) seeds in
  let one ~traced seed inputs =
    let (r, run), factor =
      Calib.around (fun () ->
          let r = Episode.make_record inputs.Episode.n in
          (r, Episode.run ~drop:!drop spec inputs r ~seed ~traced))
    in
    (r, Measure.reduce spec inputs r run ~factor)
  in
  (* Rounds of one untraced rep per episode, until --seconds are spent. *)
  let t0 = Sys.time () in
  let rec rounds acc k =
    if k >= !min_reps && (Sys.time () -. t0 >= !seconds || k >= max_rounds) then
      List.map List.rev acc
    else
      rounds
        (List.map2 (fun reps (s, i) -> snd (one ~traced:false s i) :: reps) acc
           (List.combine seeds inputs))
        (k + 1)
  in
  let per_episode = rounds (List.map (fun _ -> []) seeds) 0 in
  let traced_record, traced = one ~traced:true (List.hd seeds) (List.hd inputs) in
  let setups =
    List.concat_map (List.map (fun r -> r.Measure.run.Episode.setup_s *. r.Measure.factor)) per_episode
  in
  let differs a b = Measure.first_difference a b in
  let mismatch =
    List.find_map
      (fun reps ->
        let reference = Measure.fingerprint ~traced:false (List.hd reps) in
        List.find_map (fun r -> differs reference (Measure.fingerprint ~traced:false r)) (List.tl reps))
      per_episode
    |> function
    | Some d -> Some d
    | None ->
        differs
          (Measure.fingerprint ~traced:true (List.hd (List.hd per_episode)))
          (Measure.fingerprint ~traced:true traced)
        |> Option.map (fun d -> "traced rep: " ^ d)
  in
  let pooled = Measure.pool per_episode in
  let untraced_s =
    Measure.median
      (List.map (fun r -> r.Measure.run.Episode.run_s *. r.Measure.factor) (List.hd per_episode))
  in
  {
    spec;
    pooled;
    e2e = Measure.end_to_end ~setups pooled;
    layers =
      Measure.per_layer ~costs ~traced ~untraced_s
        ~spans:(Measure.spans (List.hd inputs) traced_record) pooled;
    mismatch;
    span_lines =
      (if !spans_file = "" then [] else span_lines spec (List.hd inputs) traced_record);
  }

let better_string = function
  | Measure.Lower -> "lower"
  | Measure.Higher -> "higher"
  | Measure.Neither -> ""

let print_result r =
  Printf.printf "== %s  (%d episodes, %d untraced reps + 1 traced)\n" r.spec.Episode.name
    r.pooled.Measure.episodes (List.length r.pooled.Measure.rep_run_s);
  Printf.printf "   %s\n" r.spec.Episode.why;
  let show title ms =
    Printf.printf "  %s\n" title;
    List.iter
      (fun m ->
        Printf.printf "    %-36s %16.6g %-6s %-7s %s\n" m.Measure.name m.Measure.value m.Measure.unit_
          (better_string m.Measure.better) m.Measure.note)
      ms
  in
  show "end-to-end" r.e2e;
  show "per-layer" r.layers;
  List.iter (Printf.printf "  AUDIT VIOLATION: %s\n") r.pooled.Measure.violations;
  Option.iter (Printf.printf "  NONDETERMINISTIC: %s\n") r.mismatch;
  print_newline ()

let metric_json ~full m =
  Json.Obj
    ([ ("value", Json.Num m.Measure.value); ("unit", Json.Str m.Measure.unit_) ]
    @
    if full then
      [ ("better", Json.Str (better_string m.Measure.better)); ("note", Json.Str m.Measure.note) ]
    else [])

let result_json r =
  let group ms = Json.Obj (List.map (fun m -> (m.Measure.name, metric_json ~full:true m)) ms) in
  Json.Obj
    [
      ("workload", Json.Str r.spec.Episode.name);
      ("why", Json.Str r.spec.Episode.why);
      ("episodes", Json.Num (float_of_int r.pooled.Measure.episodes));
      ("reps", Json.Num (float_of_int (List.length r.pooled.Measure.rep_run_s)));
      ("deterministic", Json.Bool (r.mismatch = None));
      ("audit_violations", Json.Arr (List.map (fun v -> Json.Str v) r.pooled.Measure.violations));
      ("end_to_end", group r.e2e);
      ("per_layer", group r.layers);
    ]

let write_file path lines =
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc

let () =
  Arg.parse args
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [options]: end-to-end benchmark of the default world";
  let specs =
    if !workload = "" then Episode.specs
    else
      match Episode.find !workload with
      | Some s -> [ s ]
      | None ->
          Printf.eprintf "unknown workload %S; known: %s\n" !workload
            (String.concat ", " (List.map (fun s -> s.Episode.name) Episode.specs));
          exit 2
  in
  if !trace <> 0 && !trace <> 1 then (
    prerr_endline "--trace takes 0 or 1";
    exit 2);
  let costs = Probes.measure ~reps:5 in
  let results =
    List.map
      (fun spec ->
        let r = run_workload ~costs spec in
        print_result r;
        r)
      specs
  in
  write_file !json_file
    [
      Json.to_string
        (Json.Obj
           [
             ("seed", Json.Num (float_of_int !seed));
             ("scale", Json.Num !scale);
             ("workloads", Json.Arr (List.map result_json results));
           ]);
    ];
  if !spans_file <> "" then write_file !spans_file (List.concat_map (fun r -> r.span_lines) results);
  let correct =
    List.for_all (fun r -> r.pooled.Measure.violations = [] && r.mismatch = None) results
  in
  let attempted = List.fold_left (fun n r -> n + r.pooled.Measure.attempted) 0 results in
  let failed =
    List.fold_left (fun n r -> n + r.pooled.Measure.attempted - r.pooled.Measure.committed) 0 results
  in
  let metrics =
    List.concat_map
      (fun r ->
        let prefix = if List.length results > 1 then r.spec.Episode.name ^ "/" else "" in
        List.map
          (fun m -> (prefix ^ m.Measure.name, metric_json ~full:false m))
          (if !trace = 1 then r.layers else r.e2e))
      results
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ("metrics", Json.Obj metrics);
          ]));
  if not correct then exit 1
