(* Smoke check of a benchmark result: smoke.exe BENCHMARK.json RESULT.json

   The result must parse, hold every workload BENCHMARK.json lists, and
   give each of them every end-to-end and per-layer metric BENCHMARK.json
   names as a finite number; each workload must be deterministic and
   audit-clean. *)

let read path = In_channel.with_open_bin path In_channel.input_all

let () =
  if Array.length Sys.argv <> 3 then (
    prerr_endline "usage: smoke.exe BENCHMARK.json RESULT.json";
    exit 2);
  let bench = Json.parse (read Sys.argv.(1)) in
  let result = Json.parse (read Sys.argv.(2)) in
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let names key =
    match Json.member key bench with
    | Some (Json.Arr xs) ->
        List.filter_map (fun x -> match Json.member "name" x with Some (Json.Str n) -> Some n | _ -> None) xs
    | _ ->
        error "BENCHMARK.json has no %s list" key;
        []
  in
  let workloads =
    match Json.member "workloads" result with
    | Some (Json.Arr ws) ->
        List.filter_map
          (fun w -> match Json.member "workload" w with Some (Json.Str n) -> Some (n, w) | _ -> None)
          ws
    | _ -> []
  in
  List.iter
    (fun name ->
      match List.assoc_opt name workloads with
      | None -> error "%s: missing from the result" name
      | Some w ->
          if Json.member "deterministic" w <> Some (Json.Bool true) then error "%s: reps differ" name;
          (match Json.member "audit_violations" w with
          | Some (Json.Arr []) -> ()
          | _ -> error "%s: audit violations" name);
          List.iter
            (fun (group, key) ->
              List.iter
                (fun m ->
                  match Option.bind (Json.member group w) (Json.member m) with
                  | Some v -> (
                      match Json.member "value" v with
                      | Some (Json.Num f) when Float.is_finite f -> ()
                      | _ -> error "%s: %s is not a finite number" name m)
                  | None -> error "%s: %s missing" name m)
                (names key))
            [ ("end_to_end", "end_to_end"); ("per_layer", "per_layer") ])
    (names "workloads");
  match List.rev !errors with
  | [] -> Printf.printf "smoke: %d workloads ok\n" (List.length workloads)
  | es ->
      List.iter prerr_endline es;
      exit 1
