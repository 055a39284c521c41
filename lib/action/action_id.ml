(* [str] is the canonical rendering, built once when the id is made: it is
   the lock-owner key every remote invocation carries. *)
type t = { org : string; path : int list (* root serial first *); str : string }

let top ~origin ~serial =
  { org = origin; path = [ serial ]; str = origin ^ ":" ^ string_of_int serial }

let child t ~serial =
  {
    org = t.org;
    path = t.path @ [ serial ];
    str = t.str ^ "." ^ string_of_int serial;
  }

(* A nested id's last '.' precedes its own serial: the parent's rendering
   is the prefix before it. *)
let parent t =
  match List.rev t.path with
  | [] | [ _ ] -> None
  | _ :: rev_rest ->
      Some
        {
          t with
          path = List.rev rev_rest;
          str = String.sub t.str 0 (String.rindex t.str '.');
        }

let is_top t = match t.path with [ _ ] -> true | _ -> false

let origin t = t.org

let depth t = List.length t.path

let equal a b = String.equal a.org b.org && a.path = b.path

let compare a b =
  match String.compare a.org b.org with
  | 0 -> Stdlib.compare a.path b.path
  | c -> c

let to_string t = t.str

let pp ppf t = Format.pp_print_string ppf t.str
