type t = { counter : int; committed_by : string }

let initial = { counter = 0; committed_by = "genesis" }

let next t ~committed_by = { counter = t.counter + 1; committed_by }

let newer_than a b = a.counter > b.counter

let equal a b = a.counter = b.counter && String.equal a.committed_by b.committed_by

let compare a b =
  match Int.compare a.counter b.counter with
  | 0 -> String.compare a.committed_by b.committed_by
  | c -> c

let to_string t = Printf.sprintf "v%d(%s)" t.counter t.committed_by
let pp ppf t = Format.pp_print_string ppf (to_string t)
