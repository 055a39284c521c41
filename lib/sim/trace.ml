type entry = { at : float; tag : string; detail : string }

type t = { mutable enabled : bool; mutable entries : entry list (* newest first *) }

let create ?(enabled = true) () = { enabled; entries = [] }

let set_enabled t flag = t.enabled <- flag
let enabled t = t.enabled

let record t ~now ~tag detail =
  if t.enabled then t.entries <- { at = now; tag; detail } :: t.entries

let recordf t ~now ~tag fmt =
  if t.enabled then
    Format.kasprintf (fun detail -> record t ~now ~tag detail) fmt
  else Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let entries t = List.rev t.entries

let with_tag t tag = List.filter (fun e -> String.equal e.tag tag) (entries t)

let count t ~tag = List.length (with_tag t tag)

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  if m = 0 then true
  else begin
    let rec scan i =
      if i + m > n then false
      else if String.sub s i m = sub then true
      else scan (i + 1)
    in
    scan 0
  end

let find t ~tag ~substring =
  List.filter
    (fun e -> String.equal e.tag tag && contains_substring e.detail substring)
    (entries t)

let clear t = t.entries <- []

let pp ppf t =
  List.iter
    (fun e -> Format.fprintf ppf "%10.4f [%s] %s@." e.at e.tag e.detail)
    (entries t)
