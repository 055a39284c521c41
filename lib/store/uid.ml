(* [str] is ["label#serial"], built once by [fresh]. *)
type t = { serial : int; lbl : string; str : string }

type supply = { mutable next : int }

let supply () = { next = 0 }

let fresh s ~label =
  let serial = s.next in
  s.next <- serial + 1;
  { serial; lbl = label; str = label ^ "#" ^ string_of_int serial }

let label t = t.lbl
let serial t = t.serial
let equal a b = a.serial = b.serial
let compare a b = Int.compare a.serial b.serial
let hash t = Hashtbl.hash t.serial
let to_string t = t.str
let pp ppf t = Format.pp_print_string ppf t.str
