type t = (string * int) list (* sorted by client, counts > 0 *)

let empty = []

let is_empty t = t = []

let rec increment t ~client =
  match t with
  | [] -> [ (client, 1) ]
  | (c, n) :: rest ->
      if String.equal c client then (c, n + 1) :: rest
      else if String.compare c client > 0 then (client, 1) :: t
      else (c, n) :: increment rest ~client

let rec decrement t ~client =
  match t with
  | [] -> []
  | (c, n) :: rest ->
      if String.equal c client then
        if n <= 1 then rest else (c, n - 1) :: rest
      else (c, n) :: decrement rest ~client

let drop_client t ~client = List.filter (fun (c, _) -> not (String.equal c client)) t

let count t ~client =
  match List.assoc_opt client t with Some n -> n | None -> 0

let total t = List.fold_left (fun acc (_, n) -> acc + n) 0 t

let clients t = t
