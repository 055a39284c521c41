type 'a state = Empty of ('a Engine.resumer) list | Full of 'a

type 'a t = { mutable state : 'a state }

exception Already_filled

let create () = { state = Empty [] }

let fill iv v =
  match iv.state with
  | Full _ -> raise Already_filled
  | Empty waiters ->
      iv.state <- Full v;
      let r = Ok v in
      List.iter (fun w -> Engine.resume w r) (List.rev waiters)

let try_fill iv v =
  match iv.state with
  | Full _ -> false
  | Empty _ ->
      fill iv v;
      true

let is_filled iv = match iv.state with Full _ -> true | Empty _ -> false

let read eng iv =
  match iv.state with
  | Full v -> v
  | Empty _ ->
      Engine.suspend eng (fun resume ->
          match iv.state with
          | Full v -> Engine.resume resume (Ok v)
          | Empty waiters -> iv.state <- Empty (resume :: waiters))

let read_timeout eng dt iv =
  match iv.state with
  | Full v -> Ok v
  | Empty _ ->
      Engine.timeout eng dt (fun resume ->
          match iv.state with
          | Full v -> Engine.resume resume (Ok v)
          | Empty waiters -> iv.state <- Empty (resume :: waiters))
