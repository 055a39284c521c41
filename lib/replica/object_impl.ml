type t = {
  impl_name : string;
  initial : string;
  apply : string -> string -> string * string;
}

let registry () : (string, t) Hashtbl.t = Hashtbl.create 8

let register reg impl = Hashtbl.replace reg impl.impl_name impl

let find reg name = Hashtbl.find reg name

let split_op op =
  match String.index_opt op ' ' with
  | None -> (op, "")
  | Some i ->
      ( String.sub op 0 i,
        String.sub op (i + 1) (String.length op - i - 1) )

let counter =
  {
    impl_name = "counter";
    initial = "0";
    apply =
      (fun payload op ->
        let v = int_of_string payload in
        match split_op op with
        | "incr", _ ->
            let s = string_of_int (v + 1) in
            (s, s)
        | "add", n ->
            let s = string_of_int (v + int_of_string n) in
            (s, s)
        | "get", _ -> (payload, payload)
        | other, _ -> (payload, "unknown op: " ^ other));
  }

let account =
  {
    impl_name = "account";
    initial = "0";
    apply =
      (fun payload op ->
        let balance = int_of_string payload in
        match split_op op with
        | "deposit", n ->
            let s = string_of_int (balance + int_of_string n) in
            (s, s)
        | "withdraw", n ->
            let amount = int_of_string n in
            if amount > balance then (payload, "insufficient")
            else
              let s = string_of_int (balance - amount) in
              (s, s)
        | "balance", _ -> (payload, payload)
        | other, _ -> (payload, "unknown op: " ^ other));
  }

let register_cell =
  {
    impl_name = "register";
    initial = "";
    apply =
      (fun payload op ->
        match split_op op with
        | "write", s -> (s, "ok")
        | "read", _ -> (payload, payload)
        | other, _ -> (payload, "unknown op: " ^ other));
  }

let split_items payload =
  if String.equal payload "" then [] else String.split_on_char ',' payload

let join_items items = String.concat "," items

let fifo_queue =
  {
    impl_name = "queue";
    initial = "";
    apply =
      (fun payload op ->
        let items = split_items payload in
        match split_op op with
        | "push", s -> (join_items (items @ [ s ]), "ok")
        | "pop", _ -> (
            match items with
            | [] -> (payload, "empty")
            | x :: rest -> (join_items rest, x))
        | "peek", _ -> (
            match items with [] -> (payload, "empty") | x :: _ -> (payload, x))
        | "length", _ -> (payload, string_of_int (List.length items))
        | other, _ -> (payload, "unknown op: " ^ other));
  }

let string_set =
  {
    impl_name = "set";
    initial = "";
    apply =
      (fun payload op ->
        let items = split_items payload in
        match split_op op with
        | "add", s ->
            if List.mem s items then (payload, "present")
            else (join_items (List.sort String.compare (s :: items)), "added")
        | "remove", s ->
            if List.mem s items then
              (join_items (List.filter (fun x -> x <> s) items), "removed")
            else (payload, "absent")
        | "mem", s -> (payload, string_of_bool (List.mem s items))
        | "size", _ -> (payload, string_of_int (List.length items))
        | other, _ -> (payload, "unknown op: " ^ other));
  }

(* In-place helpers for [kv_map]: they read substrings by position, so a
   scan allocates nothing. *)

(* The index of the first [c] in [s.[i .. stop-1]], or [stop]. *)
let find_char s c i stop =
  let j = ref i in
  while !j < stop && s.[!j] <> c do
    incr j
  done;
  !j

(* [String.compare] of [a.[ai .. ai+al-1]] and [b.[bi .. bi+bl-1]]. *)
let compare_sub a ai al b bi bl =
  let n = if al < bl then al else bl in
  let j = ref 0 in
  while !j < n && a.[ai + !j] = b.[bi + !j] do
    incr j
  done;
  if !j < n then Char.compare a.[ai + !j] b.[bi + !j] else Int.compare al bl

let equal_sub a ai al b bi bl = al = bl && compare_sub a ai al b bi bl = 0

(* The splices of [put] and [del] are correct only on a canonical payload
   (object_impl.mli): [scan] checks the form in the pass that finds the
   key, and [normalise] brings any other payload into it first. *)
let kv_map =
  let normalise payload =
    let parse payload =
      if String.equal payload "" then []
      else
        List.map
          (fun pair ->
            match String.index_opt pair '=' with
            | Some i ->
                ( String.sub pair 0 i,
                  String.sub pair (i + 1) (String.length pair - i - 1) )
            | None -> (pair, ""))
          (String.split_on_char ';' payload)
    in
    let render entries =
      entries
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.map (fun (k, v) -> k ^ "=" ^ v)
      |> String.concat ";"
    in
    render (parse payload)
  in
  (* [Some (start, stop)]: the span of the first entry whose key is
     [op.[ko .. ko+kl-1]], or the empty span where such an entry belongs.
     [None] if [p] is not canonical. *)
  let scan p op ko kl =
    let n = String.length p in
    let i = ref 0 and prev = ref (-1) and prev_len = ref 0 in
    let start = ref n and stop = ref n and found = ref false in
    let canonical = ref true in
    while n > 0 && !canonical && !i <= n do
      let e = find_char p ';' !i n in
      let ke = find_char p '=' !i e in
      let len = ke - !i in
      if ke = e || (!prev >= 0 && compare_sub p !prev !prev_len p !i len > 0)
      then canonical := false
      else begin
        if not !found then begin
          let c = compare_sub p !i len op ko kl in
          if c >= 0 then begin
            found := true;
            start := !i;
            stop := if c = 0 then e else !i
          end
        end;
        prev := !i;
        prev_len := len;
        i := e + 1
      end
    done;
    if !canonical then Some (!start, !stop) else None
  in
  (* [p] in canonical form, with the span [scan] gives in it. *)
  let locate p op ko kl =
    match scan p op ko kl with
    | Some span -> (p, span)
    | None ->
        let p = normalise p in
        (p, Option.get (scan p op ko kl))
  in
  (* Replace the span with [k=v], adding the [';'] an inserted entry needs. *)
  let put (p, (start, stop)) op ko kl vo =
    let n = String.length p and vl = String.length op - vo in
    let sep_before = start = stop && start = n && n > 0 in
    let sep_after = start = stop && start < n in
    let j = start + Bool.to_int sep_before in
    let tail = j + kl + 1 + vl in
    let b = Bytes.create (tail + Bool.to_int sep_after + n - stop) in
    Bytes.blit_string p 0 b 0 start;
    if sep_before then Bytes.set b start ';';
    Bytes.blit_string op ko b j kl;
    Bytes.set b (j + kl) '=';
    Bytes.blit_string op vo b (j + kl + 1) vl;
    if sep_after then Bytes.set b tail ';';
    Bytes.blit_string p stop b (tail + Bool.to_int sep_after) (n - stop);
    Bytes.unsafe_to_string b
  in
  (* Remove a found entry with one of its separators. *)
  let del (p, (start, stop)) =
    let n = String.length p in
    if start = stop then p
    else
      let a = if stop < n || start = 0 then start else start - 1 in
      let z = if stop < n then stop + 1 else stop in
      let b = Bytes.create (n - (z - a)) in
      Bytes.blit_string p 0 b 0 a;
      Bytes.blit_string p z b a (n - z);
      Bytes.unsafe_to_string b
  in
  (* The value of the first entry whose key is [op.[ko ..]]. *)
  let get p op ko =
    let n = String.length p and kl = String.length op - ko in
    let i = ref 0 and reply = ref "(none)" in
    while n > 0 && !i <= n do
      let e = find_char p ';' !i n in
      let ke = find_char p '=' !i e in
      if equal_sub p !i (ke - !i) op ko kl then begin
        reply := if ke = e then "" else String.sub p (ke + 1) (e - ke - 1);
        i := n + 1
      end
      else i := e + 1
    done;
    !reply
  in
  let size p =
    let entries = ref 1 in
    for i = 0 to String.length p - 1 do
      if p.[i] = ';' then incr entries
    done;
    if String.equal p "" then 0 else !entries
  in
  let is_op op ni name = equal_sub op 0 ni name 0 (String.length name) in
  {
    impl_name = "kvmap";
    initial = "";
    apply =
      (fun payload op ->
        (* [split_op], by position: the name is [op.[0 .. ni-1]], the
           argument starts at [ko]. *)
        let len = String.length op in
        let ni = find_char op ' ' 0 len in
        let ko = if ni < len then ni + 1 else len in
        if is_op op ni "put" then
          let ks = find_char op ' ' ko len in
          if ks = len then (payload, "usage: put k v")
          else if find_char op '=' ko ks < ks || find_char op ';' ko len < len
          then (payload, "invalid")
          else (put (locate payload op ko (ks - ko)) op ko (ks - ko) (ks + 1), "ok")
        else if is_op op ni "get" then (payload, get payload op ko)
        else if is_op op ni "del" then (del (locate payload op ko (len - ko)), "ok")
        else if is_op op ni "size" then (payload, string_of_int (size payload))
        else (payload, "unknown op: " ^ String.sub op 0 ni));
  }

let stock_all = [ counter; account; register_cell; fifo_queue; string_set; kv_map ]
