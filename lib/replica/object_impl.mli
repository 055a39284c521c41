(** Application object behaviour: a deterministic state machine over
    serialised payloads.

    An implementation gives the class of an object (§2.2): its operations
    and how they transform the instance state. Operations and states are
    strings — the simulator's stand-in for marshalled method calls — and
    {e must be deterministic}, the standard requirement for active
    replication [16]: every replica applying the same operations in the
    same order reaches the same state.

    A small registry maps implementation names to behaviours; every node
    can look implementations up (the executable code of an object's
    methods is available wherever a server can run, §3.1). *)

type t = {
  impl_name : string;
  initial : string;  (** payload of a freshly created instance *)
  apply : string -> string -> string * string;
      (** [apply payload op] is [(payload', reply)]. Must be pure. *)
}

val registry : unit -> (string, t) Hashtbl.t
(** A fresh registry (one per simulated world). *)

val register : (string, t) Hashtbl.t -> t -> unit
(** Add an implementation, replacing any with the same name. *)

val find : (string, t) Hashtbl.t -> string -> t
(** @raise Not_found if the name is unregistered. *)

(** {2 Stock implementations} — used by tests, examples and benchmarks. *)

val counter : t
(** Payload is an integer rendered in decimal. Ops: ["incr"], ["add n"],
    ["get"]. Replies with the post-op value. *)

val account : t
(** A bank account. Payload ["balance"]. Ops: ["deposit n"],
    ["withdraw n"] (reply ["insufficient"] when overdrawn, leaving the
    state unchanged), ["balance"]. *)

val register_cell : t
(** A read/write register. Ops: ["write s"], ["read"]. *)

val fifo_queue : t
(** A FIFO queue of strings (payload: items joined by [','], no commas in
    items). Ops: ["push s"], ["pop"] (reply ["empty"] on an empty queue),
    ["peek"], ["length"]. *)

val string_set : t
(** A set of strings (payload: sorted, [','] separated). Ops: ["add s"]
    (reply ["added"]/["present"]), ["remove s"] (["removed"]/["absent"]),
    ["mem s"] (["true"]/["false"]), ["size"]. *)

val kv_map : t
(** A string→string map (payload: [k=v] pairs, [';'] separated, sorted by
    key; no ['='], [';'] or spaces in keys, no [';'] in values). Ops:
    ["put k v"], ["get k"] (reply the value or ["(none)"]), ["del k"],
    ["size"]. A ["put"] whose key holds ['='] or [';'], or whose value
    holds [';'], would read back as other entries: it leaves the state
    unchanged and replies ["invalid"].

    {b Canonical form.} A payload is canonical when it is [""] or [k=v]
    entries joined by [';'] in which every entry holds a ['='] and the
    keys (the text before each entry's first ['=']) never decrease.
    Every result of an op on a canonical payload is canonical.

    {b Cost.} Each op reads the payload once, in place, for a payload of
    [n] bytes:
    - ["put"] and ["del"] check the form and find the key's first entry
      by comparing substrings in the same pass, then build the result
      with one [n]-byte allocation. A ["del"] of an absent key returns
      the payload itself.
    - ["get"] and ["size"] allocate only the reply.

    {b Other payloads.} A payload outside the form (a caller's
    [?initial]) is normalised before a ["put"] or ["del"]:
    its entries are parsed, an entry with no ['='] taking the value
    [""], stably sorted by key and re-rendered. ["get"] returns the
    value of the first entry with the key, and ["size"] counts the
    entries. Every result is therefore byte-identical to parsing the
    whole map, editing the entry list (replacing or removing the key's
    first entry) and re-rendering it. *)

val stock_all : t list
(** All stock implementations, convenient for seeding registries. *)
