(* One keyed LRU/TTL cache core.  Recency is an intrusive doubly-linked
   list threaded through the entries (head = most recent, tail = the
   victim), so touching an entry and evicting the LRU are both O(1). *)

type event = Hit | Miss | Eviction | Expiration | Invalidation

(* Counter slot of each event, in the order [metrics] names them. *)
let slot = function Hit -> 0 | Miss -> 1 | Eviction -> 2 | Expiration -> 3 | Invalidation -> 4

type metrics = Obs_metrics.counter array

let metrics family =
  Array.map
    (fun name -> Obs_metrics.counter (family ^ "." ^ name))
    [| "hits"; "misses"; "evictions"; "expirations"; "invalidations" |]

type ('k, 'v) node = {
  key : 'k;
  value : 'v;
  tags : string list;
  born_ms : float;
  mutable prev : ('k, 'v) node option;  (* toward the head (more recent) *)
  mutable next : ('k, 'v) node option;  (* toward the tail (less recent) *)
}

type ('k, 'v) t = {
  cap : int;
  ttl : float option;
  valid : 'v -> bool;
  on_expire : 'k -> 'v -> unit;
  mirror : metrics option;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
  counters : int array;  (* by [slot] *)
}

let create ?ttl_ms ?(valid = fun _ -> true) ?(on_expire = fun _ _ -> ()) ?metrics
    ~capacity () =
  {
    cap = max 0 capacity;
    ttl = ttl_ms;
    valid;
    on_expire;
    mirror = metrics;
    table = Hashtbl.create (max 1 (min capacity 1024));
    head = None;
    tail = None;
    counters = Array.make 5 0;
  }

let note t ?(by = 1) ev =
  let i = slot ev in
  t.counters.(i) <- t.counters.(i) + by;
  Option.iter (fun m -> Obs_metrics.inc ~by m.(i)) t.mirror

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some x -> x.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let drop t ?ev n =
  Hashtbl.remove t.table n.key;
  unlink t n;
  Option.iter (note t) ev

let expired t n =
  match t.ttl with Some ttl -> Obs_clock.virtual_ms () -. n.born_ms > ttl | None -> false

let miss t =
  note t Miss;
  None

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some n when expired t n ->
    drop t ~ev:Expiration n;
    t.on_expire key n.value;
    miss t
  | Some n when not (t.valid n.value) ->
    drop t ~ev:Invalidation n;
    miss t
  | Some n ->
    note t Hit;
    (match t.head with
    | Some h when h == n -> ()
    | _ ->
      unlink t n;
      push_front t n);
    Some n.value
  | None -> miss t

let peek t key = Option.map (fun n -> n.value) (Hashtbl.find_opt t.table key)

let add t ?(tags = []) key value =
  if t.cap > 0 then begin
    (match (Hashtbl.find_opt t.table key, t.tail) with
    | Some old, _ -> drop t old
    | None, Some victim when Hashtbl.length t.table >= t.cap -> drop t ~ev:Eviction victim
    | None, _ -> ());
    let n = { key; value; tags; born_ms = Obs_clock.virtual_ms (); prev = None; next = None } in
    push_front t n;
    Hashtbl.replace t.table key n
  end

let invalidate t key =
  match Hashtbl.find_opt t.table key with
  | Some n ->
    drop t ~ev:Invalidation n;
    true
  | None -> false

let rec fold_nodes f acc = function None -> acc | Some n -> fold_nodes f (f acc n) n.next

let tag_matches name =
  let prefix = name ^ "." in
  fun tag -> String.equal tag name || String.starts_with ~prefix tag

let invalidate_tag t name =
  let matches = tag_matches name in
  let victims =
    fold_nodes (fun acc n -> if List.exists matches n.tags then n :: acc else acc) [] t.head
  in
  List.iter (fun n -> drop t n) victims;
  let dropped = List.length victims in
  if dropped > 0 then note t ~by:dropped Invalidation;
  dropped

let clear t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None

let size t = Hashtbl.length t.table
let capacity t = t.cap
let ttl_ms t = t.ttl
let bindings t = List.rev (fold_nodes (fun acc n -> (n.key, n.value, n.tags) :: acc) [] t.head)

type counts = {
  hits : int;
  misses : int;
  evictions : int;
  expirations : int;
  invalidations : int;
}

let counts t =
  let c = t.counters in
  { hits = c.(0); misses = c.(1); evictions = c.(2); expirations = c.(3); invalidations = c.(4) }

let hit_rate t =
  let c = counts t in
  if c.hits + c.misses = 0 then 0.0 else float_of_int c.hits /. float_of_int (c.hits + c.misses)

let summary t =
  let c = counts t in
  Printf.sprintf "%d/%d entries,%s hits=%d misses=%d evictions=%d expirations=%d invalidations=%d"
    (size t) t.cap
    (match t.ttl with Some ms -> Printf.sprintf " ttl=%.0fms" ms | None -> "")
    c.hits c.misses c.evictions c.expirations c.invalidations
