type stats = {
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable evictions : int;
  mutable expirations : int;
  mutable invalidations : int;
}

type t = (string, Dtree.t list) Lru.t

(* One family for every result cache, so cache behaviour shows up in
   `stats` reports next to source and mediator counters. *)
let family = Lru.metrics "cache"

let create ?ttl_ms ~capacity () = Lru.create ?ttl_ms ~metrics:family ~capacity ()

let get = Lru.find
let put t ?(sources = []) key value = Lru.add t ~tags:sources key value

let get_or_compute t ?sources key compute =
  match get t key with
  | Some v -> v
  | None ->
    let v = compute () in
    put t ?sources key v;
    v

let invalidate = Lru.invalidate
let invalidate_source = Lru.invalidate_tag
let clear = Lru.clear
let size = Lru.size
let capacity = Lru.capacity
let ttl_ms = Lru.ttl_ms

let stats t =
  let c = Lru.counts t in
  {
    cache_hits = c.Lru.hits;
    cache_misses = c.Lru.misses;
    evictions = c.Lru.evictions;
    expirations = c.Lru.expirations;
    invalidations = c.Lru.invalidations;
  }

let hit_rate = Lru.hit_rate
let summary = Lru.summary
