(* The fragment-level result cache: raw source round trips, keyed by
   (source, shipped fragment), below Mat_cache's whole-query cache, on
   the shared Lru core.  A hit short-circuits the network simulator
   entirely, so repeated fragments — within a lens burst or across
   queries — cost nothing on the virtual clock.  What this module adds
   to the core is the stale stash for partial-mode degradation. *)

type stats = {
  mutable frag_hits : int;
  mutable frag_misses : int;
  mutable frag_evictions : int;
  mutable frag_expirations : int;
  mutable frag_invalidations : int;
}

(* Registry mirror, so fragment-cache behaviour shows up in `stats`
   reports next to the whole-query cache counters. *)
let family = Lru.metrics "fragcache"

type t = {
  lru : (string * string, Source.result) Lru.t;
  (* TTL-expired values parked for partial-mode stale serving: the core
     still drops and miss-counts them, but the last known value stays
     reachable through [get_stale] until the key is refreshed or the
     source invalidated. *)
  stale : (string * string, Source.result) Hashtbl.t;
}

let create ?ttl_ms ~capacity () =
  let stale = Hashtbl.create 8 in
  let on_expire key value = Hashtbl.replace stale key value in
  { lru = Lru.create ?ttl_ms ~on_expire ~metrics:family ~capacity (); stale }

let enabled t = Lru.capacity t.lru > 0

let get t ~source ~fragment =
  if enabled t then Lru.find t.lru (source, fragment) else None

(* Last-known-value lookup for partial-mode degradation: a live entry
   (even one past its TTL) or a parked expired value.  No hit/miss
   accounting — the caller decides whether staleness was acceptable. *)
let get_stale t ~source ~fragment =
  let key = (source, fragment) in
  match Lru.peek t.lru key with
  | Some _ as live -> live
  | None -> Hashtbl.find_opt t.stale key

let put t ~source ~fragment value =
  let key = (source, fragment) in
  Hashtbl.remove t.stale key;
  Lru.add t.lru ~tags:[ source ] key value

let invalidate_source t source =
  (* Stale values are no fresher than the live ones: an invalidation
     means the source changed, so stale serving must not resurrect
     pre-mutation extents either. *)
  Hashtbl.filter_map_inplace
    (fun (s, _) v -> if String.equal s source then None else Some v)
    t.stale;
  Lru.invalidate_tag t.lru source

let clear t =
  Lru.clear t.lru;
  Hashtbl.reset t.stale

let size t = Lru.size t.lru
let capacity t = Lru.capacity t.lru
let ttl_ms t = Lru.ttl_ms t.lru

let stats t =
  let c = Lru.counts t.lru in
  {
    frag_hits = c.Lru.hits;
    frag_misses = c.Lru.misses;
    frag_evictions = c.Lru.evictions;
    frag_expirations = c.Lru.expirations;
    frag_invalidations = c.Lru.invalidations;
  }

let hit_rate t = Lru.hit_rate t.lru
let summary t = Lru.summary t.lru
