(** The keyed cache core under {!Mat_cache}, {!Frag_cache} and the
    server's plan cache: one recency list, capacity, TTL, validity check,
    tag invalidation and set of counters.

    Lookup, insertion and eviction are O(1) (an intrusive recency list).
    Capacity 0 turns the cache off: nothing is stored, every {!find}
    misses.  The TTL ages entries on the {e virtual} clock
    ({!Obs_clock.virtual_ms}), so freshness is deterministic under the
    network simulator.  The validity predicate is asked on every
    {!find}.  Entries carry {e tags}, the names they were derived from;
    a tag matches [name] when it equals [name] or starts with
    [name ^ "."], so a source covers its qualified exports. *)

type ('k, 'v) t

type metrics
(** A named {!Obs_metrics} counter family mirroring the counters. *)

val metrics : string -> metrics
(** [metrics "cache"] registers (or finds) [cache.hits], [cache.misses],
    [cache.evictions], [cache.expirations] and [cache.invalidations]. *)

val create :
  ?ttl_ms:float ->
  ?valid:('v -> bool) ->
  ?on_expire:('k -> 'v -> unit) ->
  ?metrics:metrics ->
  capacity:int ->
  unit ->
  ('k, 'v) t
(** [on_expire] receives each entry {!find} drops for its age. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** A live entry is a hit and becomes the most recent.  One past its TTL
    is dropped as an expiration, one the validity predicate rejects as an
    invalidation; both, like an absent key, count as a miss. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** The resident value, whatever its age or validity; nothing moves. *)

val add : ('k, 'v) t -> ?tags:string list -> 'k -> 'v -> unit
(** Insert as the most recent entry, born now.  A present key is replaced
    uncounted; a new key at capacity evicts the least recently used. *)

val invalidate : ('k, 'v) t -> 'k -> bool
(** Drop one entry; returns whether it was resident. *)

val invalidate_tag : ('k, 'v) t -> string -> int
(** Drop every entry with a tag matching the name; returns how many. *)

val tag_matches : string -> string -> bool
(** [tag_matches name tag], for stores kept off the core. *)

val clear : ('k, 'v) t -> unit
(** Drop every entry; the counters keep their values. *)

val size : ('k, 'v) t -> int
val capacity : ('k, 'v) t -> int
val ttl_ms : ('k, 'v) t -> float option

val bindings : ('k, 'v) t -> ('k * 'v * string list) list
(** Resident entries and their tags, most recently used first. *)

type counts = {
  hits : int;
  misses : int;
  evictions : int;
  expirations : int;
  invalidations : int;
}

val counts : ('k, 'v) t -> counts
(** The counters since {!create}. *)

val hit_rate : ('k, 'v) t -> float
(** Hits / (hits + misses); 0 when nothing was looked up. *)

val summary : ('k, 'v) t -> string
(** [3/64 entries, ttl=50ms hits=.. misses=.. evictions=..
    expirations=.. invalidations=..]; no [ttl] cell without a TTL. *)
