(** LRU cache of query results (section 4: "caching and other
    performance tuning capabilities").

    Keys are query texts; values are constructed result trees.  The
    store is the shared cache core, {!Lru}: O(1) least-recently-used
    eviction, an optional TTL on the {e virtual} clock
    ({!Obs_clock.virtual_ms}), and counters mirrored to the [cache.*]
    metrics.  Each entry is tagged with the sources and views its query
    reads, so a mutation invalidates exactly the affected entries.  The
    facade ({!Nimble}) subscribes each result cache to
    {!Med_catalog.notify_invalidation}, the one path by which every cache
    hears about source updates and view definitions or drops. *)

type t

type stats = {
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable evictions : int;
  mutable expirations : int;
  mutable invalidations : int;
}

val create : ?ttl_ms:float -> capacity:int -> unit -> t
(** [capacity] is the maximum number of entries; 0 disables caching.
    With [ttl_ms], entries older (in virtual time) than the TTL read as
    misses and are dropped, counted as expirations. *)

val get : t -> string -> Dtree.t list option
(** A hit refreshes the entry's recency. *)

val put : t -> ?sources:string list -> string -> Dtree.t list -> unit
(** Inserting over capacity evicts the least recently used entry.
    Re-inserting an existing key replaces its value. *)

val get_or_compute :
  t -> ?sources:string list -> string -> (unit -> Dtree.t list) -> Dtree.t list

val invalidate : t -> string -> bool
(** Remove one entry by key; returns whether it existed. *)

val invalidate_source : t -> string -> int
(** Remove every entry tagged with the name or with a qualified
    [name.export]; returns how many. *)

val clear : t -> unit
val size : t -> int
val capacity : t -> int

val ttl_ms : t -> float option

val stats : t -> stats
(** A snapshot of the counters; later lookups do not change it. *)

val hit_rate : t -> float
(** Hits / (hits + misses); 0 when nothing was looked up. *)

val summary : t -> string
(** Size, TTL and counters in one line ({!Lru.summary}). *)
