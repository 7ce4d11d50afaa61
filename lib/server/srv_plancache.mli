(** The lens plan cache: repeated lens invocations skip XML-QL parsing
    and mediator planning, re-binding only their parameter values.

    Entries are keyed by {!Fe_lens.param_shape} — (lens, query, which
    parameters are rebindable, the rendered literals of those that are
    not).  A {e parametric} entry holds a plan compiled once against
    sentinel stand-ins for the rebindable parameters; a lookup
    substitutes the actual values structurally (plan expressions,
    residual conditions, SQL fragments re-rendered from their ASTs, the
    carried source query and construct template) — no parser, no
    planner.

    Honesty guard: a parametric entry is only admitted after its rebound
    plan for the first valuation compares structurally equal to a cold
    compile of the same valuation.  Shapes that fail — sentinel text
    leaking into an opaque artifact (a SQL join fragment's text, a
    pushed path), a [Dep_join] closure, any structural drift — are
    {e poisoned}: such invocations fall back to exact (value-keyed)
    entries, still skipping parse+plan on repeats of identical values.

    The entry store is the shared cache core, {!Lru}: O(1) LRU eviction
    and counters mirrored to the [srv.plancache.*] metrics.  Entries are
    tagged with the transitive source closure of their accesses, and
    mutation events from {!Med_catalog.on_mutation} (source
    registration, view definition/drop, explicit invalidation through
    {!Med_catalog.notify_invalidation}) drop every entry tagged with the
    mutated name.

    Each entry also records the catalog's statistics epoch
    ({!Med_catalog.stats_epoch}) and the index epoch at compile time;
    they are the core's validity check.  A lookup that finds an entry
    compiled under an older epoch — the statistics were refreshed by
    [\analyze] or drifted materially since, or an index was built or
    dropped — drops it (counted as an invalidation) and recompiles, so
    cached plans never outlive the estimates that chose their join
    order. *)

type t

val create : ?capacity:int -> Med_catalog.t -> t
(** Default capacity 32.  0 disables caching: every {!lookup} compiles
    cold and reports a miss.  Subscribes to the catalog's mutation
    events for invalidation. *)

val capacity : t -> int
val size : t -> int

val lookup :
  t ->
  lens:Fe_lens.t ->
  query:string ->
  args:(string * string) list ->
  Med_planner.compiled * bool
(** The compiled plan bound to the invocation's actual parameter
    values, and whether it came from the cache ([true] = parse and
    planning were skipped).  Raises as {!Fe_lens.instantiate} /
    {!Med_planner.compile} on bad invocations. *)

val invalidate : t -> string -> int
(** Drop entries whose source closure contains the name (also invoked
    automatically via the catalog's mutation hook); returns how many
    were dropped. *)

val clear : t -> unit

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
      (** entries dropped by mutation events or a stale statistics
          epoch *)
  fallbacks : int;      (** shapes poisoned to exact-keyed entries *)
}

val stats : t -> stats

val report : t -> string
(** [plan cache: size=3/32 hits=10 misses=4 evictions=0 invalidations=1
    fallbacks=0] plus one line per cached shape, most recently used
    first. *)
