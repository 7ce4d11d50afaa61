(** Morsel-driven multicore execution of physical plans.

    The third engine, next to {!Alg_exec} (tuple-at-a-time) and
    {!Alg_batch} (batch-at-a-time): operator outputs are materialized
    bottom-up, per-row work is cut into {e morsels} of [chunk] rows,
    and morsels run on a fixed, process-wide pool of OCaml domains
    (hand-rolled mutex/condition work queue — the caller participates
    as worker 0).  Workers claim morsels from a shared counter, so a
    fast domain steals the tail of a slow one (Leis et al.,
    "Morsel-Driven Parallelism", SIGMOD 2014); per-morsel outputs are
    stitched back in morsel order.

    {b Determinism.}  Answers are byte-identical to the other two
    engines, by construction:

    - maps/filters/expansions stitch per-morsel outputs in input order;
    - the hash join partitions its build side by key hash, each
      partition preserving per-key build order, and probes left rows in
      order against read-only tables (exchange-style, after Graefe's
      Volcano);
    - grouping partitions groups (not rows) across domains, so every
      group folds its rows in ascending input order — float sums
      associate exactly as in the sequential fold — and groups are
      emitted in first-occurrence order;
    - sort runs a parallel stable merge sort over decorated keys where
      ties always take the earlier morsel.

    Operators whose state is inherently order-entangled
    ({!Alg_stats.falls_back}: nested-loop, merge and dependent joins,
    distinct) fall back to the tuple engine, on the caller.  Morsel
    counts, rows, time and per-domain busy time land in the shared
    {!Alg_stats} tree.

    {b Thread discipline.}  Only pure row work runs on pool domains.
    Scans, the tuple-engine fallback and all {!Obs_metrics} ticks run
    on the caller's domain: source functions reach process-global state
    (fetch scheduler, caches, network simulation), and the metrics
    registry is not thread-safe.  Scans materialize eagerly in plan
    order, so strict/partial source-failure semantics — including
    which sources are recorded as skipped — match the other engines. *)

(** {1 Running} *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

val run :
  domains:int ->
  chunk:int ->
  ?cost_rows:(Alg_plan.t -> float) ->
  sources:(string -> string -> Alg_env.t Seq.t) ->
  fallback:(Alg_plan.t -> Alg_env.t Seq.t) ->
  template:(Alg_env.t -> Alg_plan.template -> Dtree.t) ->
  Alg_stats.t ->
  Alg_plan.t ->
  Alg_env.t list
(** Evaluate the plan with [domains] workers (caller included, clamped
    to the pool limit) over morsels of [chunk] rows, filling the
    statistics tree: per-operator morsels, rows and time, and the
    per-domain busy times.  [sources]/[fallback]/[template] as in
    {!Alg_batch.run}; [cost_rows] estimates a subplan's output rows so
    per-partition hash-join tables pre-size from real cardinalities
    (default: the blind cost model over {!Alg_cost.default_scan_rows}).
    Callers want {!Alg_exec.exec}.  The domain pool is global and
    reused across runs; it grows to the largest [domains] ever
    requested and is joined at exit. *)
