(** Volcano-style execution of physical plans.

    Plans pull environments lazily through [Seq.t]; blocking operators
    (sort, group, distinct, hash-join build side) materialize their
    input.  Sources are resolved through a caller-supplied function, so
    the same plan can run against live sources, materialized views or
    test fixtures.  {!exec} is the entry point for every engine and
    mode; {!run} and {!run_list} are the plain tuple interpreter it
    falls back on, and the reference the other engines are tested
    against. *)

type source_fn = string -> string -> Alg_env.t Seq.t
(** [source_fn source binding] yields the environments of a scan.  Raise
    {!Source_unavailable} to signal an offline source (section 3.4). *)

exception Source_unavailable of string
exception Exec_error of string

val run : source_fn -> Alg_plan.t -> Alg_env.t Seq.t
(** Lazy execution; source and evaluation errors surface when the
    sequence is forced. *)

val run_list : source_fn -> Alg_plan.t -> Alg_env.t list
(** Force the whole result. *)

val exec :
  ?stats:Alg_stats.t ->
  ?cost_rows:(Alg_plan.t -> float) ->
  partial:bool ->
  Alg_batch.mode ->
  source_fn ->
  Alg_plan.t ->
  Alg_env.t list * string list
(** Run the plan on the engine [mode] names: the tuple engine
    ({!run_list}), the batch engine of {!Alg_batch} or the morsel-driven
    parallel engine of {!Alg_par}.  Same answers, same order and the
    same strict/partial semantics on every engine.

    With [~partial:true] (section 3.4), scans whose source raises
    {!Source_unavailable} contribute no rows instead of failing; the
    returned list names the sources that were skipped, so the caller can
    annotate the answer as incomplete.  Strict runs return [[]] there.

    [stats] is the EXPLAIN ANALYZE sink: a tree from
    {!Alg_stats.create} for this plan, which the engine fills with
    per-operator rows and inclusive wall time (plus batch, morsel and
    index counters); when the trace sink is enabled it is also emitted
    as a span tree.  Without it, the tuple engine runs uninstrumented.
    [cost_rows] estimates a subplan's output rows so the parallel
    engine's per-partition hash-join tables pre-size from real
    cardinalities (default: the blind cost model). *)

val buffered :
  (string -> (Alg_env.t list, exn) result option) ->
  source_fn ->
  source_fn
(** [buffered lookup fallback] resolves scans against a prefetched
    buffer: when [lookup access_id] finds an entry, its environments
    are served (or its captured exception re-raised — at pull time, so
    strict/partial semantics match sequential fetching); otherwise the
    scan falls through to [fallback].  The scatter-gather fetch path. *)

val build_template :
  Alg_env.t -> Alg_plan.template -> Dtree.t
(** Instantiate a CONSTRUCT template against one environment. *)
