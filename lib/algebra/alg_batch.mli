(** Batch-at-a-time (vectorized) execution of physical plans.

    Where {!Alg_exec} pulls one environment per step, this engine moves
    {e chunks} — arrays of environments, {!default_chunk} rows by
    default — between operators, amortizing per-row interpretation
    overhead: one virtual dispatch per batch instead of one [Seq] cell
    per row, a single pre-sized hash-join build pass over a precomputed
    key array, and fused select+project.

    The engine is observationally equal to the tuple engine: same rows,
    same (document) order, same sort stability, same aggregates, and
    the same strict/partial semantics with unavailable sources.  Plan
    nodes are evaluated eagerly (sources are opened, and blocking
    operators — sort, group, hash-join build, outer-union — materialize)
    when the plan is compiled, exactly as in {!Alg_exec}; rows then flow
    lazily chunk by chunk, so [LIMIT] still short-circuits its input.

    Operators without a vectorized implementation
    ({!Alg_stats.falls_back}) fall back per-operator: the whole subtree
    runs on the tuple engine and its rows are re-chunked.

    This module is closed under the algebra layer: the tuple engine is
    injected as a closure ([fallback]/[template] in {!run}), and
    {!Alg_exec.exec} does the wiring.  Per-operator batches, rows and
    time land in the shared {!Alg_stats} tree. *)

type chunk = Alg_env.t array

val default_chunk : int
(** 1024. *)

(** {1 Execution mode}

    The knob surfaced through the mediator, the facade and the CLI
    ([--exec-mode]/[--chunk-size], repl [\exec]). *)

type mode = Alg_stats.mode =
  | Tuple
  | Batch of { chunk : int }
  | Parallel of { domains : int; chunk : int }

val mode_to_string : mode -> string

val mode_of_string : string -> mode option
(** Accepts ["tuple"], ["batch"] (chunk {!default_chunk}) and
    ["parallel"] ([Domain.recommended_domain_count ()] domains). *)

(** {1 Running} *)

val run :
  chunk:int ->
  sources:(string -> string -> Alg_env.t Seq.t) ->
  fallback:(Alg_plan.t -> Alg_env.t Seq.t) ->
  template:(Alg_env.t -> Alg_plan.template -> Dtree.t) ->
  Alg_stats.t ->
  Alg_plan.t ->
  Alg_env.t list
(** Compile the plan to a chunk pipeline of [chunk]-row batches and
    drain it, filling the statistics tree.  [sources] resolves scans
    (raise {!Alg_exec.Source_unavailable} as usual); [fallback] runs a
    non-vectorized subtree on the tuple engine; [template] instantiates
    CONSTRUCT templates.  Callers want {!Alg_exec.exec}. *)

(** {1 Shared operator semantics}

    One implementation of the order- and null-sensitive pieces, used by
    {e both} engines so they cannot drift: sort comparison, outer-union
    schema, and grouping/aggregation (deterministic over empty input —
    a keyless group over no rows yields exactly one row of aggregate
    identities — and over [Value.Null] keys, which form a group like
    any other value). *)

val navigate_matches :
  Dtree.t -> Xml_path.t -> Dtree.t list * [ `Probe | `Guide | `Miss ]
(** One Navigate binding, shared by all three engines: answered from the
    index subsystem when the tree is a registered root and the path is
    indexable ([`Probe] used a value index, [`Guide] the structural
    summary), otherwise by walking the tree ([`Miss]).  Results are
    byte-identical either way and safe to call from worker domains. *)

val compare_specs : Alg_plan.sort_spec list -> Alg_env.t -> Alg_env.t -> int
(** Reference sort comparison: evaluates the key expressions on both
    sides.  Kept as the semantic specification; execution goes through
    the decorate–sort–undecorate path below so keys are computed once
    per row, not twice per comparison. *)

val sort_decorate :
  Alg_plan.sort_spec list -> Alg_env.t array -> (Value.t array * Alg_env.t) array
(** Evaluate every sort key once per row: the decorated pair carries the
    key column the comparators read. *)

val sort_compare_keys :
  Alg_plan.sort_spec list -> Value.t array -> Value.t array -> int
(** Compare two precomputed key rows under the specs' directions —
    agrees with {!compare_specs} by construction. *)

val sort_array : Alg_plan.sort_spec list -> Alg_env.t array -> Alg_env.t array
(** Stable sort via decorate–sort–undecorate.  Rows with equal keys keep
    their input order. *)

val sort_list : Alg_plan.sort_spec list -> Alg_env.t list -> Alg_env.t list
(** {!sort_array} over lists — the tuple engine's sort. *)

val union_vars : Alg_env.t list -> string list
(** All variables bound in any of the envs, first-occurrence order. *)

(** {1 Compiled row functions}

    Per-operator expression compilation: name resolution and AST
    dispatch happen once, the returned closure runs per row.  Only hot
    shapes are specialized; everything else falls back to
    {!Alg_expr.eval}, so semantics cannot drift.  Shared with the
    parallel engine ({!Alg_par}). *)

val compile_value : Alg_expr.t -> Alg_env.t -> Value.t
val compile_pred : Alg_expr.t -> Alg_env.t -> bool

val compile_project : string list -> Alg_env.t -> Alg_env.t
(** With the no-op fast path: a row already laid out as [vars] is
    returned unchanged. *)

val group_rows :
  ?size_hint:int ->
  (string * Alg_expr.t) list ->
  (string * Alg_plan.agg) list ->
  Alg_env.t list ->
  Alg_env.t list
(** Group by the key expressions (groups in first-occurrence order) and
    fold the aggregates.  [sum]/[avg]/[min]/[max] of an all-null group
    are [Null]; ["count(*)"] of the empty keyless group is 0. *)

(** {2 Aggregate accumulators}

    The mutable per-(group, aggregate) state {!group_rows} folds with.
    Exposed so the parallel engine can fold per-domain partial states
    with the {e same} code — notably the same fold order dependence for
    float sums — and render results identically. *)

type agg_state

val new_state : unit -> agg_state
val feed : Alg_env.t -> agg_state -> Alg_plan.agg -> unit
val result : agg_state -> Alg_plan.agg -> Dtree.t
