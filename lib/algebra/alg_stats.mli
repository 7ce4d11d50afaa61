(** Per-operator execution statistics: one record for all three engines.

    A statistics tree mirrors the plan ({!Alg_plan.children} order) and
    is filled by whichever engine runs it — the tuple engine of
    {!Alg_exec}, the batch engine of {!Alg_batch} or the parallel engine
    of {!Alg_par}.  Pass one to {!Alg_exec.exec} as its sink; afterwards
    {!actual}, {!cells} and {!span} render it for EXPLAIN ANALYZE and
    the trace sink. *)

(** The execution engine.  Re-exported as {!Alg_batch.mode}, where the
    CLI/repl parsing lives. *)
type mode =
  | Tuple  (** the seed engine, {!Alg_exec.run} — the default *)
  | Batch of { chunk : int }
  | Parallel of { domains : int; chunk : int }
      (** the morsel-driven multicore engine of {!Alg_par} — [domains]
          workers (the caller included) over morsels of [chunk] rows *)

type op = {
  op_plan : Alg_plan.t;  (** the node these numbers describe *)
  mutable op_pulled : bool;  (** false: the executor never reached it *)
  mutable op_rows : int;  (** rows this operator produced *)
  mutable op_ms : float;  (** inclusive wall time (with inputs) *)
  mutable op_chunks : int;  (** batch engine: batches (chunks) produced *)
  mutable op_morsels : int;  (** parallel engine: tasks issued *)
  mutable op_fused : bool;
      (** batch engine: a select fused into its parent project *)
  op_idx_probe : int Atomic.t;
      (** Navigate bindings answered by a value probe (atomic: the
          parallel engine expands Navigate on worker domains) *)
  op_idx_guide : int Atomic.t;  (** … answered by the structural guide *)
  op_idx_miss : int Atomic.t;  (** … that fell back to the tree walker *)
  op_kids : op list;  (** same shape as {!Alg_plan.children} *)
}

type t = {
  mutable engine : mode;  (** the engine that filled the tree *)
  mutable busy : float array;
      (** parallel engine: per-domain busy ms, slot 0 the caller; its
          length is the domain count actually used *)
  root : op;
}

val create : Alg_plan.t -> t
(** A zeroed tree for the plan. *)

val find : t -> Alg_plan.t -> op option
(** The node's record, by physical identity (each plan node appears
    once in a compiled tree). *)

val count_idx : op -> [ `Probe | `Guide | `Miss ] -> unit
(** Tick one Navigate binding's index outcome; safe from any domain. *)

val falls_back : Alg_plan.t -> bool
(** Operators the batch and parallel engines run on the tuple engine
    (nested-loop, merge and dependent joins, distinct). *)

val actual : t -> Alg_plan.t -> (int * float) option
(** (rows, inclusive ms) suitable as the [actual] argument of
    {!Alg_cost.explain_analyze}; [None] for nodes never pulled. *)

val cells : t -> Alg_plan.t -> string list
(** The engine's EXPLAIN ANALYZE cells for one node:
    - tuple: the [idx=probe:…/guide:…/miss:…] cell, once an index
      answered one of its Navigate bindings;
    - batch: [batches=… rows/batch=… fill=…] (plus the idx cell) for
      executed vectorized operators, [fused=select] for a select
      absorbed into its parent project, [fallback=tuple] for fallback
      roots;
    - parallel: [morsels=…] or [fallback=tuple] plus the idx cell; the
      plan root adds [domains=…] and [skew=MAX/MINms], the busiest
      vs. idlest domain's busy time. *)

val span : t -> Obs_span.t
(** The tree as a span tree, for the trace sink: rows, duration, and
    the batch or morsel count under those engines. *)
