(** Physical planning for the relational substrate.

    The planner turns the FROM/WHERE part of a SELECT into a physical
    plan: access paths per table (sequential scan, index equality, index
    range) and a join tree (hash join for equi-joins, nested loop
    otherwise).  Inner-join-only queries are reordered greedily by
    estimated cardinality; any outer join freezes the syntactic order
    and leaves the WHERE clause (but for the first table's conjuncts) to
    a filter above the joins.

    {!bind_select} then binds the whole statement: every column reference
    (scan filters, join keys and conditions, SELECT items, GROUP BY,
    HAVING, ORDER BY) is resolved to a slot of a positional row once, by
    {!Sql_eval.compile}.  A name that does not resolve fails here, before
    any row is read.  {!Sql_exec} runs the bound statement. *)

type catalog = {
  table_of : string -> Rel_table.t option;
}

type access =
  | Seq_scan
  | Index_eq of string * Value.t
      (** column and key (never NULL); served by a hash or B+tree index *)
  | Index_range of string * (Value.t * bool) option * (Value.t * bool) option
      (** column, lo bound, hi bound (value, inclusive); B+tree only *)

type plan =
  | Scan of {
      table : string;
      binding : string;  (** the alias; its columns bind as [alias.column] *)
      access : access;
      filter : Sql_ast.expr option;  (** residual single-table predicate *)
      est : float;
    }
  | Nl_join of {
      left : plan;
      right : plan;
      kind : Sql_ast.join_kind;
      cond : Sql_ast.expr option;
      est : float;
    }
  | Hash_join of {
      left : plan;
      right : plan;
      kind : Sql_ast.join_kind;
      left_key : Sql_ast.expr;   (** evaluated against left rows *)
      right_key : Sql_ast.expr;  (** evaluated against right rows *)
      residual : Sql_ast.expr option;
      est : float;
    }
  | Filter of { input : plan; pred : Sql_ast.expr; est : float }
      (** WHERE conjuncts no scan or join could take, over the joined
          rows (with an outer join: all but the first table's) *)

exception Plan_error of string

val plan_select : catalog -> Sql_ast.select -> plan option
(** [None] when the select has no FROM clause.  A comparison with a NULL
    literal never becomes an index access path. *)

(** {1 Binding} *)

type row = Value.t array
(** A positional row.  A plan's input row holds each scan's columns in
    schema order, scans in plan order, and resolves [alias.column] names
    under {!Sql_eval.slot}'s rules; a join row is its left row followed
    by its right row. *)

type node =
  | Scan_rows of { table : Rel_table.t; access : access; filter : (row -> bool) option }
      (** the filter reads the stored row *)
  | Join_rows of {
      left : node;
      right : node;
      outer : bool;  (** LEFT OUTER: a left row without match is padded with NULLs *)
      right_width : int;
      keys : ((row -> Value.t) * (row -> Value.t)) option;
          (** hash-join keys over the left and the right row; [None] joins
              every pair (nested loop) *)
      cond : (row -> bool) option;  (** over the joined row *)
    }
  | Filter_rows of { input : node; keep : row -> bool }

type item =
  | Value_item of (row -> Value.t)
  | Agg_item of Sql_ast.agg_fn * (row -> Value.t) option  (** over each input row *)

type statement = {
  names : string list;  (** output column names *)
  header : Tuple.header;  (** [names], checked once *)
  input : node option;  (** [None] without FROM: one empty input row *)
  input_width : int;
  grouped : bool;  (** GROUP BY or an aggregate item *)
  items : item list;  (** over the input row (a group's first row) *)
  group_by : (row -> Value.t) list;
  having : (row -> bool) option;
      (** over the output row followed by the group's first input row, so
          output names hide input columns *)
  order_by : ((row -> Value.t) * bool) list;  (** key and ascending *)
  order_by_input : bool;
      (** a key did not bind to the output names alone, so keys read the
          output row followed by its input row (never when [grouped]) *)
  distinct : bool;
  limit : int option;
}

val bind_select : catalog -> Sql_ast.select -> statement
(** Expand stars, name the outputs, plan and bind.
    @raise Plan_error for unknown tables and aliases or duplicate output
    names, {!Sql_eval.Eval_error} for unknown or ambiguous columns. *)

val bind_where : Rel_table.t -> Sql_ast.expr option -> row -> bool
(** UPDATE/DELETE [WHERE] over the table's stored rows (bare column
    names); [None] keeps every row.
    @raise Sql_eval.Eval_error for unknown columns. *)

val bind_set : Rel_table.t -> (string * Sql_ast.expr) list -> row -> row
(** UPDATE [SET]: a fresh row with the assignments applied, each
    expression reading the old row.
    @raise Sql_eval.Eval_error for unknown columns, targets included. *)

val estimated_rows : plan -> float

val bindings_of_plan : plan -> string list
(** Aliases produced, left to right. *)

val explain : plan -> string
(** Indented operator tree with access paths and estimates — the
    EXPLAIN output. *)

val selectivity : Sql_ast.expr -> float
(** Heuristic selectivity of a predicate (used for estimates). *)
