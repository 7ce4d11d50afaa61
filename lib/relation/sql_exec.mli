(** Execution of SELECT statements over a catalog of tables.

    A statement is bound once by {!Sql_plan.bind_select}; execution then
    runs on positional rows ([Value.t array]): scans hand out the stored
    rows of {!Rel_table}, joins concatenate rows at offsets fixed at bind
    time, and names are attached only to the output rows, from one shared
    header.  Grouping, HAVING, DISTINCT, ORDER BY and LIMIT follow
    standard SQL semantics (NULLs sort first; UNKNOWN predicates drop
    rows). *)

val run_select : Sql_plan.catalog -> Sql_ast.select -> string list * Tuple.t list
(** Bind and run: the output column names and the rows.
    @raise Sql_plan.Plan_error and {!Sql_eval.Eval_error} at bind time
    (unknown table, alias or column), {!Sql_eval.Eval_error} on type
    errors while running. *)
