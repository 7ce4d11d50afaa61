(** SQL expressions with SQL's three-valued logic ([Value.Null] plays
    UNKNOWN).

    {!compile} is the one implementation of the expression semantics: it
    resolves every column reference to a slot of a positional row once,
    against a {!scope}, and returns a closure over the row.  The SQL
    executor binds each statement this way; {!eval} and {!eval_pred}
    evaluate against one named tuple by compiling over its fields. *)

exception Eval_error of string

(** {1 Scopes} *)

type scope
(** The field names an expression may reference, each with the slot it
    reads.  Order matters: the first exact match wins. *)

val scope : string list -> scope
(** The [i]-th name reads slot [i].  When a name repeats, its first
    occurrence hides the later ones (the rule of [Tuple.concat]). *)

val slot : scope -> string option -> string -> int
(** Column resolution.  A qualified reference [q.c] matches a field named
    [q.c], else a field named [c].  An unqualified [c] matches a field
    named exactly, else the unique field with the suffix [.c].
    @raise Eval_error [unknown column x] or [ambiguous column x]. *)

(** {1 Compilation} *)

val compile : scope -> Sql_ast.expr -> Value.t array -> Value.t
(** Bind every column reference (raising {!Eval_error} now, whether or
    not any row is later evaluated) and return the evaluator.
    Comparisons return [Bool] or [Null]; [And]/[Or] follow Kleene logic.
    The evaluator raises {!Eval_error} on type errors and unknown
    functions. *)

val compile_pred : scope -> Sql_ast.expr -> Value.t array -> bool
(** True only when the expression evaluates to a truthy non-null value —
    SQL WHERE semantics (UNKNOWN rows are dropped). *)

(** {1 By-name evaluation} *)

val eval : Tuple.t -> Sql_ast.expr -> Value.t
(** {!compile} over the tuple's fields, applied to its values. *)

val eval_pred : Tuple.t -> Sql_ast.expr -> bool
(** {!compile_pred} over the tuple's fields, applied to its values. *)

val like_match : pattern:string -> string -> bool
(** SQL LIKE with [%] (any run) and [_] (any single char), case
    sensitive. *)

val scalar_functions : string list
(** Names accepted by [Fncall]: upper, lower, length, abs, coalesce,
    substr, trim, round, concat. *)
