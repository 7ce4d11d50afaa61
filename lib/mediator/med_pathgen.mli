(** The path half of the query compiler: pushing pattern preselection
    into XML stores that declare the [can_path] capability.

    From a clause pattern we derive a path whose matches are a
    {e superset} of the elements the pattern matches —
    [descendant-or-self::tag] with necessary-condition predicates from
    literal attributes, attribute presence, child-tag existence, literal
    child text and the clause's numeric comparisons.  The engine then
    runs full pattern matching only on the returned candidates, so far
    fewer tree nodes cross the simulated network.

    Soundness rule: every derived predicate must be {e implied} by the
    pattern and the WHERE conditions (never narrower), so preselection
    can only drop guaranteed non-matches.  The conditions stay in the
    plan as residual selections, so answers never depend on how tight
    the path is.

    {b Numeric ranges.}  A condition [$v op literal] ([op] one of
    [= < <= > >=], either side, the literal an [Int] or [Float], under
    any nesting of [AND]) becomes an [Xml_path.Num_range] when [$v] is
    the whole content of a [<tag>$v</tag>] child of the pattern root or
    an [attr=$v] of the root.  Every such condition on one [$v] conjoins
    into one interval on that child (attribute): one variable is one
    child, so the interval is exact, not two existentials that different
    repeated children could satisfy.  Where bounds on one side compete,
    the tighter one is kept; any single conjunct is implied, so this
    only affects selectivity.  The predicate admits a child that is not a
    single numeric atom (strings, dates, booleans, empty, nested, mixed),
    because the mediator's [Value.compare] ranks can accept it.  An
    [Int] literal at or beyond 2^53 in magnitude becomes an inclusive
    [Float] bound: another binding of [$v] that [Value.compare] calls
    equal may then be the one the condition reads, and only the float
    comparison is implied for both. *)

val compile_pattern : Xq_ast.pattern -> Alg_expr.t list -> Xml_path.t option
(** [compile_pattern pattern conditions]; [conditions] are the WHERE
    conjuncts still unpushed when the clause is planned.  [None] when no
    useful narrowing exists (wildcard tag). *)
