let value_literal v =
  match v with
  | Value.Null -> "NULL"
  | Value.Bool true -> "TRUE"
  | Value.Bool false -> "FALSE"
  | Value.Int i -> string_of_int i
  | Value.Float _ -> Value.to_string v
  | Value.String s ->
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '\'';
    String.iter
      (fun c -> if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '\'';
    Buffer.contents buf
  | Value.Date _ -> Printf.sprintf "DATE '%s'" (Value.to_string v)

let binop_str = function
  | Sql_ast.Add -> "+"
  | Sql_ast.Sub -> "-"
  | Sql_ast.Mul -> "*"
  | Sql_ast.Div -> "/"
  | Sql_ast.Eq -> "="
  | Sql_ast.Neq -> "<>"
  | Sql_ast.Lt -> "<"
  | Sql_ast.Le -> "<="
  | Sql_ast.Gt -> ">"
  | Sql_ast.Ge -> ">="
  | Sql_ast.And -> "AND"
  | Sql_ast.Or -> "OR"

(* Precedence levels matching the parser. *)
let prec = function
  | Sql_ast.Or -> 1
  | Sql_ast.And -> 2
  | Sql_ast.Eq | Sql_ast.Neq | Sql_ast.Lt | Sql_ast.Le | Sql_ast.Gt | Sql_ast.Ge -> 4
  | Sql_ast.Add | Sql_ast.Sub -> 5
  | Sql_ast.Mul | Sql_ast.Div -> 6

let rec expr_prec = function
  | Sql_ast.Col _ | Sql_ast.Lit _ | Sql_ast.Fncall _ -> 10
  | Sql_ast.Unop (Sql_ast.Neg, _) -> 7
  | Sql_ast.Unop (Sql_ast.Not, _) -> 3
  | Sql_ast.Binop (op, _, _) -> prec op
  | Sql_ast.Like _ | Sql_ast.In_list _ | Sql_ast.Between _ | Sql_ast.Is_null _
  | Sql_ast.Is_not_null _ -> 4

and expr_to_string e =
  let paren_ge level sub =
    let s = expr_to_string sub in
    if expr_prec sub < level then "(" ^ s ^ ")" else s
  in
  match e with
  | Sql_ast.Col (None, n) -> n
  | Sql_ast.Col (Some q, n) -> q ^ "." ^ n
  | Sql_ast.Lit v -> value_literal v
  | Sql_ast.Unop (Sql_ast.Neg, sub) -> "-" ^ paren_ge 7 sub
  | Sql_ast.Unop (Sql_ast.Not, sub) -> "NOT " ^ paren_ge 3 sub
  | Sql_ast.Binop (op, a, b) ->
    let level = prec op in
    (* Right operand needs strictly-higher precedence for left-assoc ops;
       AND/OR chains are parsed right-recursively but are associative, so
       equal precedence on the right is fine. *)
    let rhs_level =
      match op with Sql_ast.And | Sql_ast.Or -> level | _ -> level + 1
    in
    Printf.sprintf "%s %s %s" (paren_ge level a) (binop_str op) (paren_ge rhs_level b)
  | Sql_ast.Fncall (name, args) ->
    Printf.sprintf "%s(%s)" name (String.concat ", " (List.map expr_to_string args))
  | Sql_ast.Like (sub, pat) ->
    Printf.sprintf "%s LIKE %s" (paren_ge 5 sub) (value_literal (Value.String pat))
  | Sql_ast.In_list (sub, es) ->
    Printf.sprintf "%s IN (%s)" (paren_ge 5 sub)
      (String.concat ", " (List.map expr_to_string es))
  | Sql_ast.Between (sub, lo, hi) ->
    Printf.sprintf "%s BETWEEN %s AND %s" (paren_ge 5 sub) (paren_ge 5 lo) (paren_ge 5 hi)
  | Sql_ast.Is_null sub -> Printf.sprintf "%s IS NULL" (paren_ge 5 sub)
  | Sql_ast.Is_not_null sub -> Printf.sprintf "%s IS NOT NULL" (paren_ge 5 sub)

let select_item_to_string = function
  | Sql_ast.Star -> "*"
  | Sql_ast.Qualified_star q -> q ^ ".*"
  | Sql_ast.Expr_item (e, None) -> expr_to_string e
  | Sql_ast.Expr_item (e, Some a) -> Printf.sprintf "%s AS %s" (expr_to_string e) a
  | Sql_ast.Agg_item (Sql_ast.Count_star, _, alias) ->
    "COUNT(*)" ^ (match alias with Some a -> " AS " ^ a | None -> "")
  | Sql_ast.Agg_item (fn, arg, alias) ->
    Printf.sprintf "%s(%s)%s" (Sql_ast.agg_fn_name fn)
      (match arg with Some e -> expr_to_string e | None -> "*")
      (match alias with Some a -> " AS " ^ a | None -> "")

let table_ref_to_string { Sql_ast.table; alias } =
  match alias with
  | Some a when a <> table -> Printf.sprintf "%s AS %s" table a
  | Some _ | None -> table

let rec from_to_string = function
  | Sql_ast.From_table tr -> table_ref_to_string tr
  | Sql_ast.From_join (lhs, kind, rhs, cond) ->
    let kw = match kind with Sql_ast.Inner -> "JOIN" | Sql_ast.Left_outer -> "LEFT JOIN" in
    Printf.sprintf "%s %s %s ON %s" (from_to_string lhs) kw (table_ref_to_string rhs)
      (expr_to_string cond)

let select_to_string s =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "SELECT ";
  if s.Sql_ast.distinct then Buffer.add_string buf "DISTINCT ";
  Buffer.add_string buf (String.concat ", " (List.map select_item_to_string s.Sql_ast.items));
  (match s.Sql_ast.from with
  | Some f ->
    Buffer.add_string buf " FROM ";
    Buffer.add_string buf (from_to_string f)
  | None -> ());
  (match s.Sql_ast.where with
  | Some w ->
    Buffer.add_string buf " WHERE ";
    Buffer.add_string buf (expr_to_string w)
  | None -> ());
  (match s.Sql_ast.group_by with
  | [] -> ()
  | es ->
    Buffer.add_string buf " GROUP BY ";
    Buffer.add_string buf (String.concat ", " (List.map expr_to_string es)));
  (match s.Sql_ast.having with
  | Some h ->
    Buffer.add_string buf " HAVING ";
    Buffer.add_string buf (expr_to_string h)
  | None -> ());
  (match s.Sql_ast.order_by with
  | [] -> ()
  | items ->
    Buffer.add_string buf " ORDER BY ";
    Buffer.add_string buf
      (String.concat ", "
         (List.map
            (fun { Sql_ast.order_expr; ascending } ->
              expr_to_string order_expr ^ if ascending then "" else " DESC")
            items)));
  (match s.Sql_ast.limit with
  | Some n -> Buffer.add_string buf (Printf.sprintf " LIMIT %d" n)
  | None -> ());
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Canonical rendering: the exact-key fragment cache keys on this, so  *)
(* cosmetic differences between structurally identical fragments       *)
(* (alias names chosen by different compilations, conjunct order) must *)
(* normalize away.  Aliases are renumbered t0..tn in FROM order, WHERE *)
(* and HAVING conjuncts are sorted by their rendered text, and the     *)
(* printer itself never emits redundant whitespace.                    *)
(* ------------------------------------------------------------------ *)

let rec from_tables = function
  | Sql_ast.From_table tr -> [ tr ]
  | Sql_ast.From_join (lhs, _, rhs, _) -> from_tables lhs @ [ rhs ]

let canonical_select s =
  let tables = match s.Sql_ast.from with Some f -> from_tables f | None -> [] in
  let alias_map =
    List.concat
      (List.mapi
         (fun i { Sql_ast.table; alias } ->
           let canon = Printf.sprintf "t%d" i in
           let of_name n = (n, canon) in
           match alias with
           | Some a when a <> table -> [ of_name a; of_name table ]
           | _ -> [ of_name table ])
         tables)
  in
  (* With a single unaliased table the qualifier is dropped entirely:
     [SELECT c FROM x] and [SELECT x.c FROM x] key identically. *)
  let single_plain =
    match tables with [ { Sql_ast.alias = None; _ } ] -> true | _ -> false
  in
  let requalify q =
    if single_plain then None
    else
      match q with
      | None -> None
      | Some name -> Some (Option.value (List.assoc_opt name alias_map) ~default:name)
  in
  let rec canon_expr e =
    match e with
    | Sql_ast.Col (q, n) -> Sql_ast.Col (requalify q, n)
    | Sql_ast.Lit _ -> e
    | Sql_ast.Unop (op, a) -> Sql_ast.Unop (op, canon_expr a)
    | Sql_ast.Binop (op, a, b) -> Sql_ast.Binop (op, canon_expr a, canon_expr b)
    | Sql_ast.Fncall (f, args) -> Sql_ast.Fncall (f, List.map canon_expr args)
    | Sql_ast.Like (a, pat) -> Sql_ast.Like (canon_expr a, pat)
    | Sql_ast.In_list (a, es) -> Sql_ast.In_list (canon_expr a, List.map canon_expr es)
    | Sql_ast.Between (a, lo, hi) ->
      Sql_ast.Between (canon_expr a, canon_expr lo, canon_expr hi)
    | Sql_ast.Is_null a -> Sql_ast.Is_null (canon_expr a)
    | Sql_ast.Is_not_null a -> Sql_ast.Is_not_null (canon_expr a)
  in
  let canon_where = function
    | None -> None
    | Some w ->
      let sorted =
        List.sort_uniq compare
          (List.map (fun c -> expr_to_string (canon_expr c)) (Sql_ast.conjuncts w))
      in
      (* Conjuncts are re-parsed positionally: rebuild from the sorted
         renderings by keeping the canonicalized exprs in that order. *)
      let by_render =
        List.map (fun c -> (expr_to_string (canon_expr c), canon_expr c)) (Sql_ast.conjuncts w)
      in
      Sql_ast.conjoin (List.filter_map (fun r -> List.assoc_opt r by_render) sorted)
  in
  let canon_item = function
    | Sql_ast.Star -> Sql_ast.Star
    | Sql_ast.Qualified_star q ->
      Sql_ast.Qualified_star (Option.value (List.assoc_opt q alias_map) ~default:q)
    | Sql_ast.Expr_item (e, a) -> Sql_ast.Expr_item (canon_expr e, a)
    | Sql_ast.Agg_item (fn, arg, a) -> Sql_ast.Agg_item (fn, Option.map canon_expr arg, a)
  in
  (* Tables are renumbered positionally (a self-join's two arms must
     not share one canonical alias). *)
  let next = ref 0 in
  let canon_table { Sql_ast.table; alias = _ } =
    let i = !next in
    incr next;
    if single_plain then { Sql_ast.table; alias = None }
    else { Sql_ast.table; alias = Some (Printf.sprintf "t%d" i) }
  in
  let rec canon_from = function
    | Sql_ast.From_table tr -> Sql_ast.From_table (canon_table tr)
    | Sql_ast.From_join (lhs, kind, rhs, cond) ->
      let lhs = canon_from lhs in
      let rhs = canon_table rhs in
      Sql_ast.From_join (lhs, kind, rhs, canon_expr cond)
  in
  select_to_string
    {
      s with
      Sql_ast.items = List.map canon_item s.Sql_ast.items;
      from = Option.map canon_from s.Sql_ast.from;
      where = canon_where s.Sql_ast.where;
      group_by = List.map canon_expr s.Sql_ast.group_by;
      having = canon_where s.Sql_ast.having;
      order_by =
        List.map
          (fun oi -> { oi with Sql_ast.order_expr = canon_expr oi.Sql_ast.order_expr })
          s.Sql_ast.order_by;
    }

let ty_sql = function
  | Value.TInt -> "INT"
  | Value.TFloat -> "FLOAT"
  | Value.TString -> "TEXT"
  | Value.TBool -> "BOOLEAN"
  | Value.TDate -> "DATE"
  | Value.TNull -> "TEXT"

let statement_to_string = function
  | Sql_ast.Select s -> select_to_string s
  | Sql_ast.Create_table (name, defs) ->
    let def d =
      Printf.sprintf "%s %s%s%s" d.Sql_ast.cd_name (ty_sql d.Sql_ast.cd_ty)
        (if d.Sql_ast.cd_primary then " PRIMARY KEY" else "")
        (if (not d.Sql_ast.cd_nullable) && not d.Sql_ast.cd_primary then " NOT NULL" else "")
    in
    Printf.sprintf "CREATE TABLE %s (%s)" name (String.concat ", " (List.map def defs))
  | Sql_ast.Create_index { unique_ignored; index_table; index_column; btree } ->
    Printf.sprintf "CREATE %sINDEX ON %s (%s) USING %s"
      (if unique_ignored then "UNIQUE " else "")
      index_table index_column
      (if btree then "BTREE" else "HASH")
  | Sql_ast.Insert (name, cols, rows) ->
    let cols_str =
      match cols with
      | Some cs -> Printf.sprintf " (%s)" (String.concat ", " cs)
      | None -> ""
    in
    let row vs = Printf.sprintf "(%s)" (String.concat ", " (List.map value_literal vs)) in
    Printf.sprintf "INSERT INTO %s%s VALUES %s" name cols_str
      (String.concat ", " (List.map row rows))
  | Sql_ast.Update (name, assigns, where) ->
    Printf.sprintf "UPDATE %s SET %s%s" name
      (String.concat ", "
         (List.map (fun (cname, e) -> Printf.sprintf "%s = %s" cname (expr_to_string e)) assigns))
      (match where with Some w -> " WHERE " ^ expr_to_string w | None -> "")
  | Sql_ast.Delete (name, where) ->
    Printf.sprintf "DELETE FROM %s%s" name
      (match where with Some w -> " WHERE " ^ expr_to_string w | None -> "")
  | Sql_ast.Drop_table name -> Printf.sprintf "DROP TABLE %s" name
