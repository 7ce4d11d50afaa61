(* Tests for the relational substrate: B+tree, table storage, SQL
   lexer/parser/printer, evaluation, planning and execution. *)

let check = Alcotest.check
let string_t = Alcotest.string
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let value_t = Alcotest.testable (fun ppf v -> Value.pp ppf v) Value.equal

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0


(* ------------------------------------------------------------------ *)
(* B+tree                                                              *)
(* ------------------------------------------------------------------ *)

let test_btree_insert_find () =
  let bt = Rel_btree.create ~cmp:Int.compare () in
  for i = 0 to 999 do
    Rel_btree.insert bt (i mod 100) i
  done;
  check int_t "size" 1000 (Rel_btree.size bt);
  check int_t "ten per key" 10 (List.length (Rel_btree.find_all bt 5));
  check (Alcotest.list int_t) "insertion order"
    [ 5; 105; 205; 305; 405; 505; 605; 705; 805; 905 ]
    (Rel_btree.find_all bt 5);
  check bool_t "invariants" true (Rel_btree.check_invariants bt)

let test_btree_range () =
  let bt = Rel_btree.create ~order:4 ~cmp:Int.compare () in
  List.iter (fun i -> Rel_btree.insert bt i (i * 10)) [ 5; 1; 9; 3; 7; 2; 8; 4; 6; 0 ];
  let keys lo hi = List.map fst (Rel_btree.range bt ?lo ?hi ()) in
  check (Alcotest.list int_t) "closed range" [ 3; 4; 5 ] (keys (Some (3, true)) (Some (5, true)));
  check (Alcotest.list int_t) "open range" [ 4 ] (keys (Some (3, false)) (Some (5, false)));
  check (Alcotest.list int_t) "unbounded low" [ 0; 1; 2 ] (keys None (Some (2, true)));
  check (Alcotest.list int_t) "unbounded high" [ 8; 9 ] (keys (Some (8, true)) None);
  check (Alcotest.list int_t) "full" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (keys None None)

let test_btree_remove () =
  let bt = Rel_btree.create ~order:4 ~cmp:Int.compare () in
  for i = 0 to 99 do
    Rel_btree.insert bt i i
  done;
  check bool_t "remove present" true (Rel_btree.remove bt 50 50);
  check bool_t "remove absent" false (Rel_btree.remove bt 50 50);
  check int_t "size after" 99 (Rel_btree.size bt);
  check bool_t "gone" false (Rel_btree.mem bt 50);
  check bool_t "invariants hold" true (Rel_btree.check_invariants bt)

let test_btree_height_logarithmic () =
  let bt = Rel_btree.create ~order:8 ~cmp:Int.compare () in
  for i = 0 to 9999 do
    Rel_btree.insert bt i i
  done;
  check bool_t "height stays small" true (Rel_btree.height bt <= 7)

let prop_btree_matches_model =
  QCheck2.Test.make ~name:"btree agrees with assoc-list model" ~count:100
    QCheck2.Gen.(small_list (pair (int_bound 20) (oneofl [ `Ins; `Del ])))
    (fun ops ->
      let bt = Rel_btree.create ~order:4 ~cmp:Int.compare () in
      let model = Hashtbl.create 16 in
      let counter = ref 0 in
      List.iter
        (fun (k, op) ->
          match op with
          | `Ins ->
            incr counter;
            Rel_btree.insert bt k !counter;
            Hashtbl.replace model k (Option.value ~default:[] (Hashtbl.find_opt model k) @ [ !counter ])
          | `Del -> (
            match Hashtbl.find_opt model k with
            | Some (v :: rest) ->
              ignore (Rel_btree.remove bt k v);
              if rest = [] then Hashtbl.remove model k else Hashtbl.replace model k rest
            | Some [] | None -> ignore (Rel_btree.remove bt k (-1))))
        ops;
      Rel_btree.check_invariants bt
      && Hashtbl.fold (fun k vs acc -> acc && Rel_btree.find_all bt k = vs) model true)

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let people_schema () =
  Dschema.relational "people"
    [
      Dschema.column "id" Value.TInt;
      Dschema.column "name" Value.TString;
      Dschema.column ~nullable:true "age" Value.TInt;
    ]

let mk_people () =
  let t = Rel_table.create ~primary_key:"id" (people_schema ()) in
  let add id name age =
    ignore
      (Rel_table.insert t
         (Tuple.make [ ("id", Value.Int id); ("name", Value.String name); ("age", age) ]))
  in
  add 1 "Ann" (Value.Int 34);
  add 2 "Bob" (Value.Int 28);
  add 3 "Cid" Value.Null;
  t

let test_table_insert_scan () =
  let t = mk_people () in
  check int_t "rows" 3 (Rel_table.row_count t);
  check int_t "scan sees all" 3 (List.length (Rel_table.to_list t))

let test_table_pk_violation () =
  let t = mk_people () in
  try
    ignore
      (Rel_table.insert t
         (Tuple.make [ ("id", Value.Int 1); ("name", Value.String "dup"); ("age", Value.Null) ]));
    Alcotest.fail "expected PK violation"
  with Rel_table.Constraint_violation _ -> ()

let test_table_delete_update () =
  let t = mk_people () in
  let n = Rel_table.delete_where t (fun tup -> Tuple.get_exn tup "id" = Value.Int 2) in
  check int_t "one deleted" 1 n;
  check int_t "two left" 2 (Rel_table.row_count t);
  let n =
    Rel_table.update_where t
      (fun tup -> Tuple.get_exn tup "name" = Value.String "Ann")
      (fun tup -> Tuple.set tup "age" (Value.Int 35))
  in
  check int_t "one updated" 1 n

let test_table_index_lookup () =
  let t = mk_people () in
  Rel_table.create_index t ~kind:Rel_table.Hash_index "name";
  let rows = Rel_table.lookup_eq t "name" (Value.String "Bob") in
  check int_t "found via hash index" 1 (List.length rows);
  Rel_table.create_index t ~kind:Rel_table.Btree_index "id";
  let rows = Rel_table.lookup_range t "id" ~lo:(Value.Int 2, true) () in
  check int_t "range via btree" 2 (List.length rows);
  check bool_t "eq served" true (Rel_table.index_served t "name" `Eq);
  check bool_t "range not served by hash" false (Rel_table.index_served t "name" `Range);
  check bool_t "range served by btree" true (Rel_table.index_served t "id" `Range)

let test_table_index_maintained_on_mutation () =
  let t = mk_people () in
  Rel_table.create_index t ~kind:Rel_table.Btree_index "id";
  ignore (Rel_table.delete_where t (fun tup -> Tuple.get_exn tup "id" = Value.Int 2));
  check int_t "index misses deleted" 0
    (List.length (Rel_table.lookup_eq t "id" (Value.Int 2)));
  ignore
    (Rel_table.update_where t
       (fun tup -> Tuple.get_exn tup "id" = Value.Int 3)
       (fun tup -> Tuple.set tup "id" (Value.Int 30)));
  check int_t "index follows update" 1
    (List.length (Rel_table.lookup_eq t "id" (Value.Int 30)))

let test_table_coercion () =
  let t = mk_people () in
  ignore
    (Rel_table.insert t
       (Tuple.make
          [ ("name", Value.String "Dee"); ("id", Value.String "4"); ("age", Value.Int 20) ]));
  let rows = Rel_table.lookup_eq t "id" (Value.Int 4) in
  check int_t "string id coerced to int" 1 (List.length rows)

(* ------------------------------------------------------------------ *)
(* SQL parse / print roundtrip                                         *)
(* ------------------------------------------------------------------ *)

let test_sql_roundtrip () =
  let cases =
    [
      "SELECT * FROM t";
      "SELECT a, b AS bee FROM t WHERE a = 1 AND b < 2.5";
      "SELECT DISTINCT a FROM t ORDER BY a DESC LIMIT 3";
      "SELECT t.a, u.b FROM t JOIN u ON t.id = u.id WHERE t.a LIKE 'x%'";
      "SELECT a FROM t LEFT JOIN u ON t.id = u.id";
      "SELECT COUNT(*) AS n, SUM(x) AS s FROM t GROUP BY k HAVING n > 2";
      "SELECT a FROM t WHERE a IN (1, 2, 3) OR b BETWEEN 1 AND 9";
      "SELECT a FROM t WHERE a IS NOT NULL AND b IS NULL";
      "SELECT upper(name) FROM t WHERE NOT (a = 1 OR b = 2)";
      "SELECT a FROM t WHERE d = DATE '2001-04-02'";
    ]
  in
  List.iter
    (fun s ->
      let ast = Sql_parser.parse_exn s in
      let printed = Sql_print.statement_to_string ast in
      let ast2 = Sql_parser.parse_exn printed in
      let printed2 = Sql_print.statement_to_string ast2 in
      check string_t ("roundtrip fixpoint: " ^ s) printed printed2)
    cases

let test_sql_parse_errors () =
  List.iter
    (fun s ->
      match Sql_parser.parse s with
      | Ok _ -> Alcotest.failf "expected parse error for %S" s
      | Error _ -> ())
    [
      "";
      "SELECT";
      "SELECT FROM t";
      "SELECT * FROM";
      "SELECT * FROM t WHERE";
      "SELECT * FROM t GROUP";
      "INSERT INTO t";
      "SELECT SUM(*) FROM t";
      "SELECT * FROM t LIMIT x";
      "CREATE TABLE t (a INT,)";
    ]

let test_sql_precedence () =
  let e = Sql_parser.parse_expr_exn "1 + 2 * 3 = 7 AND NOT a OR b" in
  (* ((1 + (2*3)) = 7 AND (NOT a)) OR b *)
  match e with
  | Sql_ast.Binop (Sql_ast.Or, Sql_ast.Binop (Sql_ast.And, _, Sql_ast.Unop (Sql_ast.Not, _)), _) -> ()
  | _ -> Alcotest.fail "unexpected precedence parse"

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

let eval_str tup s = Sql_eval.eval tup (Sql_parser.parse_expr_exn s)

let test_eval_three_valued () =
  let tup = Tuple.make [ ("a", Value.Null); ("b", Value.Int 1) ] in
  check value_t "null = 1 is unknown" Value.Null (eval_str tup "a = 1");
  check value_t "unknown AND false is false" (Value.Bool false) (eval_str tup "a = 1 AND b = 2");
  check value_t "unknown OR true is true" (Value.Bool true) (eval_str tup "a = 1 OR b = 1");
  check value_t "not unknown is unknown" Value.Null (eval_str tup "NOT (a = 1)");
  check bool_t "where drops unknown" false
    (Sql_eval.eval_pred tup (Sql_parser.parse_expr_exn "a = 1"))

let test_eval_like () =
  check bool_t "%x%" true (Sql_eval.like_match ~pattern:"%x%" "axb");
  check bool_t "prefix" true (Sql_eval.like_match ~pattern:"ab%" "abc");
  check bool_t "underscore" true (Sql_eval.like_match ~pattern:"a_c" "abc");
  check bool_t "no match" false (Sql_eval.like_match ~pattern:"a_c" "abbc");
  check bool_t "empty pattern" false (Sql_eval.like_match ~pattern:"" "x");
  check bool_t "only percent" true (Sql_eval.like_match ~pattern:"%" "anything");
  check bool_t "anchored" false (Sql_eval.like_match ~pattern:"x%" "ax")

let test_eval_functions () =
  let tup = Tuple.make [ ("s", Value.String " Ab ") ] in
  check value_t "upper" (Value.String " AB ") (eval_str tup "upper(s)");
  check value_t "trim" (Value.String "Ab") (eval_str tup "trim(s)");
  check value_t "length" (Value.Int 4) (eval_str tup "length(s)");
  check value_t "coalesce" (Value.Int 3) (eval_str tup "coalesce(NULL, 3, 4)");
  check value_t "substr" (Value.String "bc") (eval_str tup "substr('abcd', 2, 2)");
  check value_t "concat" (Value.String "a-b") (eval_str tup "concat('a', '-', 'b')")

let test_eval_resolution () =
  let tup = Tuple.make [ ("t.a", Value.Int 1); ("u.a", Value.Int 2); ("u.b", Value.Int 3) ] in
  check value_t "qualified" (Value.Int 2) (eval_str tup "u.a");
  check value_t "unique suffix" (Value.Int 3) (eval_str tup "b");
  (try
     ignore (eval_str tup "a");
     Alcotest.fail "expected ambiguity error"
   with Sql_eval.Eval_error _ -> ())

(* ------------------------------------------------------------------ *)
(* End-to-end SQL on a database                                        *)
(* ------------------------------------------------------------------ *)

let mk_db () =
  let db = Rel_db.create ~name:"test" () in
  let stmts =
    [
      "CREATE TABLE dept (id INT PRIMARY KEY, dname TEXT NOT NULL)";
      "CREATE TABLE emp (id INT PRIMARY KEY, name TEXT NOT NULL, dept_id INT, salary FLOAT)";
      "INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'empty')";
      "INSERT INTO emp VALUES (1, 'Ann', 1, 100.0), (2, 'Bob', 1, 80.0), \
       (3, 'Cid', 2, 90.0), (4, 'Dee', NULL, 70.0)";
    ]
  in
  List.iter (fun s -> ignore (Rel_db.exec db s)) stmts;
  db

let q db s = Rel_db.query db s

let test_db_select_where () =
  let db = mk_db () in
  check int_t "filter" 2 (List.length (q db "SELECT * FROM emp WHERE salary >= 90"));
  check int_t "like" 1 (List.length (q db "SELECT * FROM emp WHERE name LIKE 'A%'"))

let test_db_projection_names () =
  let db = mk_db () in
  let names, rows = Rel_db.query_names db "SELECT name AS who, salary FROM emp WHERE id = 1" in
  check (Alcotest.list string_t) "names" [ "who"; "salary" ] names;
  check (Alcotest.option value_t) "value" (Some (Value.String "Ann"))
    (Tuple.get (List.hd rows) "who")

let test_db_join () =
  let db = mk_db () in
  let rows =
    q db "SELECT e.name, d.dname FROM emp e JOIN dept d ON e.dept_id = d.id ORDER BY e.name"
  in
  check int_t "three joined (Dee has NULL dept)" 3 (List.length rows);
  check (Alcotest.option value_t) "first by name" (Some (Value.String "Ann"))
    (Tuple.get (List.hd rows) "name")

let test_db_left_join () =
  let db = mk_db () in
  let rows =
    q db
      "SELECT e.name, d.dname FROM emp e LEFT JOIN dept d ON e.dept_id = d.id ORDER BY e.name"
  in
  check int_t "all four kept" 4 (List.length rows);
  let dee = List.find (fun r -> Tuple.get r "name" = Some (Value.String "Dee")) rows in
  check (Alcotest.option value_t) "padded null" (Some Value.Null) (Tuple.get dee "dname")

let test_db_group_by () =
  let db = mk_db () in
  let rows =
    q db
      "SELECT dept_id, COUNT(*) AS n, AVG(salary) AS avg_sal FROM emp \
       WHERE dept_id IS NOT NULL GROUP BY dept_id ORDER BY dept_id"
  in
  check int_t "two groups" 2 (List.length rows);
  check (Alcotest.option value_t) "count of dept 1" (Some (Value.Int 2))
    (Tuple.get (List.hd rows) "n");
  check (Alcotest.option value_t) "avg of dept 1" (Some (Value.Float 90.0))
    (Tuple.get (List.hd rows) "avg_sal")

let test_db_having () =
  let db = mk_db () in
  let rows =
    q db "SELECT dept_id, COUNT(*) AS n FROM emp GROUP BY dept_id HAVING n >= 2"
  in
  check int_t "only dept 1" 1 (List.length rows)

let test_db_agg_without_group () =
  let db = mk_db () in
  let rows = q db "SELECT COUNT(*) AS n, MAX(salary) AS m FROM emp" in
  check int_t "single row" 1 (List.length rows);
  check (Alcotest.option value_t) "count" (Some (Value.Int 4)) (Tuple.get (List.hd rows) "n");
  check (Alcotest.option value_t) "max" (Some (Value.Float 100.0)) (Tuple.get (List.hd rows) "m")

let test_db_order_limit_distinct () =
  let db = mk_db () in
  let rows = q db "SELECT salary FROM emp ORDER BY salary DESC LIMIT 2" in
  check (Alcotest.list value_t) "top 2"
    [ Value.Float 100.0; Value.Float 90.0 ]
    (List.map (fun r -> Tuple.get_exn r "salary") rows);
  let rows = q db "SELECT DISTINCT dept_id FROM emp WHERE dept_id IS NOT NULL" in
  check int_t "distinct" 2 (List.length rows)

let test_db_update_delete () =
  let db = mk_db () in
  (match Rel_db.exec db "UPDATE emp SET salary = salary + 10 WHERE dept_id = 1" with
  | Rel_db.Affected n -> check int_t "two raises" 2 n
  | _ -> Alcotest.fail "expected Affected");
  let rows = q db "SELECT salary FROM emp WHERE name = 'Ann'" in
  check (Alcotest.option value_t) "raised" (Some (Value.Float 110.0))
    (Tuple.get (List.hd rows) "salary");
  (match Rel_db.exec db "DELETE FROM emp WHERE salary < 80" with
  | Rel_db.Affected n -> check int_t "one deleted" 1 n
  | _ -> Alcotest.fail "expected Affected");
  check int_t "three remain" 3 (List.length (q db "SELECT * FROM emp"))

let test_db_insert_column_list () =
  let db = mk_db () in
  ignore (Rel_db.exec db "INSERT INTO emp (id, name) VALUES (9, 'Zed')");
  let rows = q db "SELECT * FROM emp WHERE id = 9" in
  check (Alcotest.option value_t) "defaults null" (Some Value.Null)
    (Tuple.get (List.hd rows) "salary")

let test_db_index_used_in_plan () =
  let db = mk_db () in
  ignore (Rel_db.exec db "CREATE INDEX ON emp (salary) USING BTREE");
  let plan = Rel_db.explain db "SELECT * FROM emp WHERE salary > 85" in
  check bool_t "range index used" true
    (contains plan "index-range");
  let plan2 = Rel_db.explain db "SELECT * FROM emp WHERE id = 2" in
  check bool_t "pk index used" true (contains plan2 "index-eq")

let test_db_index_vs_scan_same_rows () =
  let db = mk_db () in
  let before = q db "SELECT name FROM emp WHERE salary > 75 ORDER BY name" in
  ignore (Rel_db.exec db "CREATE INDEX ON emp (salary) USING BTREE");
  let after = q db "SELECT name FROM emp WHERE salary > 75 ORDER BY name" in
  check int_t "same cardinality" (List.length before) (List.length after);
  List.iter2
    (fun a b -> check bool_t "same rows" true (Tuple.equal a b))
    before after

let test_db_errors () =
  let db = mk_db () in
  let expect_err s =
    try
      ignore (Rel_db.exec db s);
      Alcotest.failf "expected Sql_error for %S" s
    with Rel_db.Sql_error _ -> ()
  in
  expect_err "SELECT * FROM missing";
  expect_err "SELECT nosuch FROM emp";
  expect_err "INSERT INTO dept VALUES (1, 'dup')";
  expect_err "CREATE TABLE dept (id INT)";
  expect_err "DROP TABLE missing";
  expect_err "SELECT * FROM emp WHERE";
  expect_err "INSERT INTO emp (id) VALUES (1, 2)"

let test_db_cross_product () =
  let db = mk_db () in
  let rows = q db "SELECT e.id, d.id FROM emp e, dept d" in
  check int_t "4 x 3" 12 (List.length rows)

let test_db_three_way_join () =
  let db = mk_db () in
  ignore (Rel_db.exec db "CREATE TABLE loc (dept_id INT, city TEXT)");
  ignore (Rel_db.exec db "INSERT INTO loc VALUES (1, 'SEA'), (2, 'NYC')");
  let rows =
    q db
      "SELECT e.name, d.dname, l.city FROM emp e \
       JOIN dept d ON e.dept_id = d.id JOIN loc l ON l.dept_id = d.id \
       WHERE l.city = 'SEA' ORDER BY e.name"
  in
  check int_t "two in SEA" 2 (List.length rows)

let test_db_null_semantics () =
  let db = mk_db () in
  (* NULL never equals anything, and IN with NULL follows SQL rules. *)
  check int_t "dept_id = NULL matches nothing" 0
    (List.length (q db "SELECT * FROM emp WHERE dept_id = NULL"));
  check int_t "IS NULL finds Dee" 1
    (List.length (q db "SELECT * FROM emp WHERE dept_id IS NULL"));
  check int_t "NOT of unknown drops row" 3
    (List.length (q db "SELECT * FROM emp WHERE NOT (dept_id = 99)"));
  check int_t "IN list with match" 2
    (List.length (q db "SELECT * FROM emp WHERE dept_id IN (1, 7)"));
  check int_t "BETWEEN over null is unknown" 3
    (List.length (q db "SELECT * FROM emp WHERE dept_id BETWEEN 0 AND 9"))

let test_db_having_on_aggregate_expression () =
  let db = mk_db () in
  let rows =
    q db
      "SELECT dept_id, SUM(salary) AS total FROM emp WHERE dept_id IS NOT NULL        GROUP BY dept_id HAVING total > 100 ORDER BY total DESC"
  in
  check int_t "one heavy dept" 1 (List.length rows);
  check (Alcotest.option value_t) "dept 1 total" (Some (Value.Float 180.0))
    (Tuple.get (List.hd rows) "total")

let test_db_order_by_expression () =
  let db = mk_db () in
  let rows = q db "SELECT name, salary FROM emp ORDER BY salary * -1 LIMIT 1" in
  check (Alcotest.option value_t) "highest salary first under negation"
    (Some (Value.String "Ann"))
    (Tuple.get (List.hd rows) "name")

let test_db_update_with_expression_referencing_row () =
  let db = mk_db () in
  ignore (Rel_db.exec db "UPDATE emp SET salary = salary * 2 WHERE name LIKE '%e%'");
  let rows = q db "SELECT salary FROM emp WHERE name = 'Dee'" in
  check (Alcotest.option value_t) "doubled" (Some (Value.Float 140.0))
    (Tuple.get (List.hd rows) "salary")

let test_db_distinct_on_expressions () =
  let db = mk_db () in
  let rows = q db "SELECT DISTINCT dept_id IS NULL AS has_no_dept FROM emp" in
  check int_t "two truth values" 2 (List.length rows)

let test_btree_string_keys () =
  let bt = Rel_btree.create ~order:4 ~cmp:String.compare () in
  List.iter (fun k -> Rel_btree.insert bt k (String.length k))
    [ "pear"; "apple"; "fig"; "banana"; "kiwi"; "date" ];
  check (Alcotest.list string_t) "lexicographic range"
    [ "banana"; "date"; "fig" ]
    (List.map fst (Rel_btree.range bt ~lo:("b", true) ~hi:("g", false) ()));
  check bool_t "invariants" true (Rel_btree.check_invariants bt)

(* Property: planner output equals naive reference execution. *)
let prop_plan_equals_reference =
  QCheck2.Test.make ~name:"planned join equals nested-loop reference" ~count:60
    QCheck2.Gen.(pair (int_bound 30) (int_bound 30))
    (fun (n, m) ->
      let db = Rel_db.create () in
      ignore (Rel_db.exec db "CREATE TABLE a (k INT, v INT)");
      ignore (Rel_db.exec db "CREATE TABLE b (k INT, w INT)");
      let g = Prng.create (n + (m * 31) + 7) in
      for _ = 1 to n do
        ignore
          (Rel_db.exec db
             (Printf.sprintf "INSERT INTO a VALUES (%d, %d)" (Prng.int g 10) (Prng.int g 100)))
      done;
      for _ = 1 to m do
        ignore
          (Rel_db.exec db
             (Printf.sprintf "INSERT INTO b VALUES (%d, %d)" (Prng.int g 10) (Prng.int g 100)))
      done;
      let joined =
        Rel_db.query db "SELECT a.v, b.w FROM a JOIN b ON a.k = b.k ORDER BY a.v, b.w"
      in
      (* Reference: manual nested loop over raw tables. *)
      let ta = Rel_db.table_exn db "a" and tb = Rel_db.table_exn db "b" in
      let reference = ref [] in
      Rel_table.scan ta (fun _ ra ->
          Rel_table.scan tb (fun _ rb ->
              if Value.equal (Tuple.get_exn ra "k") (Tuple.get_exn rb "k") then
                reference :=
                  Tuple.make
                    [ ("v", Tuple.get_exn ra "v"); ("w", Tuple.get_exn rb "w") ]
                  :: !reference));
      let sort rows = List.sort Tuple.compare rows in
      sort joined = sort !reference)

(* ------------------------------------------------------------------ *)
(* Bind-time errors and key semantics                                  *)
(* ------------------------------------------------------------------ *)

let sql_error db s =
  match Rel_db.exec db s with
  | _ -> Alcotest.failf "expected Sql_error for %S" s
  | exception Rel_db.Sql_error m -> m

(* A name that does not resolve fails when the statement is bound, even
   when no row would reach it. *)
let test_db_unknown_column_at_bind () =
  let db = mk_db () in
  List.iter
    (fun (sql, msg) -> check string_t sql msg (sql_error db sql))
    [
      ("SELECT nosuch FROM emp", "unknown column nosuch");
      ("SELECT nosuch FROM emp WHERE salary > 1000", "unknown column nosuch");
      ("SELECT name FROM emp WHERE salary > 1000 AND e.nosuch = 1", "unknown column e.nosuch");
      ("SELECT name FROM emp ORDER BY nosuch", "unknown column nosuch");
      ("SELECT e.name FROM emp e JOIN dept d ON e.dept_id = d.id WHERE id = 1",
       "ambiguous column id");
      ("UPDATE emp SET salary = nosuch WHERE id = 99", "unknown column nosuch");
      ("DELETE FROM emp WHERE nosuch = 1", "unknown column nosuch");
    ]

let int_float_db () =
  let db = Rel_db.create () in
  List.iter
    (fun s -> ignore (Rel_db.exec db s))
    [
      "CREATE TABLE a (k INT PRIMARY KEY, v INT)";
      "CREATE TABLE b (k FLOAT, w INT)";
      "INSERT INTO a VALUES (1, 10), (2, 20)";
      "INSERT INTO b VALUES (1.0, 100), (2.5, 200), (1, 300)";
    ];
  db

(* [=] says [Int 1 = Float 1.0]; hash joins, hash indexes and grouping
   must agree with it. *)
let test_db_int_float_keys () =
  let db = int_float_db () in
  let count s = List.length (q db s) in
  check bool_t "hash join planned" true
    (contains (Rel_db.explain db "SELECT a.v, b.w FROM a JOIN b ON a.k = b.k") "HASH-JOIN");
  check int_t "hash join" 2 (count "SELECT a.v, b.w FROM a JOIN b ON a.k = b.k");
  check int_t "nested loop" 2 (count "SELECT a.v, b.w FROM a JOIN b ON a.k <= b.k AND a.k >= b.k");
  check int_t "pk hash index" 1 (count "SELECT v FROM a WHERE k = 1.0");
  check int_t "no index" 1 (count "SELECT v FROM a WHERE k + 0 = 1.0");
  ignore (Rel_db.exec db "CREATE INDEX ON b (k)");
  check int_t "secondary hash index" 2 (count "SELECT w FROM b WHERE k = 1");
  check int_t "one group" 1 (count "SELECT k, COUNT(*) AS n FROM b WHERE k < 2 GROUP BY k")

(* Index access paths return exactly what a sequential scan returns,
   NULL keys included. *)
let test_db_null_index_keys () =
  let db = Rel_db.create () in
  List.iter
    (fun s -> ignore (Rel_db.exec db s))
    [ "CREATE TABLE h (k INT, v INT)"; "INSERT INTO h VALUES (NULL, 1), (5, 2), (NULL, 3)" ];
  let count s = List.length (q db s) in
  let cases = [ ("k = NULL", 0); ("k < 7", 1); ("k >= NULL", 0); ("k > 1 AND k <= 5", 1) ] in
  let run label =
    List.iter
      (fun (w, n) -> check int_t (label ^ ": " ^ w) n (count ("SELECT v FROM h WHERE " ^ w)))
      cases
  in
  run "scan";
  ignore (Rel_db.exec db "CREATE INDEX ON h (k) USING BTREE");
  run "btree";
  let db' = Rel_db.create () in
  List.iter
    (fun s -> ignore (Rel_db.exec db' s))
    [ "CREATE TABLE h (k INT, v INT)"; "CREATE INDEX ik ON h (k)";
      "INSERT INTO h VALUES (NULL, 1), (5, 2), (NULL, 3)" ];
  check int_t "hash: k = NULL" 0 (List.length (q db' "SELECT v FROM h WHERE k = NULL"))

(* WHERE filters the joined rows; inside a LEFT join's condition it
   would pad them instead. *)
let test_db_left_join_where () =
  let db = mk_db () in
  let rows =
    q db "SELECT d.dname FROM dept d LEFT JOIN emp e ON e.dept_id = d.id WHERE e.id IS NULL"
  in
  check (Alcotest.list value_t) "only the empty dept" [ Value.String "empty" ]
    (List.map (fun r -> Tuple.get_exn r "dname") rows)

(* ------------------------------------------------------------------ *)
(* Differential property: the engine against a brute-force reference   *)
(* ------------------------------------------------------------------ *)

(* Tables t0..t2 share the columns k (INT or FLOAT), n INT and s TEXT,
   and t<i> has u<i> INT of its own.  A FLOAT k holds both [Int 1] and
   [Float 1.0] (an INT literal stays an Int there). *)
type dtable = {
  float_key : bool;
  rows : Value.t list list;
  index : (string * bool) option;  (** column, B+tree (else hash) *)
  index_first : bool;  (** created before the inserts *)
}

type dcase = { tables : dtable list; sel : Sql_ast.select }

let dcolumns i = [ "k"; "n"; "s"; Printf.sprintf "u%d" i ]

let gen_dtable =
  let open QCheck2.Gen in
  let* float_key = bool in
  let key =
    if float_key then
      oneofl Value.[ Null; Int 0; Int 1; Float 1.0; Float 1.5; Float 2.0 ]
    else oneofl Value.[ Null; Int 0; Int 1; Int 2 ]
  in
  let num = oneofl Value.[ Null; Int 0; Int 1; Int 2; Int 3 ] in
  let text = oneofl Value.[ Null; String "a"; String "ab"; String "b"; String "ba" ] in
  let* rows =
    list_size (int_bound 6)
      (let* k = key and* n = num and* s = text and* u = num in
       return [ k; n; s; u ])
  in
  let* index =
    frequency
      [
        (1, return None);
        (2, return (Some ("k", false)));
        (2, return (Some ("k", true)));
        (1, return (Some ("n", true)));
        (1, return (Some ("n", false)));
      ]
  and* index_first = bool in
  return { float_key; rows; index; index_first }

let dsetup i t =
  let name = Printf.sprintf "t%d" i in
  let create =
    Printf.sprintf "CREATE TABLE %s (k %s, n INT, s TEXT, u%d INT)" name
      (if t.float_key then "FLOAT" else "INT")
      i
  in
  let index =
    match t.index with
    | None -> []
    | Some (c, btree) ->
      [ Printf.sprintf "CREATE INDEX ON %s (%s) USING %s" name c (if btree then "BTREE" else "HASH") ]
  in
  let insert =
    match t.rows with
    | [] -> []
    | rows ->
      (* [Sql_print.value_literal] prints [Float 1.0] as [1], an INT
         literal; the FLOAT columns must also hold real floats. *)
      let literal = function
        | Value.Float f -> Printf.sprintf "%.1f" f
        | v -> Sql_print.value_literal v
      in
      let row vs = "(" ^ String.concat ", " (List.map literal vs) ^ ")" in
      [ Printf.sprintf "INSERT INTO %s VALUES %s" name (String.concat ", " (List.map row rows)) ]
  in
  (create :: (if t.index_first then index @ insert else insert @ index))

(* Well-typed expressions over the FROM entries (alias, table index):
   arithmetic reads numeric columns only.  A column is left unqualified
   only where its name is unique in the FROM clause. *)
let gen_select ntables =
  let open QCheck2.Gen in
  let* m = int_range 1 3 in
  let* tabs = list_repeat m (int_bound (ntables - 1)) in
  let* bare_single = bool in
  let entries =
    List.mapi
      (fun j i ->
        if m = 1 && bare_single then (Printf.sprintf "t%d" i, i, None)
        else (Printf.sprintf "a%d" j, i, Some (Printf.sprintf "a%d" j)))
      tabs
  in
  let cols_of (a, i, _) = List.map (fun c -> (a, c)) (dcolumns i) in
  let all_cols = List.concat_map cols_of entries in
  let unique c = List.length (List.filter (fun (_, c') -> c = c') all_cols) = 1 in
  let col_ref (a, c) =
    let* bare = bool in
    return (if bare && unique c then Sql_ast.Col (None, c) else Sql_ast.Col (Some a, c))
  in
  let is_num (_, c) = c <> "s" in
  let num_lit = map (fun v -> Sql_ast.Lit v) (oneofl Value.[ Null; Int 0; Int 1; Int 2; Float 1.0; Float 1.5 ]) in
  let text_lit = map (fun v -> Sql_ast.Lit v) (oneofl Value.[ Null; String "a"; String "b"; String "ba" ]) in
  let cmp = oneofl Sql_ast.[ Eq; Neq; Lt; Le; Gt; Ge ] in
  (* Generators over the columns [cols] may read. *)
  let over cols =
    let num_col = let* c = oneofl (List.filter is_num cols) in col_ref c in
    let text_col = let* c = oneofl (List.filter (fun c -> not (is_num c)) cols) in col_ref c in
    let any_col = let* c = oneofl cols in col_ref c in
    let num_expr =
      frequency
        [
          (4, num_col);
          (2, num_lit);
          (1, map2 (fun a b -> Sql_ast.Binop (Sql_ast.Add, a, b)) num_col num_lit);
          (1, map (fun a -> Sql_ast.Fncall ("coalesce", [ a; Sql_ast.Lit (Value.Int 0) ])) num_col);
        ]
    in
    let text_expr =
      frequency [ (3, text_col); (1, text_lit); (1, map (fun a -> Sql_ast.Fncall ("upper", [ a ])) text_col) ]
    in
    (* What an index can serve: an indexed column against a literal. *)
    let key_col =
      let* c = oneofl (List.filter (fun (_, c) -> c = "k") cols @ List.filter (fun (_, c) -> c = "n") cols) in
      col_ref c
    in
    let atom =
      frequency
        [
          (4, map3 (fun op a b -> Sql_ast.Binop (op, a, b)) (oneofl Sql_ast.[ Eq; Eq; Lt; Ge ]) key_col num_lit);
          (2, map3 (fun op a b -> Sql_ast.Binop (op, a, b)) cmp num_col num_lit);
          (2, map3 (fun op a b -> Sql_ast.Binop (op, a, b)) cmp num_expr num_expr);
          (1, map3 (fun op a b -> Sql_ast.Binop (op, a, b)) cmp text_col text_lit);
          (1, map (fun a -> Sql_ast.Is_null a) any_col);
          (1, map (fun a -> Sql_ast.Is_not_null a) any_col);
          (1, map2 (fun a p -> Sql_ast.Like (a, p)) text_col (oneofl [ "a%"; "%a"; "_"; "%"; "b_" ]));
          (1, map2 (fun a es -> Sql_ast.In_list (a, es)) num_col (list_size (int_range 1 3) num_lit));
          (1, map3 (fun a lo hi -> Sql_ast.Between (a, lo, hi)) num_col num_lit num_lit);
        ]
    in
    (num_col, any_col, num_expr, text_expr, atom)
  in
  let num_col, any_col, num_expr, text_expr, atom = over all_cols in
  let pred =
    fix
      (fun self depth ->
        if depth = 0 then atom
        else
          frequency
            [
              (4, atom);
              (1, map2 (fun a b -> Sql_ast.Binop (Sql_ast.And, a, b)) (self (depth - 1)) (self (depth - 1)));
              (1, map2 (fun a b -> Sql_ast.Binop (Sql_ast.Or, a, b)) (self (depth - 1)) (self (depth - 1)));
              (1, map (fun a -> Sql_ast.Unop (Sql_ast.Not, a)) (self (depth - 1)));
            ])
      2
  in
  let on j =
    let (a, _, _) = List.nth entries j in
    let* (p, _, _) = oneofl (List.filteri (fun i _ -> i < j) entries) in
    let _, _, _, _, atom = over (List.concat_map cols_of (List.filteri (fun i _ -> i <= j) entries)) in
    let key c = Sql_ast.Binop (Sql_ast.Eq, Sql_ast.Col (Some a, c), Sql_ast.Col (Some p, c)) in
    frequency
      [
        (3, return (key "k"));
        (1, return (key "n"));
        (1, map (fun op -> Sql_ast.Binop (op, Sql_ast.Col (Some a, "n"), Sql_ast.Col (Some p, "k"))) cmp);
        (2, map (fun e -> Sql_ast.Binop (Sql_ast.And, key "k", e)) atom);
      ]
  in
  let* from =
    let table_ref (_, i, alias) = { Sql_ast.table = Printf.sprintf "t%d" i; alias } in
    match entries with
    | [] -> assert false
    | first :: rest ->
      let rec go acc j = function
        | [] -> return acc
        | e :: more ->
          let* kind = frequency [ (2, return Sql_ast.Inner); (1, return Sql_ast.Left_outer) ] in
          let* cond = on j in
          go (Sql_ast.From_join (acc, kind, table_ref e, cond)) (j + 1) more
      in
      go (Sql_ast.From_table (table_ref first)) 1 rest
  in
  let* where = opt ~ratio:0.7 (let* ps = list_size (int_range 1 3) pred in return (Option.get (Sql_ast.conjoin ps))) in
  let* grouped = frequency [ (3, return false); (1, return true) ] in
  let* distinct = frequency [ (3, return false); (1, return true) ] in
  let* limit = opt ~ratio:0.25 (int_bound 4) in
  let order key = map2 (fun order_expr ascending -> { Sql_ast.order_expr; ascending }) key bool in
  if not grouped then
    let* items =
      frequency
        [
          (1, return [ Sql_ast.Star ]);
          (1, map (fun (a, _, _) -> [ Sql_ast.Qualified_star a ]) (oneofl entries));
          ( 3,
            let* n = int_range 1 3 in
            let* exprs = list_repeat n (frequency [ (3, any_col); (1, num_expr); (1, text_expr) ]) in
            let* named = list_repeat n bool in
            (* Unnamed items must not repeat a column: two [a0.k] would both
               be named [a0.k]. *)
            return
              (List.mapi
                 (fun i (e, named) ->
                   let dup = List.exists (fun e' -> e' = e) (List.filteri (fun j _ -> j < i) exprs) in
                   Sql_ast.Expr_item (e, if named || dup then Some (Printf.sprintf "c%d" i) else None))
                 (List.combine exprs named)) );
        ]
    in
    let aliases = List.filter_map (function Sql_ast.Expr_item (_, a) -> a | _ -> None) items in
    let key =
      frequency
        ((3, any_col) :: (1, num_expr)
        :: (if aliases = [] then [] else [ (2, map (fun a -> Sql_ast.Col (None, a)) (oneofl aliases)) ]))
    in
    let* order_by =
      list_size (int_bound 2) (order key)
    in
    return
      { Sql_ast.distinct; items; from = Some from; where; group_by = []; having = None; order_by; limit }
  else
    let* group_by = map (List.sort_uniq compare) (list_size (int_bound 2) any_col) in
    let* aggs =
      list_size (int_range 1 2)
        (frequency
           [
             (2, return (Sql_ast.Count_star, None));
             (1, map (fun e -> (Sql_ast.Count, Some e)) any_col);
             (1, map (fun e -> (Sql_ast.Sum, Some e)) num_col);
             (1, map (fun e -> (Sql_ast.Avg, Some e)) num_col);
             (1, map (fun e -> (Sql_ast.Min, Some e)) any_col);
             (1, map (fun e -> (Sql_ast.Max, Some e)) any_col);
           ])
    in
    let items =
      List.mapi (fun i e -> Sql_ast.Expr_item (e, Some (Printf.sprintf "g%d" i))) group_by
      @ List.mapi (fun i (fn, arg) -> Sql_ast.Agg_item (fn, arg, Some (Printf.sprintf "x%d" i))) aggs
    in
    let outs =
      List.mapi (fun i _ -> Printf.sprintf "g%d" i) group_by
      @ List.mapi (fun i _ -> Printf.sprintf "x%d" i) aggs
    in
    let out_col = map (fun a -> Sql_ast.Col (None, a)) (oneofl outs) in
    let* having =
      opt ~ratio:0.4
        (frequency
           [
             (2, map3 (fun op a b -> Sql_ast.Binop (op, a, b)) cmp out_col num_lit);
             (1, map (fun a -> Sql_ast.Is_not_null a) out_col);
           ])
    in
    let* order_by =
      list_size (int_bound 2) (order out_col)
    in
    return { Sql_ast.distinct; items; from = Some from; where; group_by; having; order_by; limit }

let gen_dcase =
  let open QCheck2.Gen in
  let* ntables = int_range 1 3 in
  let* tables = list_repeat ntables gen_dtable in
  let* sel = gen_select ntables in
  return { tables; sel }

let print_dcase c =
  String.concat ";\n" (List.concat (List.mapi dsetup c.tables) @ [ Sql_print.select_to_string c.sel ])

(* The reference: nested loops over [Rel_table.scan] rows prefixed by
   alias in FROM order, ON and WHERE through [Sql_eval.eval_pred],
   standard SQL semantics for the rest.  Output names come from the
   engine (the unit tests pin them); ORDER BY and HAVING resolve output
   names before input columns, as the engine documents. *)
let reference db names (s : Sql_ast.select) =
  let from = Option.get s.Sql_ast.from in
  let rec entries = function
    | Sql_ast.From_table tr -> [ (tr, None) ]
    | Sql_ast.From_join (lhs, kind, tr, cond) -> entries lhs @ [ (tr, Some (kind, cond)) ]
  in
  let alias tr = Option.value ~default:tr.Sql_ast.table tr.Sql_ast.alias in
  let rows_of tr =
    let out = ref [] in
    Rel_table.scan (Rel_db.table_exn db tr.Sql_ast.table) (fun _ t ->
        out := Tuple.prefix (alias tr) t :: !out);
    List.rev !out
  in
  let null_row tr =
    let t = Rel_db.table_exn db tr.Sql_ast.table in
    Tuple.make
      (List.map (fun c -> (alias tr ^ "." ^ c.Dschema.col_name, Value.Null))
         (Rel_table.schema t).Dschema.columns)
  in
  let rows, nulls =
    List.fold_left
      (fun (rows, nulls) (tr, join) ->
        let right = rows_of tr in
        match join with
        | None -> (right, null_row tr)
        | Some (kind, cond) ->
          ( List.concat_map
              (fun l ->
                let ms =
                  List.filter_map
                    (fun r ->
                      let j = Tuple.concat l r in
                      if Sql_eval.eval_pred j cond then Some j else None)
                    right
                in
                if ms = [] && kind = Sql_ast.Left_outer then [ Tuple.concat l (null_row tr) ] else ms)
              rows,
            Tuple.concat nulls (null_row tr) ))
      ([ Tuple.empty ], Tuple.empty) (entries from)
  in
  let rows =
    match s.Sql_ast.where with
    | None -> rows
    | Some w -> List.filter (fun r -> Sql_eval.eval_pred r w) rows
  in
  let star_values pick row =
    List.filter_map (fun (n, v) -> if pick n then Some v else None) (Tuple.fields row)
  in
  let item_values row bucket = function
    | Sql_ast.Star -> star_values (fun _ -> true) row
    | Sql_ast.Qualified_star a -> star_values (String.starts_with ~prefix:(a ^ ".")) row
    | Sql_ast.Expr_item (e, _) -> [ Sql_eval.eval row e ]
    | Sql_ast.Agg_item (fn, arg, _) ->
      let vs = List.map (fun r -> Sql_eval.eval r (Option.get arg)) (if arg = None then [] else bucket) in
      let present = List.filter (fun v -> v <> Value.Null) vs in
      let numeric = List.filter (function Value.Int _ | Value.Float _ -> true | _ -> false) present in
      let sum = List.fold_left Value.add (Value.Int 0) numeric in
      let pick better =
        List.fold_left
          (fun acc v -> match acc with None -> Some v | Some m -> if better (Value.compare v m) then Some v else acc)
          None present
      in
      [
        (match fn with
        | Sql_ast.Count_star -> Value.Int (List.length bucket)
        | Sql_ast.Count -> Value.Int (List.length present)
        | Sql_ast.Sum -> if present = [] then Value.Null else sum
        | Sql_ast.Avg ->
          if present = [] then Value.Null
          else Value.Float (Option.get (Value.to_float sum) /. float_of_int (List.length present))
        | Sql_ast.Min -> Option.value ~default:Value.Null (pick (fun c -> c < 0))
        | Sql_ast.Max -> Option.value ~default:Value.Null (pick (fun c -> c > 0)));
      ]
  in
  let out_tuple values = Tuple.make (List.combine names values) in
  let keyed =
    if s.Sql_ast.group_by = [] && not (List.exists (function Sql_ast.Agg_item _ -> true | _ -> false) s.Sql_ast.items)
    then
      List.map
        (fun row ->
          let values = List.concat_map (item_values row []) s.Sql_ast.items in
          let out = out_tuple values in
          let key e =
            try Sql_eval.eval out e with Sql_eval.Eval_error _ -> Sql_eval.eval (Tuple.concat out row) e
          in
          (List.map (fun o -> key o.Sql_ast.order_expr) s.Sql_ast.order_by, values))
        rows
    else begin
      let groups = ref [] in
      List.iter
        (fun row ->
          let k = List.map (Sql_eval.eval row) s.Sql_ast.group_by in
          match List.find_opt (fun (k', _) -> List.equal Value.equal k k') !groups with
          | Some (_, bucket) -> bucket := row :: !bucket
          | None -> groups := (k, ref [ row ]) :: !groups)
        rows;
      let buckets = List.rev_map (fun (_, b) -> List.rev !b) !groups in
      let buckets = if s.Sql_ast.group_by = [] && buckets = [] then [ [] ] else buckets in
      List.filter_map
        (fun bucket ->
          let first = match bucket with r :: _ -> r | [] -> nulls in
          let values = List.concat_map (item_values first bucket) s.Sql_ast.items in
          let out = out_tuple values in
          let keep =
            match s.Sql_ast.having with
            | None -> true
            | Some h -> Sql_eval.eval_pred (Tuple.concat out first) h
          in
          if keep then Some (List.map (fun o -> Sql_eval.eval out o.Sql_ast.order_expr) s.Sql_ast.order_by, values)
          else None)
        buckets
    end
  in
  let cmp_keys ka kb =
    let rec go ks os =
      match ks, os with
      | (a, b) :: ks, o :: os ->
        let c = Value.compare a b in
        if c <> 0 then if o.Sql_ast.ascending then c else -c else go ks os
      | _ -> 0
    in
    go (List.combine ka kb) s.Sql_ast.order_by
  in
  let sorted = List.stable_sort (fun (ka, _) (kb, _) -> cmp_keys ka kb) keyed in
  (* The order is total when rows tied on the keys are equal rows. *)
  let rec total = function
    | (ka, a) :: ((kb, b) :: _ as rest) ->
      (cmp_keys ka kb <> 0 || List.equal Value.equal a b) && total rest
    | _ -> true
  in
  let values = List.map snd sorted in
  let values =
    if s.Sql_ast.distinct then
      List.rev
        (List.fold_left
           (fun acc v -> if List.exists (List.equal Value.equal v) acc then acc else v :: acc)
           [] values)
    else values
  in
  (s.Sql_ast.order_by <> [] && total sorted, values)

let prop_sql_differential =
  QCheck2.Test.make ~name:"SQL engine equals brute-force reference" ~count:2000 ~print:print_dcase
    gen_dcase (fun c ->
      let db = Rel_db.create () in
      List.iteri (fun i t -> List.iter (fun s -> ignore (Rel_db.exec db s)) (dsetup i t)) c.tables;
      let text = Sql_print.select_to_string c.sel in
      let names, rows = Rel_db.query_names db text in
      let got = List.map Tuple.values rows in
      (* The reference reads the statement the engine parsed. *)
      let sel = Sql_parser.parse_select_exn text in
      let ordered, all = reference db names sel in
      let expected =
        match sel.Sql_ast.limit with
        | None -> all
        | Some n -> List.filteri (fun i _ -> i < n) all
      in
      let same a b = List.length a = List.length b && List.for_all2 (List.equal Value.equal) a b in
      let bag = List.sort (List.compare Value.compare) in
      let rec sub xs ys =
        match xs with
        | [] -> true
        | x :: xs -> (
          match List.partition (List.equal Value.equal x) ys with
          | _ :: more, rest -> sub xs (more @ rest)
          | [], _ -> false)
      in
      let ok =
        if ordered then same got expected
        else if sel.Sql_ast.limit = None then same (bag got) (bag expected)
        else List.length got = List.length expected && sub got all
      in
      if not ok then
        QCheck2.Test.fail_reportf "engine:\n%s\nreference:\n%s"
          (String.concat "\n" (List.map (fun r -> String.concat ", " (List.map Value.to_display r)) got))
          (String.concat "\n" (List.map (fun r -> String.concat ", " (List.map Value.to_display r)) expected));
      true)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [ prop_btree_matches_model; prop_plan_equals_reference; prop_sql_differential ]
  in
  Alcotest.run "relation"
    [
      ( "btree",
        [
          Alcotest.test_case "insert/find" `Quick test_btree_insert_find;
          Alcotest.test_case "range scans" `Quick test_btree_range;
          Alcotest.test_case "remove" `Quick test_btree_remove;
          Alcotest.test_case "height" `Quick test_btree_height_logarithmic;
        ] );
      ( "table",
        [
          Alcotest.test_case "insert/scan" `Quick test_table_insert_scan;
          Alcotest.test_case "pk violation" `Quick test_table_pk_violation;
          Alcotest.test_case "delete/update" `Quick test_table_delete_update;
          Alcotest.test_case "index lookups" `Quick test_table_index_lookup;
          Alcotest.test_case "index maintenance" `Quick test_table_index_maintained_on_mutation;
          Alcotest.test_case "coercion on insert" `Quick test_table_coercion;
        ] );
      ( "sql-syntax",
        [
          Alcotest.test_case "print/parse roundtrip" `Quick test_sql_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_sql_parse_errors;
          Alcotest.test_case "precedence" `Quick test_sql_precedence;
        ] );
      ( "sql-eval",
        [
          Alcotest.test_case "three-valued logic" `Quick test_eval_three_valued;
          Alcotest.test_case "like" `Quick test_eval_like;
          Alcotest.test_case "functions" `Quick test_eval_functions;
          Alcotest.test_case "column resolution" `Quick test_eval_resolution;
        ] );
      ( "sql-exec",
        [
          Alcotest.test_case "select/where" `Quick test_db_select_where;
          Alcotest.test_case "projection names" `Quick test_db_projection_names;
          Alcotest.test_case "inner join" `Quick test_db_join;
          Alcotest.test_case "left join" `Quick test_db_left_join;
          Alcotest.test_case "group by" `Quick test_db_group_by;
          Alcotest.test_case "having" `Quick test_db_having;
          Alcotest.test_case "global aggregates" `Quick test_db_agg_without_group;
          Alcotest.test_case "order/limit/distinct" `Quick test_db_order_limit_distinct;
          Alcotest.test_case "update/delete" `Quick test_db_update_delete;
          Alcotest.test_case "insert column list" `Quick test_db_insert_column_list;
          Alcotest.test_case "plan uses indexes" `Quick test_db_index_used_in_plan;
          Alcotest.test_case "index answers match scan" `Quick test_db_index_vs_scan_same_rows;
          Alcotest.test_case "error reporting" `Quick test_db_errors;
          Alcotest.test_case "cross product" `Quick test_db_cross_product;
          Alcotest.test_case "three-way join" `Quick test_db_three_way_join;
          Alcotest.test_case "null semantics" `Quick test_db_null_semantics;
          Alcotest.test_case "having on aggregate" `Quick test_db_having_on_aggregate_expression;
          Alcotest.test_case "order by expression" `Quick test_db_order_by_expression;
          Alcotest.test_case "update expression" `Quick test_db_update_with_expression_referencing_row;
          Alcotest.test_case "distinct expressions" `Quick test_db_distinct_on_expressions;
          Alcotest.test_case "btree string keys" `Quick test_btree_string_keys;
          Alcotest.test_case "unknown column at bind" `Quick test_db_unknown_column_at_bind;
          Alcotest.test_case "int/float keys" `Quick test_db_int_float_keys;
          Alcotest.test_case "null index keys" `Quick test_db_null_index_keys;
          Alcotest.test_case "left join where" `Quick test_db_left_join_where;
        ]
        @ props );
    ]
