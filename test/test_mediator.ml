(* Tests for sources, the registry, the network simulator and the
   mediator (catalog, SQL fragment compiler, planner, executor).

   The central property: for every query, the compiled pipeline
   (decompose -> push down -> join -> construct) returns exactly what the
   reference evaluator computes by brute force. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let string_t = Alcotest.string

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Fixture: a small federation                                         *)
(* ------------------------------------------------------------------ *)

let make_crm () =
  let db = Rel_db.create ~name:"crm" () in
  List.iter
    (fun s -> ignore (Rel_db.exec db s))
    [
      "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT NOT NULL, region TEXT, tier INT)";
      "CREATE TABLE orders (oid INT PRIMARY KEY, cust_id INT, amount FLOAT, item TEXT)";
      "INSERT INTO customers VALUES (1, 'Acme Corp', 'west', 1), (2, 'Globex', 'east', 2), \
       (3, 'Initech', 'west', 2), (4, 'Umbrella', 'south', 3)";
      "INSERT INTO orders VALUES (100, 1, 250.0, 'widget'), (101, 1, 70.0, 'gadget'), \
       (102, 2, 9000.0, 'server'), (103, 3, 120.0, 'widget'), (104, 9, 5.0, 'scrap')";
    ];
  db

let catalog_xml =
  {|<catalog>
      <product sku="widget"><price>25</price><cat>tools</cat></product>
      <product sku="gadget"><price>70</price><cat>tools</cat></product>
      <product sku="server"><price>4500</price><cat>infra</cat></product>
    </catalog>|}

let make_catalog () =
  let cat = Med_catalog.create () in
  Med_catalog.register_source cat (Rel_source.make (make_crm ()));
  Med_catalog.register_source cat
    (Xml_source.of_xml_strings ~name:"products" [ ("catalog", catalog_xml) ]);
  Med_catalog.register_source cat
    (Csv_source.make ~name:"legacy"
       [ ("contacts", "cust,email\nAcme Corp,acme@x.com\nGlobex,info@globex.com\n") ]);
  cat

let q = Xq_parser.parse_exn

(* Compare compiled execution against the reference evaluator. *)
let agree ?opts cat query =
  let compiled = Med_exec.run ?opts cat query in
  let reference = Xq_eval.eval (Med_exec.direct_resolver cat) query in
  let norm trees = List.sort compare (List.map Dtree.to_string trees) in
  norm compiled = norm reference

(* ------------------------------------------------------------------ *)
(* Sources                                                             *)
(* ------------------------------------------------------------------ *)

let test_rel_source_exports () =
  let src = Rel_source.make (make_crm ()) in
  check (Alcotest.list string_t) "exports" [ "customers"; "orders" ]
    (List.sort String.compare (src.Source.document_names ()));
  let docs = src.Source.documents "customers" in
  check int_t "one doc" 1 (List.length docs);
  check int_t "four rows" 4 (List.length (Dtree.kids (List.hd docs)))

let test_rel_source_sql () =
  let src = Rel_source.make (make_crm ()) in
  match src.Source.execute (Source.Q_sql "SELECT name FROM customers WHERE tier = 2") with
  | Source.R_rows (names, rows) ->
    check (Alcotest.list string_t) "cols" [ "name" ] names;
    check int_t "two tier-2" 2 (List.length rows)
  | Source.R_trees _ | Source.R_batch _ -> Alcotest.fail "expected rows"

let test_rel_source_capability () =
  let cap = { Source.scan_only with Source.can_project = true } in
  let src = Rel_source.make_limited cap (make_crm ()) in
  (try
     ignore (src.Source.execute (Source.Q_sql "SELECT * FROM customers WHERE tier = 2"));
     Alcotest.fail "expected rejection"
   with Source.Query_rejected _ -> ());
  match src.Source.execute (Source.Q_sql "SELECT name FROM customers") with
  | Source.R_rows (_, rows) -> check int_t "plain projection ok" 4 (List.length rows)
  | Source.R_trees _ | Source.R_batch _ -> Alcotest.fail "expected rows"

let test_xml_source_path () =
  let src = Xml_source.of_xml_strings ~name:"products" [ ("catalog", catalog_xml) ] in
  match
    src.Source.execute (Source.Q_path ("catalog", Xml_path.parse_exn "//product[cat='tools']"))
  with
  | Source.R_trees trees -> check int_t "two tools" 2 (List.length trees)
  | Source.R_rows _ | Source.R_batch _ -> Alcotest.fail "expected trees"

let test_csv_source_scan () =
  let src =
    Csv_source.make ~name:"legacy" [ ("contacts", "cust,email\nA,a@x\nB,b@x\n") ]
  in
  (match src.Source.execute (Source.Q_scan "contacts") with
  | Source.R_rows (_, rows) -> check int_t "two rows" 2 (List.length rows)
  | Source.R_trees _ | Source.R_batch _ -> Alcotest.fail "expected rows");
  try
    ignore (src.Source.execute (Source.Q_sql "SELECT * FROM contacts"));
    Alcotest.fail "expected rejection"
  with Source.Query_rejected _ -> ()

let test_registry_resolution () =
  let cat = make_catalog () in
  let reg = Med_catalog.registry cat in
  check bool_t "dotted export" true (Src_registry.resolve_export reg "crm.customers" <> None);
  check bool_t "unknown" true (Src_registry.resolve_export reg "nope.t" = None);
  let docs = Src_registry.documents reg "crm.orders" in
  check int_t "orders doc" 1 (List.length docs);
  check bool_t "exports listed" true
    (List.mem "crm.customers" (Src_registry.exports reg))

let test_net_sim_costs () =
  let src = Rel_source.make (make_crm ()) in
  let wrapped, stats =
    Net_sim.wrap { Net_sim.latency_ms = 10.0; per_tuple_ms = 1.0; availability = 1.0 } src
  in
  ignore (wrapped.Source.execute (Source.Q_sql "SELECT * FROM customers"));
  check int_t "one call" 1 stats.Net_sim.calls;
  check int_t "four tuples" 4 stats.Net_sim.tuples_shipped;
  check bool_t "virtual time = 10 + 4" true (abs_float (stats.Net_sim.virtual_ms -. 14.0) < 1e-9)

let test_net_sim_unavailable () =
  let src = Rel_source.make (make_crm ()) in
  let wrapped, stats =
    Net_sim.wrap ~seed:42 { Net_sim.default_profile with Net_sim.availability = 0.0 } src
  in
  (try
     ignore (wrapped.Source.execute (Source.Q_scan "customers"));
     Alcotest.fail "expected Unavailable"
   with Source.Unavailable name -> check string_t "names source" "crm" name);
  check int_t "failure recorded" 1 stats.Net_sim.failed

(* ------------------------------------------------------------------ *)
(* Catalog                                                             *)
(* ------------------------------------------------------------------ *)

let west_view_text =
  {|WHERE <row><id>$i</id><name>$n</name><region>"west"</region></row> IN "crm.customers"
    CONSTRUCT <customer><id>$i</id><name>$n</name></customer>|}

let test_catalog_views () =
  let cat = make_catalog () in
  Med_catalog.define_view_text cat "west_customers" west_view_text;
  check bool_t "registered" true (Med_catalog.find_view cat "west_customers" <> None);
  check int_t "depth 1" 1 (Med_catalog.view_depth cat "west_customers");
  (* hierarchical: a view over the view *)
  Med_catalog.define_view_text cat "west_ids"
    {|WHERE <customer><id>$i</id></customer> IN "west_customers"
      CONSTRUCT <wid>$i</wid>|};
  check int_t "depth 2" 2 (Med_catalog.view_depth cat "west_ids");
  check (Alcotest.list string_t) "deps" [ "west_customers" ]
    (Med_catalog.dependencies cat "west_ids")

let test_catalog_errors () =
  let cat = make_catalog () in
  Med_catalog.define_view_text cat "v1" west_view_text;
  let expect_err f =
    try
      f ();
      Alcotest.fail "expected Catalog_error"
    with Med_catalog.Catalog_error _ -> ()
  in
  expect_err (fun () -> Med_catalog.define_view_text cat "v1" west_view_text);
  expect_err (fun () ->
      Med_catalog.define_view_text cat "v2"
        {|WHERE <x>$a</x> IN "no_such_source" CONSTRUCT <y>$a</y>|});
  Med_catalog.define_view_text cat "v3"
    {|WHERE <customer><id>$i</id></customer> IN "v1" CONSTRUCT <z>$i</z>|};
  expect_err (fun () -> Med_catalog.drop_view cat "v1");
  Med_catalog.drop_view cat "v3";
  Med_catalog.drop_view cat "v1"

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let test_compile_pushes_sql () =
  let cat = make_catalog () in
  let compiled =
    Med_planner.compile cat
      (q
         {|WHERE <row><name>$n</name><tier>$t</tier></row> IN "crm.customers", $t >= 2
           CONSTRUCT <c>$n</c>|})
  in
  match compiled.Med_planner.accesses with
  | [ (_, Med_planner.A_sql { fragment; _ }) ] ->
    check bool_t "projected" true (contains fragment.Med_sqlgen.sql_text "SELECT name, tier");
    check bool_t "where pushed" true (contains fragment.Med_sqlgen.sql_text "WHERE");
    check bool_t "condition recorded" true
      (List.length fragment.Med_sqlgen.pushed_conditions = 1);
    check int_t "no residual" 0 (List.length compiled.Med_planner.residual_conditions)
  | _ -> Alcotest.fail "expected one SQL access"

let test_compile_no_pushdown_option () =
  let cat = make_catalog () in
  let compiled =
    Med_planner.compile ~opts:Med_sqlgen.no_pushdown cat
      (q
         {|WHERE <row><name>$n</name><tier>$t</tier></row> IN "crm.customers", $t >= 2
           CONSTRUCT <c>$n</c>|})
  in
  match compiled.Med_planner.accesses with
  | [ (_, Med_planner.A_sql { fragment; _ }) ] ->
    check bool_t "star projection" true (contains fragment.Med_sqlgen.sql_text "SELECT *");
    check bool_t "no where" false (contains fragment.Med_sqlgen.sql_text "WHERE");
    check int_t "condition residual" 1 (List.length compiled.Med_planner.residual_conditions)
  | _ -> Alcotest.fail "expected one SQL access"

let test_compile_xml_uses_path () =
  let cat = make_catalog () in
  let compiled =
    Med_planner.compile cat
      (q {|WHERE <product sku=$s><cat>"tools"</cat></product> IN "products.catalog"
           CONSTRUCT <p>$s</p>|})
  in
  (match compiled.Med_planner.accesses with
  | [ (_, Med_planner.A_path { path; _ }) ] ->
    let rendered = Xml_path.to_string path in
    check bool_t "descendant-or-self" true (contains rendered "descendant-or-self::product");
    check bool_t "attr presence" true (contains rendered "[@sku]");
    check bool_t "literal child pushed" true (contains rendered "[cat='tools']")
  | _ -> Alcotest.fail "expected a path access");
  (* pushdown disabled falls back to shipping documents *)
  let compiled =
    Med_planner.compile ~opts:Med_sqlgen.no_pushdown cat
      (q {|WHERE <product sku=$s/> IN "products.catalog" CONSTRUCT <p>$s</p>|})
  in
  (match compiled.Med_planner.accesses with
  | [ (_, Med_planner.A_match _) ] -> ()
  | _ -> Alcotest.fail "expected fallback to match");
  (* wildcard tags derive no useful path *)
  let compiled =
    Med_planner.compile cat (q {|WHERE <*>$c</*> IN "products.catalog" CONSTRUCT <x>$c</x>|})
  in
  match compiled.Med_planner.accesses with
  | [ (_, Med_planner.A_match _) ] -> ()
  | _ -> Alcotest.fail "expected match for wildcard"

let test_path_pushdown_ships_fewer_nodes () =
  let xml_src = Xml_source.of_xml_strings ~name:"products" [ ("catalog", catalog_xml) ] in
  let wrapped, stats = Net_sim.wrap Net_sim.default_profile xml_src in
  let cat = Med_catalog.create () in
  Med_catalog.register_source cat wrapped;
  let query =
    q {|WHERE <product sku=$s><cat>"infra"</cat></product> IN "products.catalog"
        CONSTRUCT <p>$s</p>|}
  in
  let r1 = Med_exec.run cat query in
  let pushed = stats.Net_sim.tuples_shipped in
  Net_sim.reset stats;
  let r2 = Med_exec.run ~opts:Med_sqlgen.no_pushdown cat query in
  let shipped = stats.Net_sim.tuples_shipped in
  check int_t "same answers" (List.length r1) (List.length r2);
  check bool_t "path preselection ships fewer nodes" true (pushed < shipped);
  check bool_t "matches reference" true (agree cat query)

(* Numeric WHERE comparisons on a root child or attribute become one
   interval per variable; the conditions themselves stay residual. *)
let test_compile_derives_ranges () =
  let cat = make_catalog () in
  let path_of text =
    let compiled = Med_planner.compile cat (q text) in
    match compiled.Med_planner.accesses with
    | [ (_, Med_planner.A_path { path; _ }) ] ->
      (Xml_path.to_string path, List.length compiled.Med_planner.residual_conditions)
    | _ -> Alcotest.fail "expected a path access"
  in
  let path, residual =
    path_of
      {|WHERE <product sku=$s><price>$p</price></product> IN "products.catalog",
          $p >= 19, 29 > $p, $p < 50.5 AND $p > 10
        CONSTRUCT <p>$s</p>|}
  in
  check string_t "one interval, tightest bounds"
    "/descendant-or-self::product[@sku][price in [19,29)]" path;
  check int_t "conditions stay residual" 3 residual;
  let path, _ =
    path_of
      {|WHERE <product sku=$s><price>$p</price></product> IN "products.catalog",
          $p = 70.0, $s != "x", $p != 3
        CONSTRUCT <p>$s</p>|}
  in
  check string_t "equality is a closed interval; != and strings stay out"
    "/descendant-or-self::product[@sku][price in [70.0,70.0]]" path;
  let path, _ =
    path_of
      {|WHERE <product sku=$s><price>$p</price></product> IN "products.catalog",
          $s > 3, $p <= -2, $p < 9007199254740993
        CONSTRUCT <p>$s</p>|}
  in
  check string_t "attribute range; big int bound widened to a float"
    "/descendant-or-self::product[@sku in (3,)][price in (,-2]]" path;
  let path, _ =
    path_of
      {|WHERE <product sku=$s><price>$p</price></product> IN "products.catalog",
          $p >= 9007199254740993
        CONSTRUCT <p>$s</p>|}
  in
  check string_t "beyond 2^53: inclusive float bound"
    "/descendant-or-self::product[@sku][price in [9007199254740992.0,)]" path;
  let path, _ =
    path_of
      {|WHERE <product><info><price>$p</price></info></product> IN "products.catalog",
          $p > 3
        CONSTRUCT <p>$p</p>|}
  in
  check string_t "only root children carry ranges" "/descendant-or-self::product[info]" path

(* A float literal keeps its digits in the shipped SQL: printed with %g,
   119.9999999 became 120 and order 103 (amount 120.0) was dropped. *)
let test_float_literal_pushdown () =
  let cat = make_catalog () in
  let text =
    {|WHERE <row><oid>$o</oid><amount>$a</amount></row> IN "crm.orders", $a > 119.9999999
      CONSTRUCT <r>$o</r>|}
  in
  check bool_t "literal shipped exactly" true
    (contains (Med_exec.explain_text cat text) "amount > 119.9999999");
  let got = List.sort compare (List.map Dtree.text (Med_exec.run cat (q text))) in
  check (Alcotest.list string_t) "order 103 kept" [ "100"; "102"; "103" ] got;
  check bool_t "matches reference" true (agree cat (q text))

(* Path results cross Dtree -> XML -> Dtree; a float must print so that
   it reads back as itself (it came back as 1234570.0). *)
let test_xml_float_survives_pushdown () =
  List.iter
    (fun mode ->
      Idx_manager.clear ();
      Idx_manager.set_mode mode;
      let cat = Med_catalog.create () in
      Med_catalog.register_source cat
        (Xml_source.of_xml_strings ~name:"shop"
           [ ("p", {|<catalog><product sku="a"><price>1234567.5</price></product></catalog>|}) ]);
      let got =
        Med_exec.run cat
          (q {|WHERE <product sku=$s><price>$p</price></product> IN "shop.p" CONSTRUCT <r>$p</r>|})
      in
      check (Alcotest.list string_t)
        ("exact under index " ^ Idx_manager.mode_to_string mode)
        [ "1234567.5" ] (List.map Dtree.text got))
    [ Idx_manager.Off; Idx_manager.Auto ];
  Idx_manager.clear ();
  Idx_manager.set_mode Idx_manager.Auto

let test_compile_nested_pattern_falls_back () =
  let cat = make_catalog () in
  (* content binding under row is not relational: falls back to match *)
  let compiled =
    Med_planner.compile cat (q {|WHERE <row>$c</row> IN "crm.customers" CONSTRUCT <x>$c</x>|})
  in
  match compiled.Med_planner.accesses with
  | [ (_, Med_planner.A_match _) ] -> ()
  | _ -> Alcotest.fail "expected fallback to match"

let test_explain_shows_fragments () =
  let cat = make_catalog () in
  let text =
    Med_exec.explain_text cat
      {|WHERE <row><name>$n</name></row> IN "crm.customers" CONSTRUCT <c>$n</c>|}
  in
  check bool_t "mentions SQL" true (contains text "SQL @crm");
  check bool_t "mentions scan" true (contains text "SCAN")

(* ------------------------------------------------------------------ *)
(* Execution correctness (vs reference)                                *)
(* ------------------------------------------------------------------ *)

let test_run_select_project () =
  let cat = make_catalog () in
  let query =
    q
      {|WHERE <row><name>$n</name><region>$r</region></row> IN "crm.customers", $r = 'west'
        CONSTRUCT <west>$n</west>|}
  in
  let results = Med_exec.run cat query in
  check int_t "two west customers" 2 (List.length results);
  check bool_t "matches reference" true (agree cat query)

let test_run_join_two_tables () =
  let cat = make_catalog () in
  let query =
    q
      {|WHERE <row><id>$i</id><name>$n</name></row> IN "crm.customers",
             <row><cust_id>$i</cust_id><amount>$a</amount></row> IN "crm.orders",
             $a > 100
        CONSTRUCT <big><who>$n</who><amt>$a</amt></big>|}
  in
  let results = Med_exec.run cat query in
  check int_t "three big orders" 3 (List.length results);
  check bool_t "matches reference" true (agree cat query)

let test_run_join_relational_with_xml () =
  let cat = make_catalog () in
  let query =
    q
      {|WHERE <row><item>$s</item><amount>$a</amount></row> IN "crm.orders",
             <product sku=$s><price>$p</price></product> IN "products.catalog"
        CONSTRUCT <line><sku>$s</sku><amt>$a</amt><unit>$p</unit></line>|}
  in
  let results = Med_exec.run cat query in
  check int_t "four priced orders" 4 (List.length results);
  check bool_t "matches reference" true (agree cat query)

(* An INT key in one source equals a FLOAT key in another ([=] says
   [Int 1 = Float 1.0]); every engine's hash join must find the pair the
   reference evaluator finds. *)
let test_run_join_int_float_keys () =
  let source name stmts =
    let db = Rel_db.create ~name () in
    List.iter (fun s -> ignore (Rel_db.exec db s)) stmts;
    Rel_source.make db
  in
  let query =
    q
      {|WHERE <row><k>$k</k><v>$v</v></row> IN "ia.a",
             <row><k>$k</k><w>$w</w></row> IN "fb.b"
        CONSTRUCT <pair><v>$v</v><w>$w</w></pair>|}
  in
  List.iter
    (fun (label, mode) ->
      let cat = Med_catalog.create () in
      Med_catalog.register_source cat
        (source "ia"
           [ "CREATE TABLE a (k INT PRIMARY KEY, v INT)"; "INSERT INTO a VALUES (1, 10), (2, 20)" ]);
      Med_catalog.register_source cat
        (source "fb"
           [ "CREATE TABLE b (k FLOAT, w INT)"; "INSERT INTO b VALUES (1.0, 100), (2.5, 200)" ]);
      Med_catalog.set_exec_mode cat mode;
      check int_t (label ^ ": one pair") 1 (List.length (Med_exec.run cat query));
      check bool_t (label ^ ": matches reference") true (agree cat query))
    [
      ("tuple", Alg_batch.Tuple);
      ("batch", Alg_batch.Batch { chunk = 2 });
      ("parallel", Alg_batch.Parallel { domains = 2; chunk = 1 });
    ]

let test_run_csv_source () =
  let cat = make_catalog () in
  let query =
    q
      {|WHERE <row><cust>$c</cust><email>$e</email></row> IN "legacy.contacts"
        CONSTRUCT <contact><c>$c</c><e>$e</e></contact>|}
  in
  check int_t "two contacts" 2 (List.length (Med_exec.run cat query));
  check bool_t "matches reference" true (agree cat query)

let test_run_order_limit () =
  let cat = make_catalog () in
  let query =
    q
      {|WHERE <row><amount>$a</amount></row> IN "crm.orders"
        CONSTRUCT <o>$a</o> ORDER BY $a DESC LIMIT 2|}
  in
  let results = Med_exec.run cat query in
  check (Alcotest.list string_t) "top amounts" [ "9000.0"; "250.0" ]
    (List.map Dtree.text results)

let test_run_element_as () =
  let cat = make_catalog () in
  let query =
    q
      {|WHERE <row><tier>"1"</tier></row> ELEMENT_AS $r IN "crm.customers"
        CONSTRUCT <kept>$r</kept>|}
  in
  let results = Med_exec.run cat query in
  check int_t "one tier-1 row" 1 (List.length results);
  check bool_t "matches reference" true (agree cat query)

let test_run_through_view () =
  let cat = make_catalog () in
  Med_catalog.define_view_text cat "west_customers" west_view_text;
  let query =
    q {|WHERE <customer><name>$n</name></customer> IN "west_customers" CONSTRUCT <w>$n</w>|}
  in
  let results = Med_exec.run cat query in
  check int_t "two west" 2 (List.length results);
  check bool_t "matches reference" true (agree cat query)

let test_run_view_over_view () =
  let cat = make_catalog () in
  Med_catalog.define_view_text cat "west_customers" west_view_text;
  Med_catalog.define_view_text cat "west_ids"
    {|WHERE <customer><id>$i</id></customer> IN "west_customers" CONSTRUCT <wid>$i</wid>|};
  let query = q {|WHERE <wid>$i</wid> IN "west_ids" CONSTRUCT <x>$i</x>|} in
  let results = Med_exec.run cat query in
  check int_t "two ids through two levels" 2 (List.length results);
  check bool_t "matches reference" true (agree cat query)

let test_union_view () =
  let cat = make_catalog () in
  (* One mediated schema integrating customers and contacts into a
     single <party> shape — the UNION the merger scenario needs. *)
  Med_catalog.define_view_text cat "parties"
    {|WHERE <row><name>$n</name></row> IN "crm.customers"
      CONSTRUCT <party src="crm">$n</party>
      UNION
      WHERE <row><cust>$n</cust></row> IN "legacy.contacts"
      CONSTRUCT <party src="legacy">$n</party>|};
  (match Med_catalog.find_view cat "parties" with
  | Some v -> check int_t "two definitions" 2 (List.length v.Med_catalog.definitions)
  | None -> Alcotest.fail "expected view");
  let query = q {|WHERE <party>$n</party> IN "parties" CONSTRUCT <p>$n</p>|} in
  let results = Med_exec.run cat query in
  check int_t "4 customers + 2 contacts" 6 (List.length results);
  check bool_t "matches reference" true (agree cat query);
  (* dependencies span both branches *)
  check (Alcotest.list string_t) "deps" [ "crm.customers"; "legacy.contacts" ]
    (Med_catalog.dependencies cat "parties")

let test_union_view_materializes () =
  let cat = make_catalog () in
  Med_catalog.define_view_text cat "parties"
    {|WHERE <row><name>$n</name></row> IN "crm.customers" CONSTRUCT <party>$n</party>
      UNION
      WHERE <row><cust>$n</cust></row> IN "legacy.contacts" CONSTRUCT <party>$n</party>|};
  let store = Mat_store.create cat in
  ignore (Mat_store.materialize store "parties");
  match Mat_store.lookup store "parties" with
  | Some trees -> check int_t "all six stored" 6 (List.length trees)
  | None -> Alcotest.fail "expected materialized union"

let test_run_correlated_subquery () =
  let cat = make_catalog () in
  let query =
    q
      {|WHERE <row><id>$i</id><name>$n</name></row> IN "crm.customers", $i <= 2
        CONSTRUCT <customer><name>$n</name>
          { WHERE <row><cust_id>$i</cust_id><item>$it</item></row> IN "crm.orders"
            CONSTRUCT <bought>$it</bought> }
        </customer>|}
  in
  let results = Med_exec.run cat query in
  check int_t "two customers" 2 (List.length results);
  let acme = List.hd results in
  check int_t "acme bought two items" 2 (List.length (Dtree.kids_named acme "bought"));
  check bool_t "matches reference" true (agree cat query)

let test_capability_fallback_agrees () =
  (* A relational source that rejects WHERE clauses: the mediator must
     fall back to shipping the table and filtering client-side, with the
     same answers. *)
  let cat = Med_catalog.create () in
  let cap = { Source.scan_only with Source.can_project = true } in
  Med_catalog.register_source cat (Rel_source.make_limited cap (make_crm ()));
  let query =
    q
      {|WHERE <row><name>$n</name><tier>$t</tier></row> IN "crm.customers", $t = 2
        CONSTRUCT <c>$n</c>|}
  in
  let results = Med_exec.run cat query in
  check int_t "two tier-2" 2 (List.length results);
  check bool_t "matches reference" true (agree cat query)

let test_partial_results_mode () =
  let cat = Med_catalog.create () in
  Med_catalog.register_source cat (Rel_source.make (make_crm ()));
  let down, _ =
    Net_sim.wrap { Net_sim.default_profile with Net_sim.availability = 0.0 }
      (Xml_source.of_xml_strings ~name:"products" [ ("catalog", catalog_xml) ])
  in
  Med_catalog.register_source cat down;
  let query =
    q
      {|WHERE <row><name>$n</name></row> IN "crm.customers"
        CONSTRUCT <c>$n</c>|}
  in
  (* Query touching only the live source is unaffected. *)
  let trees, skipped = Med_exec.run_partial cat query in
  check int_t "full answer" 4 (List.length trees);
  check int_t "nothing skipped" 0 (List.length skipped);
  (* A union-style query over both sources: partial mode answers from
     the live part and reports the dead one. *)
  let mixed =
    q
      {|WHERE <product sku=$s/> IN "products.catalog"
        CONSTRUCT <p>$s</p>|}
  in
  (try
     ignore (Med_exec.run cat mixed);
     Alcotest.fail "strict mode should fail"
   with Source.Unavailable _ | Alg_exec.Source_unavailable _ -> ());
  let trees, skipped = Med_exec.run_partial cat mixed in
  check int_t "empty but answered" 0 (List.length trees);
  check (Alcotest.list string_t) "annotated" [ "products" ] skipped

let test_pushdown_ships_fewer_tuples () =
  (* The mechanism behind experiment E3: with pushdown the source ships
     only matching rows; without it the whole table crosses the wire. *)
  let db = make_crm () in
  let wrapped, stats = Net_sim.wrap Net_sim.default_profile (Rel_source.make db) in
  let cat = Med_catalog.create () in
  Med_catalog.register_source cat wrapped;
  let query =
    q
      {|WHERE <row><name>$n</name><tier>$t</tier></row> IN "crm.customers", $t = 1
        CONSTRUCT <c>$n</c>|}
  in
  let r1 = Med_exec.run cat query in
  let pushed_tuples = stats.Net_sim.tuples_shipped in
  Net_sim.reset stats;
  let r2 = Med_exec.run ~opts:Med_sqlgen.no_pushdown cat query in
  let shipped_tuples = stats.Net_sim.tuples_shipped in
  check int_t "same answers" (List.length r1) (List.length r2);
  check bool_t "pushdown ships fewer" true (pushed_tuples < shipped_tuples);
  check int_t "pushdown ships exactly matches" 1 pushed_tuples

let test_join_pushdown_single_fragment () =
  let cat = make_catalog () in
  let compiled =
    Med_planner.compile cat
      (q
         {|WHERE <row><id>$i</id><name>$n</name></row> IN "crm.customers",
               <row><cust_id>$i</cust_id><amount>$a</amount></row> IN "crm.orders",
               $a > 100
           CONSTRUCT <big>$n</big>|})
  in
  (match compiled.Med_planner.accesses with
  | [ (_, Med_planner.A_sql_join { fragment; exports; _ }) ] ->
    check bool_t "single join fragment" true
      (contains fragment.Med_sqlgen.jf_sql_text "JOIN");
    check bool_t "join condition present" true
      (contains fragment.Med_sqlgen.jf_sql_text "t0.id = t1.cust_id");
    check bool_t "predicate pushed into fragment" true
      (contains fragment.Med_sqlgen.jf_sql_text "amount > 100");
    check (Alcotest.list string_t) "covers both tables" [ "customers"; "orders" ] exports
  | _ -> Alcotest.fail "expected one A_sql_join access");
  check int_t "no residual conditions" 0
    (List.length compiled.Med_planner.residual_conditions)

let test_join_pushdown_disabled_option () =
  let cat = make_catalog () in
  let compiled =
    Med_planner.compile ~opts:Med_sqlgen.no_join_pushdown cat
      (q
         {|WHERE <row><id>$i</id></row> IN "crm.customers",
               <row><cust_id>$i</cust_id></row> IN "crm.orders"
           CONSTRUCT <x>$i</x>|})
  in
  check int_t "two separate accesses" 2 (List.length compiled.Med_planner.accesses)

let test_join_pushdown_cross_product_refused () =
  (* Clauses over the same source with no shared variable must not be
     pushed as a cross product. *)
  let cat = make_catalog () in
  let compiled =
    Med_planner.compile cat
      (q
         {|WHERE <row><id>$i</id></row> IN "crm.customers",
               <row><oid>$o</oid></row> IN "crm.orders"
           CONSTRUCT <x><i>$i</i><o>$o</o></x>|})
  in
  check int_t "kept separate" 2 (List.length compiled.Med_planner.accesses)

let test_join_pushdown_not_for_limited_source () =
  let cat = Med_catalog.create () in
  let cap = { Source.full_capability with Source.can_join = false } in
  Med_catalog.register_source cat (Rel_source.make_limited cap (make_crm ()));
  let compiled =
    Med_planner.compile cat
      (q
         {|WHERE <row><id>$i</id></row> IN "crm.customers",
               <row><cust_id>$i</cust_id></row> IN "crm.orders"
           CONSTRUCT <x>$i</x>|})
  in
  check int_t "capability respected" 2 (List.length compiled.Med_planner.accesses)

let test_join_pushdown_results_agree () =
  let cat = make_catalog () in
  let query =
    q
      {|WHERE <row><id>$i</id><name>$n</name></row> IN "crm.customers",
             <row><cust_id>$i</cust_id><amount>$a</amount></row> IN "crm.orders",
             $a > 100
        CONSTRUCT <big><who>$n</who><amt>$a</amt></big>|}
  in
  check bool_t "pushed join matches reference" true (agree cat query);
  (* and the three-way variant (customers x orders x orders alias is not
     expressible; use element count instead) *)
  let results = Med_exec.run cat query in
  let separate = Med_exec.run ~opts:Med_sqlgen.no_join_pushdown cat query in
  check int_t "same answers with and without join pushdown" (List.length results)
    (List.length separate)

let test_order_limit_pushdown () =
  let db = make_crm () in
  let wrapped, stats = Net_sim.wrap Net_sim.default_profile (Rel_source.make db) in
  let cat = Med_catalog.create () in
  Med_catalog.register_source cat wrapped;
  let query =
    q
      {|WHERE <row><name>$n</name><tier>$t</tier></row> IN "crm.customers"
        CONSTRUCT <c>$n</c> ORDER BY $t DESC LIMIT 2|}
  in
  let compiled = Med_planner.compile cat query in
  (match compiled.Med_planner.accesses with
  | [ (_, Med_planner.A_sql { fragment; _ }) ] ->
    check bool_t "order shipped" true (contains fragment.Med_sqlgen.sql_text "ORDER BY");
    check bool_t "limit shipped" true (contains fragment.Med_sqlgen.sql_text "LIMIT 2")
  | _ -> Alcotest.fail "expected one SQL access");
  Net_sim.reset stats;
  let results = Med_exec.run cat query in
  check int_t "two results" 2 (List.length results);
  check int_t "only two tuples crossed the wire" 2 stats.Net_sim.tuples_shipped;
  check bool_t "order correct" true
    (List.map Dtree.text results = [ "Umbrella"; "Globex" ]
    || List.map Dtree.text results = [ "Umbrella"; "Initech" ])

(* Property: compiled pipeline agrees with the reference evaluator on
   random relational data for a fixed query family. *)
let prop_compiled_equals_reference =
  QCheck2.Test.make ~name:"compiled = reference on random data" ~count:40
    QCheck2.Gen.(pair (int_range 0 30) (int_range 0 50))
    (fun (ncust, nord) ->
      let g = Prng.create ((ncust * 131) + nord) in
      let db = Rel_db.create ~name:"crm" () in
      ignore (Rel_db.exec db "CREATE TABLE customers (id INT, name TEXT, tier INT)");
      ignore (Rel_db.exec db "CREATE TABLE orders (cust_id INT, amount INT)");
      for i = 1 to ncust do
        ignore
          (Rel_db.exec db
             (Printf.sprintf "INSERT INTO customers VALUES (%d, 'c%d', %d)" i
                (Prng.int g 5) (Prng.int g 4)))
      done;
      for _ = 1 to nord do
        ignore
          (Rel_db.exec db
             (Printf.sprintf "INSERT INTO orders VALUES (%d, %d)"
                (Prng.int_in g 1 (max 1 ncust)) (Prng.int g 1000)))
      done;
      let cat = Med_catalog.create () in
      Med_catalog.register_source cat (Rel_source.make db);
      let query =
        q
          {|WHERE <row><id>$i</id><tier>$t</tier></row> IN "crm.customers",
                 <row><cust_id>$i</cust_id><amount>$a</amount></row> IN "crm.orders",
                 $t >= 1, $a < 800
            CONSTRUCT <hit><i>$i</i><a>$a</a></hit>|}
      in
      agree cat query
      && agree ~opts:Med_sqlgen.no_pushdown cat query
      && agree ~opts:Med_sqlgen.no_join_pushdown cat query)

let () =
  let props = List.map QCheck_alcotest.to_alcotest [ prop_compiled_equals_reference ] in
  Alcotest.run "mediator"
    [
      ( "sources",
        [
          Alcotest.test_case "relational exports" `Quick test_rel_source_exports;
          Alcotest.test_case "relational sql" `Quick test_rel_source_sql;
          Alcotest.test_case "capability enforcement" `Quick test_rel_source_capability;
          Alcotest.test_case "xml path pushdown" `Quick test_xml_source_path;
          Alcotest.test_case "csv scan only" `Quick test_csv_source_scan;
          Alcotest.test_case "registry resolution" `Quick test_registry_resolution;
          Alcotest.test_case "net sim cost accounting" `Quick test_net_sim_costs;
          Alcotest.test_case "net sim unavailability" `Quick test_net_sim_unavailable;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "views and hierarchy" `Quick test_catalog_views;
          Alcotest.test_case "error cases" `Quick test_catalog_errors;
        ] );
      ( "compile",
        [
          Alcotest.test_case "sql pushdown" `Quick test_compile_pushes_sql;
          Alcotest.test_case "pushdown disabled" `Quick test_compile_no_pushdown_option;
          Alcotest.test_case "xml uses path preselection" `Quick test_compile_xml_uses_path;
          Alcotest.test_case "numeric ranges reach the path" `Quick test_compile_derives_ranges;
          Alcotest.test_case "float literal pushdown" `Quick test_float_literal_pushdown;
          Alcotest.test_case "xml float survives pushdown" `Quick
            test_xml_float_survives_pushdown;
          Alcotest.test_case "path pushdown ships fewer nodes" `Quick
            test_path_pushdown_ships_fewer_nodes;
          Alcotest.test_case "non-relational pattern falls back" `Quick
            test_compile_nested_pattern_falls_back;
          Alcotest.test_case "explain" `Quick test_explain_shows_fragments;
        ] );
      ( "execute",
        [
          Alcotest.test_case "select/project" `Quick test_run_select_project;
          Alcotest.test_case "two-table join" `Quick test_run_join_two_tables;
          Alcotest.test_case "relational x xml join" `Quick test_run_join_relational_with_xml;
          Alcotest.test_case "int/float join keys" `Quick test_run_join_int_float_keys;
          Alcotest.test_case "csv" `Quick test_run_csv_source;
          Alcotest.test_case "order/limit" `Quick test_run_order_limit;
          Alcotest.test_case "element_as" `Quick test_run_element_as;
          Alcotest.test_case "through a view" `Quick test_run_through_view;
          Alcotest.test_case "view over view" `Quick test_run_view_over_view;
          Alcotest.test_case "union view" `Quick test_union_view;
          Alcotest.test_case "union view materializes" `Quick test_union_view_materializes;
          Alcotest.test_case "correlated subquery" `Quick test_run_correlated_subquery;
          Alcotest.test_case "capability fallback" `Quick test_capability_fallback_agrees;
          Alcotest.test_case "partial results" `Quick test_partial_results_mode;
          Alcotest.test_case "pushdown ships fewer tuples" `Quick
            test_pushdown_ships_fewer_tuples;
        ] );
      ( "join-pushdown",
        [
          Alcotest.test_case "single fragment" `Quick test_join_pushdown_single_fragment;
          Alcotest.test_case "option disables" `Quick test_join_pushdown_disabled_option;
          Alcotest.test_case "cross product refused" `Quick
            test_join_pushdown_cross_product_refused;
          Alcotest.test_case "capability respected" `Quick
            test_join_pushdown_not_for_limited_source;
          Alcotest.test_case "results agree" `Quick test_join_pushdown_results_agree;
          Alcotest.test_case "order/limit pushdown" `Quick test_order_limit_pushdown;
        ]
        @ props );
    ]
