(* federated_sql: relational sources behind the network simulator, a
   star join over four of them, and a two-level view over views.  Each
   operation runs the staged path the server also runs: parse, compile,
   run_compiled with the view hook, render. *)

open Common

let regions = [| "west"; "east"; "north"; "south"; "central"; "coast"; "alpine"; "plains" |]
let n_cust_dim = 60
let n_prod = 40
let n_store = 30

type data = {
  crm : Rel_db.t;
  sales : Rel_db.t;
  cust : Rel_db.t;
  prod : Rel_db.t;
  store : Rel_db.t;
}

(* Money as tenths, so every value prints and parses exactly. *)
let money g hi = Printf.sprintf "%d.%d" (Prng.int g hi) (Prng.int g 10)

let make_data ~scale ~seed =
  let g = Prng.create (seed * 7919 + 1) in
  let n_customers = max 50 (int_of_float (10_000.0 *. scale)) in
  let n_orders = 2 * n_customers in
  let n_facts = max 100 (int_of_float (5_000.0 *. scale)) in
  let db name ddl =
    let d = Rel_db.create ~name () in
    exec_all d ddl;
    d
  in
  let crm =
    db "crm"
      [
        "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT, region TEXT, tier INT, balance FLOAT)";
        "CREATE TABLE orders (oid INT PRIMARY KEY, cust_id INT, item TEXT, amount FLOAT)";
      ]
  in
  insert_rows crm "customers"
    (List.init n_customers (fun i ->
         Printf.sprintf "(%d, 'cust%d', '%s', %d, %s)" (i + 1) (i + 1)
           (Prng.pick g regions) (1 + Prng.int g 3) (money g 10_000)));
  insert_rows crm "orders"
    (List.init n_orders (fun i ->
         Printf.sprintf "(%d, %d, 'item%d', %s)" (i + 1)
           (1 + Prng.int g n_customers)
           (Prng.int g 50) (money g 1_000)));
  let sales =
    db "sales"
      [
        "CREATE TABLE sales (sid INT PRIMARY KEY, cust_id INT, prod_id INT, store_id INT, amount FLOAT)";
      ]
  in
  insert_rows sales "sales"
    (List.init n_facts (fun i ->
         Printf.sprintf "(%d, %d, %d, %d, %s)" (i + 1)
           (1 + Prng.int g n_cust_dim)
           (1 + Prng.int g n_prod) (1 + Prng.int g n_store) (money g 900)));
  let cust = db "cust" [ "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT, tier INT)" ] in
  insert_rows cust "customers"
    (List.init n_cust_dim (fun i ->
         Printf.sprintf "(%d, 'dim customer %d', %d)" (i + 1) (i + 1) (1 + (i mod 3))));
  let prod = db "prod" [ "CREATE TABLE products (pid INT PRIMARY KEY, pname TEXT)" ] in
  insert_rows prod "products"
    (List.init n_prod (fun i -> Printf.sprintf "(%d, 'product %d')" (i + 1) (i + 1)));
  let store = db "store" [ "CREATE TABLE stores (stid INT PRIMARY KEY, city TEXT)" ] in
  insert_rows store "stores"
    (List.init n_store (fun i -> Printf.sprintf "(%d, 'city %d')" (i + 1) (i + 1)));
  { crm; sales; cust; prod; store }

let views =
  [
    ( "vip_orders",
      {|WHERE <row><id>$c</id><name>$n</name><region>$r</region><tier>$t</tier></row> IN "crm.customers",
              <row><oid>$o</oid><cust_id>$c</cust_id><amount>$a</amount></row> IN "crm.orders",
              $t = 3, $a >= 900
        CONSTRUCT <vip><name>$n</name><region>$r</region><oid>$o</oid><amount>$a</amount></vip>|}
    );
    ( "vip_by_region",
      {|WHERE <vip><name>$n</name><region>$r</region><oid>$o</oid><amount>$a</amount></vip> IN "vip_orders"
        CONSTRUCT <big><region>$r</region><name>$n</name><oid>$o</oid><amount>$a</amount></big>|}
    );
  ]

(* Operation [i] of the stream, a pure function of (seed, i): a cycle of
   range select, equality select, star join, range select and
   view-over-view query, each with fresh constants.  Range selects are
   two fifths of the mix, so the median falls inside one kind. *)
let query ~scale ~seed i =
  let g = Prng.create ((seed * 1_000_003) + i) in
  let n_customers = max 50 (int_of_float (10_000.0 *. scale)) in
  match i mod 5 with
  | 0 | 3 ->
    let lo = Prng.int g 9_900 in
    Printf.sprintf
      {|WHERE <row><id>$i</id><name>$n</name><balance>$b</balance></row> IN "crm.customers",
              $b >= %d, $b < %d
        CONSTRUCT <c><id>$i</id><name>$n</name><balance>$b</balance></c>|}
      lo (lo + 100)
  | 1 ->
    Printf.sprintf
      {|WHERE <row><oid>$o</oid><cust_id>$k</cust_id><item>$t</item><amount>$a</amount></row> IN "crm.orders",
              $k = %d
        CONSTRUCT <o><oid>$o</oid><item>$t</item><amount>$a</amount></o>|}
      (1 + Prng.int g n_customers)
  | 2 ->
    Printf.sprintf
      {|WHERE <row><sid>$s</sid><cust_id>$c</cust_id><prod_id>$p</prod_id><store_id>$st</store_id><amount>$a</amount></row> IN "sales.sales",
              <row><id>$c</id><name>$cn</name><tier>$t</tier></row> IN "cust.customers",
              <row><pid>$p</pid><pname>$pn</pname></row> IN "prod.products",
              <row><stid>$st</stid><city>$ct</city></row> IN "store.stores",
              $t = %d, $a >= %d.%d
        CONSTRUCT <sale><sid>$s</sid><customer>$cn</customer><product>$pn</product><city>$ct</city><amount>$a</amount></sale>|}
      (1 + Prng.int g 3) (700 + Prng.int g 50) (Prng.int g 10)
  | _ ->
    let lo = 900 + Prng.int g 90 in
    Printf.sprintf
      {|WHERE <big><name>$n</name><region>"%s"</region><oid>$o</oid><amount>$a</amount></big> IN "vip_by_region",
              $a >= %d, $a < %d
        CONSTRUCT <vo><name>$n</name><oid>$o</oid><amount>$a</amount></vo>|}
      (Prng.pick g regions) lo (lo + 10)

let fact_profile = { Net_sim.latency_ms = 8.0; per_tuple_ms = 0.05; availability = 1.0 }
let dim_profile = { Net_sim.latency_ms = 5.0; per_tuple_ms = 0.02; availability = 1.0 }
let crm_profile = { Net_sim.latency_ms = 5.0; per_tuple_ms = 0.01; availability = 1.0 }

let sources d =
  [
    (d.crm, crm_profile); (d.sales, fact_profile); (d.cust, dim_profile);
    (d.prod, dim_profile); (d.store, dim_profile);
  ]

let build_system d =
  let sys = Nimble.create () in
  let nets =
    List.map
      (fun (db, profile) ->
        let raw = Ledger.decorate ~layer:Ledger.relation Ledger.relation_counts (Rel_source.make db) in
        let wrapped, st = Net_sim.wrap ~seed:17 profile raw in
        ok_or_fail "register" (Nimble.register_source sys wrapped);
        st)
      (sources d)
  in
  List.iter (fun (name, text) -> ok_or_fail "view" (Nimble.define_view sys name text)) views;
  ignore (ok_or_fail "analyze" (Nimble.analyze_stats sys));
  (sys, nets)

let run_staged sys text =
  let cat = Nimble.catalog sys in
  match
    let q = Ledger.with_span Ledger.parse (fun () -> Xq_parser.parse_exn text) in
    let compiled = Ledger.with_span Ledger.compile (fun () -> Med_exec.compile cat q) in
    let r =
      Ledger.with_span Ledger.exec (fun () ->
          Med_exec.run_compiled ~view_lookup:(Nimble.view_lookup sys) cat compiled)
    in
    Ledger.with_span Ledger.render (fun () -> render r.Med_exec.trees)
  with
  | output -> { kind = Read; key = text; output; ok = true }
  | exception e -> failure Read text (Printexc.to_string e)

let setup ~scale ~seed =
  let sys, nets = build_system (make_data ~scale ~seed) in
  (* Warm-up: one operation of each kind, outside the measured window. *)
  for i = 0 to 4 do
    ignore (run_staged sys (query ~scale ~seed:(seed + 1) i))
  done;
  {
    step = (fun i -> run_staged sys (query ~scale ~seed i));
    nets;
    counters = (fun () -> system_counters sys);
    setup_notes = [];
  }

(* Reduced-scale answers against the brute-force reference over an
   unwrapped twin holding the same generated data. *)
let verify ~scale ~seed ~ops =
  let inst = setup ~scale ~seed in
  let twin = Med_catalog.create () in
  let d = make_data ~scale ~seed in
  List.iter (fun (db, _) -> Med_catalog.register_source twin (Rel_source.make db)) (sources d);
  List.iter (fun (name, text) -> Med_catalog.define_view_text twin name text) views;
  List.filter_map
    (fun i ->
      let a = inst.step i in
      let expected = reference twin (Xq_parser.parse_exn (query ~scale ~seed i)) in
      if a.ok && same_answer a.output expected then None else Some (i, a.key))
    (List.init ops Fun.id)
