(* lens_server: the concurrency server with its plan cache, the fragment
   and semantic caches on, and the demo lenses over a larger federation.
   One closed-loop client submits and drains one lens request at a time;
   every twentieth operation is a write into crm followed by
   Nimble.invalidate_source.  The product catalog sits behind a seeded
   availability schedule with a two-retry policy. *)

open Common

let regions =
  Array.init 16 (fun i -> Printf.sprintf "region%02d" i)

type data = {
  crm : Rel_db.t;
  catalog : Dtree.t;
  n_customers : int;
  n_orders : int;
}

let make_data ~scale ~seed =
  let g = Prng.create (seed * 4099 + 5) in
  let n_customers = max 80 (int_of_float (5_000.0 *. scale)) in
  let n_orders = 4 * n_customers in
  let n_products = max 40 (int_of_float (2_000.0 *. scale)) in
  let crm = Rel_db.create ~name:"crm" () in
  exec_all crm
    [
      "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT, region TEXT, tier INT)";
      "CREATE TABLE orders (oid INT PRIMARY KEY, cust_id INT, item TEXT, amount FLOAT)";
    ];
  insert_rows crm "customers"
    (List.init n_customers (fun i ->
         Printf.sprintf "(%d, 'cust%d', '%s', %d)" (i + 1) (i + 1) (Prng.pick g regions)
           (1 + Prng.int g 3)));
  (* Mostly small orders with a 5% tail of large ones, so the big_orders
     lens returns a few hundred rows for its thresholds. *)
  let amount () =
    if Prng.int g 20 = 0 then 1_000 + Prng.int g 9_000 else 1 + Prng.int g 999
  in
  insert_rows crm "orders"
    (List.init n_orders (fun i ->
         Printf.sprintf "(%d, %d, 'item%d', %d.%d)" (i + 1)
           (1 + Prng.int g n_customers)
           (Prng.int g 40) (amount ()) (Prng.int g 10)));
  let products =
    List.init n_products (fun i ->
        Printf.sprintf {|<product sku="sku%d"><price>%d</price></product>|} (i + 1)
          (5 + Prng.int g 5_000))
  in
  let catalog =
    Dtree.of_xml_element
      (Xml_parser.parse_element_exn ("<catalog>" ^ String.concat "" products ^ "</catalog>"))
  in
  { crm; catalog; n_customers; n_orders }

type op =
  | Lens of string * string * (string * string) list
  | Write of string

(* Nineteen reads then one write per cycle of twenty: two catalog
   listings, the rest alternating region lookups and order thresholds
   drawn from small, heavily overlapping pools. *)
let op ~d ~seed i =
  let g = Prng.create ((seed * 1_000_003) + i) in
  let r = i mod 20 in
  if r = 19 then
    let cycle = i / 20 in
    if cycle mod 2 = 0 then
      Write
        (Printf.sprintf "INSERT INTO orders VALUES (%d, %d, 'item%d', %d.%d)"
           (d.n_orders + cycle + 1)
           (1 + Prng.int g d.n_customers)
           (Prng.int g 40)
           (1_000 + Prng.int g 9_000)
           (Prng.int g 10))
    else
      Write
        (Printf.sprintf "UPDATE customers SET tier = %d WHERE id = %d" (1 + Prng.int g 3)
           (1 + Prng.int g d.n_customers))
  else if r = 0 || r = 10 then Lens ("catalog", "all", [])
  else if r mod 2 = 1 then Lens ("sales", "by_region", [ ("region", Prng.pick g regions) ])
  else
    Lens ("sales", "big_orders", [ ("min", string_of_int (5_000 + (500 * Prng.int g 10))) ])

let key_of = function
  | Lens (lens, q, args) ->
    String.concat "&" ((lens ^ "." ^ q) :: List.map (fun (k, v) -> k ^ "=" ^ v) args)
  | Write sql -> sql

let crm_profile = { Net_sim.latency_ms = 5.0; per_tuple_ms = 0.01; availability = 1.0 }
let products_profile = { Net_sim.latency_ms = 4.0; per_tuple_ms = 0.002; availability = 1.0 }

let retry_policy =
  { Src_retry.default_policy with Src_retry.max_retries = 2; base_backoff_ms = 16.0 }

(* Fragment entries age out after 50 virtual ms, so the catalog listing
   keeps going back to the flaky products source and the retry policy
   has work to do. *)
let frag_ttl_ms = 50.0

let build_system ~seed d =
  let sys =
    Nimble.create ~frag_capacity:256 ~frag_ttl_ms ~sem_budget_bytes:(8 lsl 20) ()
  in
  let crm_src = Ledger.decorate ~layer:Ledger.relation Ledger.relation_counts (Rel_source.make d.crm) in
  let crm, crm_st = Net_sim.wrap ~seed:19 crm_profile crm_src in
  let products_src =
    Ledger.decorate ~layer:Ledger.xml Ledger.xml_counts
      (Xml_source.make ~name:"products" [ ("catalog", d.catalog) ])
  in
  (* One 20 ms outage per 200 ms period.  Two outages can touch, so an
     outage lasts at most 40 ms, and the next one starts at least 160 ms
     later; the two retries back off 16-20 ms then 32-40 ms after 4 ms
     calls, so the second retry always lands past the outage and every
     request completes. *)
  let faults =
    Net_sim.availability_schedule ~seed ~availability:0.9 ~period_ms:200.0
      ~horizon_ms:100_000.0
  in
  let products, products_st = Net_sim.wrap ~seed:19 ~faults products_profile products_src in
  ok_or_fail "register" (Nimble.register_source sys crm);
  ok_or_fail "register" (Nimble.register_source sys products);
  Srv_workload.install_demo sys;
  Nimble.set_retry_policy sys retry_policy;
  ignore (ok_or_fail "analyze" (Nimble.analyze_stats sys));
  let srv = Srv_dispatch.create sys in
  ignore (ok_or_fail "session" (Srv_dispatch.open_session srv ~user:"alice" ~password:"wonder"));
  (sys, srv, [ crm_st; products_st ])

let run ~sys ~srv ~d o =
  let key = key_of o in
  match o with
  | Write sql -> (
    match
      ignore (Rel_db.exec d.crm sql);
      Nimble.invalidate_source sys "crm"
    with
    | _ -> { kind = Write; key; output = ""; ok = true }
    | exception e -> failure Write key (Printexc.to_string e))
  | Lens (lens, query, args) -> (
    let outcome =
      Ledger.with_span Ledger.request (fun () ->
          match Srv_dispatch.submit srv ~session:"alice" ~lens ~query ~args () with
          | Error m -> Error m
          | Ok id ->
            Srv_dispatch.drain srv;
            Ok (Srv_dispatch.outcome srv id))
    in
    match outcome with
    | Ok (Some (Srv_request.Completed r)) ->
      { kind = Read; key; output = r.Srv_request.rep_output; ok = true }
    | Ok (Some (Srv_request.Rejected rej)) -> failure Read key (Srv_request.reject_to_string rej)
    | Ok None -> failure Read key "request never settled"
    | Error m -> failure Read key m)

let rejected srv =
  List.length
    (List.filter
       (function _, Srv_request.Rejected _ -> true | _, Srv_request.Completed _ -> false)
       (Srv_dispatch.outcomes srv))

let setup ~scale ~seed =
  let d = make_data ~scale ~seed in
  let sys, srv, nets = build_system ~seed d in
  (* Warm-up: fill the plan cache with every lens shape. *)
  List.iter
    (fun o -> ignore (run ~sys ~srv ~d o))
    [
      Lens ("catalog", "all", []);
      Lens ("sales", "by_region", [ ("region", regions.(0)) ]);
      Lens ("sales", "big_orders", [ ("min", "9500") ]);
    ];
  let counters () =
    let p = Srv_plancache.stats (Srv_dispatch.plan_cache srv) in
    let i = float_of_int in
    system_counters sys
    @ [
        ("server.plan_hits", i p.Srv_plancache.hits);
        ("server.plan_misses", i p.Srv_plancache.misses);
        ("server.plan_invalidations", i p.Srv_plancache.invalidations);
        ("server.rejected", i (rejected srv));
      ]
  in
  ( d,
    sys,
    {
      step = (fun i -> run ~sys ~srv ~d (op ~d ~seed i));
      nets;
      counters;
      setup_notes = [];
    } )

(* The reference twin gets its own copy of the generated data and the
   same writes, in the same order, as the measured system. *)
let verify ~scale ~seed ~ops =
  let d, sys, inst = setup ~scale ~seed in
  let twin_d = make_data ~scale ~seed in
  let twin = Med_catalog.create () in
  Med_catalog.register_source twin (Rel_source.make twin_d.crm);
  Med_catalog.register_source twin
    (plain_xml_source ~name:"products" [ ("catalog", twin_d.catalog) ]);
  List.filter_map
    (fun i ->
      let o = op ~d ~seed i in
      let a = inst.step i in
      match o with
      | Write sql ->
        ignore (Rel_db.exec twin_d.crm sql);
        if a.ok then None else Some (i, a.key)
      | Lens (lens_name, query, args) ->
        let lens = Option.get (Nimble.find_lens sys lens_name) in
        let expected =
          Fe_format.render lens.Fe_lens.device
            (Xq_eval.eval (Med_exec.direct_resolver twin) (Fe_lens.instantiate lens query args))
        in
        if a.ok && same_answer a.output expected then None else Some (i, a.key))
    (List.init ops Fun.id)
