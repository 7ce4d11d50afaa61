(* Tests for the hybrid materialization subsystem: view store with
   refresh policies, view selection, result cache. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let string_t = Alcotest.string

(* Shared fixture: a catalog with one relational source and a view. *)
let make_fixture () =
  let db = Rel_db.create ~name:"crm" () in
  ignore (Rel_db.exec db "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT, region TEXT)");
  ignore
    (Rel_db.exec db
       "INSERT INTO customers VALUES (1, 'Acme', 'west'), (2, 'Globex', 'east'), (3, 'Initech', 'west')");
  let cat = Med_catalog.create () in
  Med_catalog.register_source cat (Rel_source.make db);
  Med_catalog.define_view_text cat "west"
    {|WHERE <row><id>$i</id><name>$n</name><region>"west"</region></row> IN "crm.customers"
      CONSTRUCT <customer><id>$i</id><name>$n</name></customer>|};
  (db, cat)

(* ------------------------------------------------------------------ *)
(* Mat_store                                                           *)
(* ------------------------------------------------------------------ *)

let test_store_materialize_lookup () =
  let _, cat = make_fixture () in
  let store = Mat_store.create cat in
  ignore (Mat_store.materialize store "west");
  (match Mat_store.lookup store "west" with
  | Some trees -> check int_t "two west customers" 2 (List.length trees)
  | None -> Alcotest.fail "expected materialized data");
  check bool_t "storage used" true (Mat_store.storage_used store > 0);
  check (Alcotest.list string_t) "listed" [ "west" ] (Mat_store.materialized_names store)

let test_store_manual_policy_is_stale () =
  let db, cat = make_fixture () in
  let store = Mat_store.create cat in
  ignore (Mat_store.materialize store "west");
  ignore (Rel_db.exec db "INSERT INTO customers VALUES (4, 'Hooli', 'west')");
  (* Manual policy: the copy is stale until an explicit refresh. *)
  (match Mat_store.lookup store "west" with
  | Some trees -> check int_t "still two (stale)" 2 (List.length trees)
  | None -> Alcotest.fail "expected data");
  Mat_store.refresh store "west";
  match Mat_store.lookup store "west" with
  | Some trees -> check int_t "three after refresh" 3 (List.length trees)
  | None -> Alcotest.fail "expected data"

let test_store_on_access_policy () =
  let db, cat = make_fixture () in
  let store = Mat_store.create cat in
  ignore (Mat_store.materialize store ~policy:Mat_store.On_access "west");
  ignore (Rel_db.exec db "INSERT INTO customers VALUES (4, 'Hooli', 'west')");
  match Mat_store.lookup store "west" with
  | Some trees -> check int_t "fresh on access" 3 (List.length trees)
  | None -> Alcotest.fail "expected data"

let test_store_every_n_policy () =
  let db, cat = make_fixture () in
  let store = Mat_store.create cat in
  ignore (Mat_store.materialize store ~policy:(Mat_store.Every_n_queries 3) "west");
  ignore (Rel_db.exec db "INSERT INTO customers VALUES (4, 'Hooli', 'west')");
  Mat_store.tick store;
  (match Mat_store.lookup store "west" with
  | Some trees -> check int_t "not due yet" 2 (List.length trees)
  | None -> Alcotest.fail "expected data");
  Mat_store.tick store;
  Mat_store.tick store;
  (match Mat_store.lookup store "west" with
  | Some trees -> check int_t "due after 3 ticks" 3 (List.length trees)
  | None -> Alcotest.fail "expected data");
  match Mat_store.peek store "west" with
  | Some e -> check int_t "two versions" 2 e.Mat_store.version
  | None -> Alcotest.fail "expected entry"

let test_store_unknown_view () =
  let _, cat = make_fixture () in
  let store = Mat_store.create cat in
  try
    ignore (Mat_store.materialize store "nope");
    Alcotest.fail "expected Mat_error"
  with Mat_store.Mat_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Mat_select                                                          *)
(* ------------------------------------------------------------------ *)

let candidates =
  [
    { Mat_select.cand_view = "hot"; storage = 100; virtual_cost = 50.0; local_cost = 1.0 };
    { Mat_select.cand_view = "warm"; storage = 100; virtual_cost = 20.0; local_cost = 1.0 };
    { Mat_select.cand_view = "big"; storage = 900; virtual_cost = 100.0; local_cost = 2.0 };
    { Mat_select.cand_view = "cold"; storage = 50; virtual_cost = 10.0; local_cost = 1.0 };
  ]

let workload = [ ("hot", 100); ("warm", 40); ("big", 10); ("cold", 1) ]

let test_select_greedy_respects_budget () =
  let sel = Mat_select.select ~budget:250 candidates workload in
  check bool_t "budget respected" true (sel.Mat_select.total_storage <= 250);
  check bool_t "hot chosen" true (List.mem "hot" sel.Mat_select.chosen);
  check bool_t "big excluded (too large)" true (not (List.mem "big" sel.Mat_select.chosen))

let test_select_zero_budget () =
  let sel = Mat_select.select ~budget:0 candidates workload in
  check int_t "nothing fits" 0 (List.length sel.Mat_select.chosen)

let test_select_greedy_near_optimal () =
  let greedy = Mat_select.select ~budget:1000 candidates workload in
  let optimal = Mat_select.select_optimal ~budget:1000 candidates workload in
  check bool_t "greedy within 80% of optimal" true
    (greedy.Mat_select.total_benefit >= 0.8 *. optimal.Mat_select.total_benefit)

let test_select_evaluate () =
  let all_virtual = Mat_select.evaluate candidates workload [] in
  let with_hot = Mat_select.evaluate candidates workload [ "hot" ] in
  check bool_t "materializing hot reduces cost" true (with_hot < all_virtual);
  check bool_t "saving matches benefit" true
    (abs_float (all_virtual -. with_hot -. Mat_select.benefit (List.hd candidates) 100) < 1e-9)

let test_select_adaptive_drift () =
  let m = Mat_select.monitor ~budget:150 candidates in
  for _ = 1 to 50 do
    Mat_select.observe m "hot"
  done;
  (match Mat_select.reselect_if_drifted m ~threshold:0.1 with
  | Some sel -> check (Alcotest.list string_t) "hot selected" [ "hot" ] sel.Mat_select.chosen
  | None -> Alcotest.fail "expected initial selection");
  (* Load shifts decisively to warm. *)
  for _ = 1 to 500 do
    Mat_select.observe m "warm"
  done;
  match Mat_select.reselect_if_drifted m ~threshold:0.1 with
  | Some sel -> check bool_t "warm now chosen" true (List.mem "warm" sel.Mat_select.chosen)
  | None -> Alcotest.fail "expected re-selection after drift"

(* Property: greedy never exceeds the budget and never beats optimal. *)
let prop_greedy_sound =
  QCheck2.Test.make ~name:"greedy selection sound vs optimal" ~count:60
    QCheck2.Gen.(
      pair (int_range 1 500)
        (list_size (int_range 1 6)
           (triple (int_range 1 200) (int_range 0 50) (int_range 0 20))))
    (fun (budget, specs) ->
      let cands =
        List.mapi
          (fun i (storage, vc, freq) ->
            ignore freq;
            {
              Mat_select.cand_view = Printf.sprintf "v%d" i;
              storage;
              virtual_cost = float_of_int vc;
              local_cost = 1.0;
            })
          specs
      in
      let load = List.mapi (fun i (_, _, freq) -> (Printf.sprintf "v%d" i, freq)) specs in
      let g = Mat_select.select ~budget cands load in
      let o = Mat_select.select_optimal ~budget cands load in
      g.Mat_select.total_storage <= budget
      && g.Mat_select.total_benefit <= o.Mat_select.total_benefit +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Mat_cache                                                           *)
(* ------------------------------------------------------------------ *)

let tree n = Dtree.leaf "x" (Value.Int n)

let test_cache_hit_miss () =
  (* Local stats and the process-wide registry must agree. *)
  Obs_metrics.reset_all ();
  let c = Mat_cache.create ~capacity:2 () in
  check bool_t "miss" true (Mat_cache.get c "q1" = None);
  Mat_cache.put c "q1" [ tree 1 ];
  check bool_t "hit" true (Mat_cache.get c "q1" <> None);
  check bool_t "hit rate" true (abs_float (Mat_cache.hit_rate c -. 0.5) < 1e-9);
  check bool_t "registry counted the hit" true
    (Obs_metrics.counter_value "cache.hits" = Some 1);
  check bool_t "registry counted the miss" true
    (Obs_metrics.counter_value "cache.misses" = Some 1)

let test_cache_lru_eviction () =
  let c = Mat_cache.create ~capacity:2 () in
  Mat_cache.put c "a" [ tree 1 ];
  Mat_cache.put c "b" [ tree 2 ];
  ignore (Mat_cache.get c "a");        (* a is now most recent *)
  Mat_cache.put c "c" [ tree 3 ];      (* evicts b *)
  check bool_t "a kept" true (Mat_cache.get c "a" <> None);
  check bool_t "b evicted" true (Mat_cache.get c "b" = None);
  check int_t "one eviction" 1 (Mat_cache.stats c).Mat_cache.evictions;
  check bool_t "registry counted the eviction" true
    (match Obs_metrics.counter_value "cache.evictions" with
    | Some n -> n >= 1
    | None -> false)

let test_cache_source_invalidation () =
  let c = Mat_cache.create ~capacity:8 () in
  Mat_cache.put c ~sources:[ "crm" ] "q1" [ tree 1 ];
  Mat_cache.put c ~sources:[ "crm"; "products" ] "q2" [ tree 2 ];
  Mat_cache.put c ~sources:[ "products" ] "q3" [ tree 3 ];
  check int_t "two dropped" 2 (Mat_cache.invalidate_source c "crm");
  check bool_t "q3 survives" true (Mat_cache.get c "q3" <> None)

let test_cache_zero_capacity () =
  let c = Mat_cache.create ~capacity:0 () in
  Mat_cache.put c "q" [ tree 1 ];
  check bool_t "disabled" true (Mat_cache.get c "q" = None)

let test_cache_get_or_compute () =
  let c = Mat_cache.create ~capacity:4 () in
  let computations = ref 0 in
  let compute () =
    incr computations;
    [ tree 9 ]
  in
  ignore (Mat_cache.get_or_compute c "q" compute);
  ignore (Mat_cache.get_or_compute c "q" compute);
  check int_t "computed once" 1 !computations

(* Dropping a view and defining it again under the same name must not
   let the result cache answer with the old body: the drop reaches the
   cache through the catalog's invalidation path. *)
let test_redefined_view_not_stale () =
  let db, _ = make_fixture () in
  let sys = Nimble.create () in
  let ok what = function Ok x -> x | Error m -> Alcotest.failf "%s: %s" what m in
  ok "register" (Nimble.register_source sys (Rel_source.make db));
  let define region =
    ok "define"
      (Nimble.define_view sys "v"
         (Printf.sprintf
            {|WHERE <row><name>$n</name><region>"%s"</region></row> IN "crm.customers"
              CONSTRUCT <y>$n</y>|}
            region))
  in
  let names () =
    ok "query" (Nimble.query sys {|WHERE <y>$n</y> IN "v" CONSTRUCT <c>$n</c>|})
    |> List.map Dtree.text |> List.sort compare
  in
  define "west";
  check (Alcotest.list string_t) "first body" [ "Acme"; "Initech" ] (names ());
  check (Alcotest.list string_t) "repeat served" [ "Acme"; "Initech" ] (names ());
  ok "drop" (Nimble.drop_view sys "v");
  define "east";
  check (Alcotest.list string_t) "new body, not the cached answer" [ "Globex" ] (names ());
  check bool_t "the repeat was a cache hit" true
    ((Mat_cache.stats (Nimble.cache sys)).Mat_cache.cache_hits >= 1)

(* Property: cache answers always equal recomputation. *)
let prop_cache_coherent =
  QCheck2.Test.make ~name:"cache returns what was stored" ~count:100
    QCheck2.Gen.(small_list (pair (int_bound 5) small_int))
    (fun ops ->
      let c = Mat_cache.create ~capacity:3 () in
      let model = Hashtbl.create 8 in
      List.for_all
        (fun (k, v) ->
          let key = Printf.sprintf "q%d" k in
          Mat_cache.put c key [ tree v ];
          Hashtbl.replace model key v;
          match Mat_cache.get c key with
          | Some [ t ] -> Dtree.text t = string_of_int (Hashtbl.find model key)
          | Some _ | None -> true (* evicted is fine; wrong value is not *))
        ops)

let () =
  let props = List.map QCheck_alcotest.to_alcotest [ prop_greedy_sound; prop_cache_coherent ] in
  Alcotest.run "materialize"
    [
      ( "store",
        [
          Alcotest.test_case "materialize/lookup" `Quick test_store_materialize_lookup;
          Alcotest.test_case "manual policy" `Quick test_store_manual_policy_is_stale;
          Alcotest.test_case "on-access policy" `Quick test_store_on_access_policy;
          Alcotest.test_case "every-n policy" `Quick test_store_every_n_policy;
          Alcotest.test_case "unknown view" `Quick test_store_unknown_view;
        ] );
      ( "selection",
        [
          Alcotest.test_case "greedy under budget" `Quick test_select_greedy_respects_budget;
          Alcotest.test_case "zero budget" `Quick test_select_zero_budget;
          Alcotest.test_case "near optimal" `Quick test_select_greedy_near_optimal;
          Alcotest.test_case "evaluate" `Quick test_select_evaluate;
          Alcotest.test_case "adaptive drift" `Quick test_select_adaptive_drift;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "source invalidation" `Quick test_cache_source_invalidation;
          Alcotest.test_case "zero capacity" `Quick test_cache_zero_capacity;
          Alcotest.test_case "get_or_compute" `Quick test_cache_get_or_compute;
          Alcotest.test_case "redefined view is not stale" `Quick test_redefined_view_not_stale;
        ]
        @ props );
    ]
