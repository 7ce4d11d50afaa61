(* Scatter-gather fetch scheduling, the fragment cache, and their
   equivalence with sequential execution (ROADMAP: overlapped source
   accesses must not change what a query answers). *)

let bool_t = Alcotest.bool
let int_t = Alcotest.int
let check = Alcotest.check
let q = Xq_parser.parse_exn

(* ------------------------------------------------------------------ *)
(* Obs_clock rounds                                                    *)
(* ------------------------------------------------------------------ *)

let test_round_advances_by_max () =
  Obs_clock.reset_virtual ();
  Obs_clock.begin_round ();
  Obs_clock.begin_lane ();
  Obs_clock.advance 10.0;
  Obs_clock.begin_lane ();
  Obs_clock.advance 4.0;
  let cost = Obs_clock.end_round () in
  Alcotest.(check (float 0.001)) "round cost is the slowest lane" 10.0 cost;
  Alcotest.(check (float 0.001)) "clock advanced by the max" 10.0 (Obs_clock.virtual_ms ())

let test_nested_rounds_merge_serially () =
  Obs_clock.reset_virtual ();
  Obs_clock.begin_round ();
  Obs_clock.begin_lane ();
  Obs_clock.advance 5.0;
  Obs_clock.begin_round ();
  Obs_clock.advance 7.0;
  Alcotest.(check (float 0.001)) "nested round returns 0" 0.0 (Obs_clock.end_round ());
  Obs_clock.begin_lane ();
  Obs_clock.advance 3.0;
  Alcotest.(check (float 0.001)) "nested cost merged into enclosing lane" 12.0
    (Obs_clock.end_round ())

(* ------------------------------------------------------------------ *)
(* Fetch_sched                                                         *)
(* ------------------------------------------------------------------ *)

let test_scheduler_rounds_and_dedup () =
  Obs_clock.reset_virtual ();
  let ran = ref [] in
  let mk key cost =
    {
      Fetch_sched.task_key = key;
      task_run =
        (fun () ->
          ran := key :: !ran;
          Obs_clock.advance cost;
          key);
    }
  in
  let outs = Fetch_sched.run ~fanout:2 [ mk "a" 10.0; mk "b" 4.0; mk "a" 10.0; mk "c" 6.0 ] in
  check int_t "one outcome per input task" 4 (List.length outs);
  check int_t "duplicate key executed once" 3 (List.length !ran);
  (* rounds of 2 over the unique tasks [a; b; c]: max(10,4) + 6 *)
  Alcotest.(check (float 0.001)) "clock charged max-per-round" 16.0 (Obs_clock.virtual_ms ());
  (match outs with
  | [ a1; b; a2; c ] ->
    check bool_t "first a not shared" false a1.Fetch_sched.shared;
    check bool_t "second a shared" true a2.Fetch_sched.shared;
    check int_t "shared outcome keeps the executing round" a1.Fetch_sched.round
      a2.Fetch_sched.round;
    check int_t "c runs in the second round" 1 c.Fetch_sched.round;
    (match (a2.Fetch_sched.result, b.Fetch_sched.result) with
    | Ok "a", Ok "b" -> ()
    | _ -> Alcotest.fail "unexpected task results")
  | _ -> Alcotest.fail "expected four outcomes")

let test_scheduler_captures_exceptions () =
  Obs_clock.reset_virtual ();
  let outs =
    Fetch_sched.run ~fanout:4
      [
        { Fetch_sched.task_key = "ok"; task_run = (fun () -> 1) };
        { Fetch_sched.task_key = "boom"; task_run = (fun () -> failwith "boom") };
      ]
  in
  match List.map (fun o -> o.Fetch_sched.result) outs with
  | [ Ok 1; Error (Failure msg) ] when msg = "boom" -> ()
  | _ -> Alcotest.fail "expected one success and one captured failure"

(* ------------------------------------------------------------------ *)
(* Frag_cache                                                          *)
(* ------------------------------------------------------------------ *)

let rows_result tag = Source.R_rows ([ tag ], [])

let test_frag_cache_lru () =
  let c = Frag_cache.create ~capacity:2 () in
  check bool_t "enabled" true (Frag_cache.enabled c);
  Frag_cache.put c ~source:"s" ~fragment:"f1" (rows_result "f1");
  Frag_cache.put c ~source:"s" ~fragment:"f2" (rows_result "f2");
  (match Frag_cache.get c ~source:"s" ~fragment:"f1" with
  | Some (Source.R_rows ([ "f1" ], [])) -> ()
  | _ -> Alcotest.fail "expected f1 hit");
  Frag_cache.put c ~source:"s" ~fragment:"f3" (rows_result "f3");
  check bool_t "LRU entry evicted" true (Frag_cache.get c ~source:"s" ~fragment:"f2" = None);
  check bool_t "recent entry survives" true
    (Frag_cache.get c ~source:"s" ~fragment:"f1" <> None);
  check int_t "one eviction counted" 1 (Frag_cache.stats c).Frag_cache.frag_evictions

let test_frag_cache_ttl () =
  Obs_clock.reset_virtual ();
  let c = Frag_cache.create ~ttl_ms:50.0 ~capacity:4 () in
  Frag_cache.put c ~source:"s" ~fragment:"f" (rows_result "f");
  check bool_t "fresh entry hits" true (Frag_cache.get c ~source:"s" ~fragment:"f" <> None);
  Obs_clock.advance 60.0;
  check bool_t "expired entry misses" true (Frag_cache.get c ~source:"s" ~fragment:"f" = None);
  check int_t "expiration counted" 1 (Frag_cache.stats c).Frag_cache.frag_expirations

(* Eviction order must track recency, not insertion: repeatedly
   touching an old entry keeps promoting it to the front of the
   intrusive list, so the victim is always the true LRU. *)
let test_frag_cache_touch_order () =
  let c = Frag_cache.create ~capacity:3 () in
  Frag_cache.put c ~source:"s" ~fragment:"a" (rows_result "a");
  Frag_cache.put c ~source:"s" ~fragment:"b" (rows_result "b");
  Frag_cache.put c ~source:"s" ~fragment:"c" (rows_result "c");
  (* touch a twice, then b — recency is now b > a > c *)
  ignore (Frag_cache.get c ~source:"s" ~fragment:"a");
  ignore (Frag_cache.get c ~source:"s" ~fragment:"a");
  ignore (Frag_cache.get c ~source:"s" ~fragment:"b");
  Frag_cache.put c ~source:"s" ~fragment:"d" (rows_result "d");
  check bool_t "c (LRU) evicted" true (Frag_cache.get c ~source:"s" ~fragment:"c" = None);
  check bool_t "a survives" true (Frag_cache.get c ~source:"s" ~fragment:"a" <> None);
  check bool_t "b survives" true (Frag_cache.get c ~source:"s" ~fragment:"b" <> None);
  (* overwrite of a live key must not evict anyone else *)
  Frag_cache.put c ~source:"s" ~fragment:"d" (rows_result "d2");
  check int_t "overwrite evicts nothing" 1 (Frag_cache.stats c).Frag_cache.frag_evictions;
  (* d was just re-put: it is now MRU, so the next eviction hits a *)
  Frag_cache.put c ~source:"s" ~fragment:"e" (rows_result "e");
  check bool_t "a (new LRU) evicted after overwrite" true
    (Frag_cache.get c ~source:"s" ~fragment:"a" = None);
  check bool_t "overwritten value readable" true
    (match Frag_cache.get c ~source:"s" ~fragment:"d" with
    | Some (Source.R_rows ([ "d2" ], [])) -> true
    | _ -> false)

(* TTL boundary: expiry is strict — an entry aged by exactly its TTL is
   still fresh; one tick past and it is gone. *)
let test_frag_cache_ttl_boundary () =
  Obs_clock.reset_virtual ();
  let c = Frag_cache.create ~ttl_ms:50.0 ~capacity:4 () in
  Frag_cache.put c ~source:"s" ~fragment:"f" (rows_result "f");
  Obs_clock.advance 50.0;
  check bool_t "age = ttl exactly still hits" true
    (Frag_cache.get c ~source:"s" ~fragment:"f" <> None);
  check int_t "no expiration at the boundary" 0
    (Frag_cache.stats c).Frag_cache.frag_expirations;
  Obs_clock.advance 0.001;
  check bool_t "one tick past ttl misses" true
    (Frag_cache.get c ~source:"s" ~fragment:"f" = None);
  check int_t "expiration counted once" 1 (Frag_cache.stats c).Frag_cache.frag_expirations;
  check int_t "expired entry is unlinked" 0 (Frag_cache.size c)

(* invalidate_source on a full cache must leave the recency list
   consistent: later puts still evict correctly and never resurrect a
   dropped entry. *)
let test_frag_cache_invalidate_full () =
  let c = Frag_cache.create ~capacity:4 () in
  Frag_cache.put c ~source:"s1" ~fragment:"a" (rows_result "a");
  Frag_cache.put c ~source:"s2" ~fragment:"b" (rows_result "b");
  Frag_cache.put c ~source:"s1" ~fragment:"c" (rows_result "c");
  Frag_cache.put c ~source:"s2" ~fragment:"d" (rows_result "d");
  check int_t "cache is full" 4 (Frag_cache.size c);
  check int_t "s1 fragments dropped" 2 (Frag_cache.invalidate_source c "s1");
  check int_t "two survivors" 2 (Frag_cache.size c);
  check bool_t "dropped entries gone" true
    (Frag_cache.get c ~source:"s1" ~fragment:"a" = None
    && Frag_cache.get c ~source:"s1" ~fragment:"c" = None);
  (* refill past capacity: list splicing after invalidation must still
     pick the right victim (b is older than d) *)
  Frag_cache.put c ~source:"s3" ~fragment:"e" (rows_result "e");
  Frag_cache.put c ~source:"s3" ~fragment:"f" (rows_result "f");
  check int_t "full again" 4 (Frag_cache.size c);
  Frag_cache.put c ~source:"s3" ~fragment:"g" (rows_result "g");
  check bool_t "oldest survivor evicted first" true
    (Frag_cache.get c ~source:"s2" ~fragment:"b" = None);
  check bool_t "newer survivor intact" true
    (Frag_cache.get c ~source:"s2" ~fragment:"d" <> None);
  check int_t "invalidations counted" 2 (Frag_cache.stats c).Frag_cache.frag_invalidations

let test_frag_cache_invalidate_source () =
  let c = Frag_cache.create ~capacity:8 () in
  Frag_cache.put c ~source:"s1" ~fragment:"a" (rows_result "a");
  Frag_cache.put c ~source:"s1" ~fragment:"b" (rows_result "b");
  Frag_cache.put c ~source:"s2" ~fragment:"a" (rows_result "a");
  check int_t "both s1 fragments dropped" 2 (Frag_cache.invalidate_source c "s1");
  check int_t "s2 untouched" 1 (Frag_cache.size c)

let test_frag_cache_disabled () =
  let c = Frag_cache.create ~capacity:0 () in
  check bool_t "disabled" false (Frag_cache.enabled c);
  Frag_cache.put c ~source:"s" ~fragment:"f" (rows_result "f");
  check bool_t "no storage" true (Frag_cache.get c ~source:"s" ~fragment:"f" = None);
  let st = Frag_cache.stats c in
  check int_t "disabled lookups uncounted" 0 (st.Frag_cache.frag_hits + st.Frag_cache.frag_misses)

(* ------------------------------------------------------------------ *)
(* Mat_cache TTL (satellite of the same freshness story)               *)
(* ------------------------------------------------------------------ *)

let test_mat_cache_ttl () =
  Obs_clock.reset_virtual ();
  let c = Mat_cache.create ~ttl_ms:50.0 ~capacity:4 () in
  Mat_cache.put c "query" [ Dtree.leaf "x" (Value.Int 1) ];
  check bool_t "fresh entry hits" true (Mat_cache.get c "query" <> None);
  Obs_clock.advance 60.0;
  check bool_t "expired entry misses" true (Mat_cache.get c "query" = None);
  check int_t "expiration counted" 1 (Mat_cache.stats c).Mat_cache.expirations;
  let untimed = Mat_cache.create ~capacity:4 () in
  Mat_cache.put untimed "query" [ Dtree.leaf "x" (Value.Int 1) ];
  Obs_clock.advance 1000.0;
  check bool_t "no TTL means no expiry" true (Mat_cache.get untimed "query" <> None)

(* ------------------------------------------------------------------ *)
(* Property: the cache core agrees with a naive model                  *)
(* ------------------------------------------------------------------ *)

type lru_op =
  | Find of string
  | Add of string * string list
  | Invalidate of string
  | Invalidate_tag of string
  | Clear
  | Advance of int  (* virtual ms *)
  | Bump_epoch  (* entries added under an older epoch turn invalid *)

let show_lru_op = function
  | Find k -> "find " ^ k
  | Add (k, tags) -> Printf.sprintf "add %s [%s]" k (String.concat "," tags)
  | Invalidate k -> "invalidate " ^ k
  | Invalidate_tag n -> "invalidate_tag " ^ n
  | Clear -> "clear"
  | Advance ms -> Printf.sprintf "advance %d" ms
  | Bump_epoch -> "bump_epoch"

(* The model: an assoc list, most recent first, of
   key -> ((epoch, serial), tags, born_ms), and plain counters. *)
type lru_model = {
  mutable entries : (string * ((int * int) * string list * float)) list;
  mutable m_counts : Lru.counts;
}

let prop_lru_matches_model =
  let keys = [ "a"; "b"; "c"; "d"; "e" ] in
  let tags = [ "s"; "s.x"; "t"; "u.s" ] in
  let names = [ "s"; "s.x"; "t"; "u"; "x" ] in
  let gen_op =
    QCheck2.Gen.(
      frequency
        [
          (4, map (fun k -> Find k) (oneofl keys));
          (4, map2 (fun k ts -> Add (k, ts)) (oneofl keys) (list_size (int_range 0 2) (oneofl tags)));
          (1, map (fun k -> Invalidate k) (oneofl keys));
          (1, map (fun n -> Invalidate_tag n) (oneofl names));
          (1, pure Clear);
          (2, map (fun ms -> Advance ms) (int_range 0 15));
          (1, pure Bump_epoch);
        ])
  in
  let print (cap, ttl, ops) =
    Printf.sprintf "capacity=%d ttl=%s ops=[%s]" cap
      (match ttl with Some t -> string_of_int t | None -> "none")
      (String.concat "; " (List.map show_lru_op ops))
  in
  QCheck2.Test.make ~name:"cache core = assoc-list model (counters and recency)" ~count:300
    ~print
    QCheck2.Gen.(
      triple (int_range 0 4) (opt (int_range 1 20)) (list_size (int_range 0 60) gen_op))
    (fun (cap, ttl, ops) ->
      Obs_clock.reset_virtual ();
      let epoch = ref 0 and serial = ref 0 in
      let expired_core = ref [] and expired_model = ref [] in
      let ttl_ms = Option.map float_of_int ttl in
      let lru =
        Lru.create ?ttl_ms
          ~valid:(fun (e, _) -> e >= !epoch)
          ~on_expire:(fun k v -> expired_core := (k, v) :: !expired_core)
          ~capacity:cap ()
      in
      let m =
        {
          entries = [];
          m_counts = { Lru.hits = 0; misses = 0; evictions = 0; expirations = 0; invalidations = 0 };
        }
      in
      let count f = m.m_counts <- f m.m_counts in
      let remove k = m.entries <- List.remove_assoc k m.entries in
      let model_find k =
        match List.assoc_opt k m.entries with
        | Some (v, _, born)
          when (match ttl_ms with Some t -> Obs_clock.virtual_ms () -. born > t | None -> false) ->
          remove k;
          expired_model := (k, v) :: !expired_model;
          count (fun c -> { c with expirations = c.expirations + 1; misses = c.misses + 1 });
          None
        | Some ((e, _), _, _) when e < !epoch ->
          remove k;
          count (fun c -> { c with invalidations = c.invalidations + 1; misses = c.misses + 1 });
          None
        | Some ((v, _, _) as entry) ->
          remove k;
          m.entries <- (k, entry) :: m.entries;
          count (fun c -> { c with hits = c.hits + 1 });
          Some v
        | None ->
          count (fun c -> { c with misses = c.misses + 1 });
          None
      in
      let model_add k v ts =
        if cap > 0 then begin
          if List.mem_assoc k m.entries then remove k
          else if List.length m.entries >= cap then begin
            m.entries <- List.filteri (fun i _ -> i < List.length m.entries - 1) m.entries;
            count (fun c -> { c with evictions = c.evictions + 1 })
          end;
          m.entries <- (k, (v, ts, Obs_clock.virtual_ms ())) :: m.entries
        end
      in
      let model_drop matches =
        let gone = List.filter matches m.entries in
        m.entries <- List.filter (fun e -> not (matches e)) m.entries;
        let n = List.length gone in
        count (fun c -> { c with invalidations = c.invalidations + n });
        n
      in
      let matches name tag = tag = name || String.starts_with ~prefix:(name ^ ".") tag in
      let step op =
        match op with
        | Find k -> Lru.find lru k = model_find k
        | Add (k, ts) ->
          incr serial;
          let v = (!epoch, !serial) in
          Lru.add lru ~tags:ts k v;
          model_add k v ts;
          true
        | Invalidate k ->
          Lru.invalidate lru k = (model_drop (fun (k', _) -> k' = k) = 1)
        | Invalidate_tag n ->
          Lru.invalidate_tag lru n
          = model_drop (fun (_, (_, ts, _)) -> List.exists (matches n) ts)
        | Clear ->
          Lru.clear lru;
          m.entries <- [];
          true
        | Advance ms ->
          Obs_clock.advance (float_of_int ms);
          true
        | Bump_epoch ->
          incr epoch;
          true
      in
      List.for_all
        (fun op ->
          step op
          && Lru.counts lru = m.m_counts
          && List.map (fun (k, _, _) -> k) (Lru.bindings lru) = List.map fst m.entries
          && List.map (fun (_, _, ts) -> ts) (Lru.bindings lru)
             = List.map (fun (_, (_, ts, _)) -> ts) m.entries
          && Lru.size lru = List.length m.entries
          && !expired_core = !expired_model)
        ops)

(* ------------------------------------------------------------------ *)
(* Property: gather + fragment cache is observably identical to        *)
(* sequential execution, strict and partial alike.                     *)
(* ------------------------------------------------------------------ *)

(* Availability is restricted to up/down (1.0 / 0.0): fractional
   availability samples the simulator's PRNG once per remote call, and
   dedup/batching/caching legitimately change how many calls happen. *)
let prop_gather_equals_sequential =
  QCheck2.Test.make ~name:"gather+cache = sequential (strict and partial)" ~count:30
    QCheck2.Gen.(
      quad (int_range 0 25) (int_range 0 40) (int_range 1 6) (pair bool bool))
    (fun (ncust, nord, fanout, (crm_up, ext_up)) ->
      let g = Prng.create ((ncust * 977) + (nord * 31) + fanout) in
      let crm = Rel_db.create ~name:"crm" () in
      ignore (Rel_db.exec crm "CREATE TABLE customers (id INT, tier INT)");
      ignore (Rel_db.exec crm "CREATE TABLE orders (cust_id INT, amount INT)");
      for i = 1 to ncust do
        ignore
          (Rel_db.exec crm
             (Printf.sprintf "INSERT INTO customers VALUES (%d, %d)" i (Prng.int g 4)))
      done;
      for _ = 1 to nord do
        ignore
          (Rel_db.exec crm
             (Printf.sprintf "INSERT INTO orders VALUES (%d, %d)"
                (Prng.int g (max 1 ncust) + 1) (Prng.int g 1000)))
      done;
      let ext = Rel_db.create ~name:"ext" () in
      ignore (Rel_db.exec ext "CREATE TABLE people (id INT, name TEXT)");
      for i = 1 to ncust do
        ignore (Rel_db.exec ext (Printf.sprintf "INSERT INTO people VALUES (%d, 'p%d')" i i))
      done;
      let wrap db up =
        fst
          (Net_sim.wrap ~seed:7
             { Net_sim.default_profile with Net_sim.availability = (if up then 1.0 else 0.0) }
             (Rel_source.make db))
      in
      let cat = Med_catalog.create ~frag_capacity:(if ncust mod 2 = 0 then 8 else 0) () in
      Med_catalog.register_source cat (wrap crm crm_up);
      Med_catalog.register_source cat (wrap ext ext_up);
      let query =
        q
          {|WHERE <row><id>$i</id><tier>$t</tier></row> IN "crm.customers",
                 <row><cust_id>$i</cust_id><amount>$a</amount></row> IN "crm.orders",
                 <row><id>$i</id><name>$n</name></row> IN "ext.people",
                 $t >= 1, $a < 800
            CONSTRUCT <hit><i>$i</i><n>$n</n><a>$a</a></hit>|}
      in
      let agree opts =
        let compiled = Med_exec.compile ~opts cat query in
        let strict () =
          match Med_exec.run_compiled cat compiled with
          | r -> Ok (List.map Dtree.to_string r.Med_exec.trees)
          | exception Source.Unavailable s -> Error ("source:" ^ s)
          | exception Alg_exec.Source_unavailable s -> Error ("plan:" ^ s)
        in
        let partial () =
          let r = Med_exec.run_compiled_partial cat compiled in
          ( List.map Dtree.to_string r.Med_exec.trees,
            List.sort compare r.Med_exec.skipped_sources )
        in
        Med_catalog.set_fetch_options cat Fetch_sched.default_options;
        let s_strict = strict () and s_partial = partial () in
        Med_catalog.set_fetch_options cat (Fetch_sched.gather_options ~fanout ());
        (* twice: cold then warm fragment cache *)
        let g1_strict = strict () and g1_partial = partial () in
        let g2_strict = strict () and g2_partial = partial () in
        s_strict = g1_strict && s_strict = g2_strict && s_partial = g1_partial
        && s_partial = g2_partial
      in
      agree Med_sqlgen.default_options && agree Med_sqlgen.no_join_pushdown)

let () =
  let props = List.map QCheck_alcotest.to_alcotest [ prop_gather_equals_sequential ] in
  let core_props = List.map QCheck_alcotest.to_alcotest [ prop_lru_matches_model ] in
  Alcotest.run "fetch"
    [
      ( "clock",
        [
          Alcotest.test_case "round advances by max lane" `Quick test_round_advances_by_max;
          Alcotest.test_case "nested rounds merge serially" `Quick
            test_nested_rounds_merge_serially;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "rounds and dedup" `Quick test_scheduler_rounds_and_dedup;
          Alcotest.test_case "exception capture" `Quick test_scheduler_captures_exceptions;
        ] );
      ( "frag-cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_frag_cache_lru;
          Alcotest.test_case "ttl expiry" `Quick test_frag_cache_ttl;
          Alcotest.test_case "eviction under repeated touch" `Quick test_frag_cache_touch_order;
          Alcotest.test_case "ttl boundary is strict" `Quick test_frag_cache_ttl_boundary;
          Alcotest.test_case "invalidate with full cache" `Quick test_frag_cache_invalidate_full;
          Alcotest.test_case "invalidate source" `Quick test_frag_cache_invalidate_source;
          Alcotest.test_case "capacity 0 disables" `Quick test_frag_cache_disabled;
        ] );
      ( "mat-cache",
        [ Alcotest.test_case "result-cache ttl" `Quick test_mat_cache_ttl ] );
      ("cache-core", core_props);
      ("equivalence", props);
    ]
