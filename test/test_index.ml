(* Tests for the path & value index subsystem: the structural guide,
   value indexes, the manager's probe/epoch/invalidation contract, and
   the indexed ≡ unindexed equivalence property across engines. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let string_t = Alcotest.string

let tree_of s = Dtree.of_xml_element (Xml_parser.parse_element_exn s)
let path s = Xml_path.parse_exn s

let walker tree p =
  List.map Dtree.of_xml_element (Xml_path.select p (Dtree.to_xml_element tree))

let render trees = String.concat "\n" (List.map Dtree.to_string trees)

(* Every test owns the global registry. *)
let fresh () =
  Idx_manager.clear ();
  Idx_manager.set_mode Idx_manager.Auto;
  Idx_manager.reset_stats ()

(* ------------------------------------------------------------------ *)
(* Idx_guide                                                           *)
(* ------------------------------------------------------------------ *)

let sample_forest () =
  [
    tree_of "<r><a><b>1</b><a><b>2</b></a></a><b>3</b></r>";
    tree_of "<r><a><b>4</b></a></r>";
  ]

let test_guide_counts () =
  let g = Idx_guide.build (sample_forest ()) in
  (* 2 roots + 3 a + 4 b = 9 element nodes; paths r, r/a, r/a/b, r/a/a,
     r/a/a/b, r/b. *)
  check int_t "nodes" 9 (Idx_guide.node_count g);
  check int_t "paths" 6 (Idx_guide.path_count g);
  check bool_t "bytes accounted" true (Idx_guide.bytes g > 0)

let test_guide_probe_matches_walker () =
  let forest = sample_forest () in
  let g = Idx_guide.build forest in
  List.iteri
    (fun root tree ->
      List.iter
        (fun p ->
          let p = path p in
          match Idx_guide.probe g ~root p with
          | None -> Alcotest.fail "probe should support this path"
          | Some ids ->
            let got = render (List.map (Idx_guide.node g) ids) in
            let want = render (walker tree p) in
            check string_t "probe = walker, document order" want got)
        [ "//b"; "/a/b"; "//a//b"; "//a"; "/*"; "//*" ])
    forest

let test_guide_set_semantics () =
  (* <b>2</b> is reachable from two <a> alignments of //a//b; the guide
     stores it under one label path, so it can only come back once. *)
  let g = Idx_guide.build (sample_forest ()) in
  match Idx_guide.probe g ~root:0 (path "//a//b") with
  | None -> Alcotest.fail "supported"
  | Some ids -> check int_t "each b once" 2 (List.length ids)

let test_guide_unsupported () =
  let g = Idx_guide.build (sample_forest ()) in
  check bool_t "parent axis unsupported" false (Idx_guide.supported (path "//b/.."));
  check bool_t "position unsupported" false
    (Idx_guide.supported (path "/a/b[position()=1]"));
  check bool_t "probe refuses" true (Idx_guide.probe g ~root:0 (path "//b/..") = None)

let test_guide_count_and_keys () =
  let g = Idx_guide.build (sample_forest ()) in
  check (Alcotest.option int_t) "b nodes across roots" (Some 4)
    (Idx_guide.count g (path "//b"));
  match Idx_guide.matching_keys g (path "//a/b") with
  | None -> Alcotest.fail "supported"
  | Some keys -> check int_t "two distinct b paths under a" 2 (List.length keys)

(* ------------------------------------------------------------------ *)
(* Idx_value                                                           *)
(* ------------------------------------------------------------------ *)

let test_value_eq_numeric_and_string () =
  let idx = Idx_value.build [ ("10", 1); ("10.0", 2); ("x", 3); ("10", 4) ] in
  (* 10 and 10.0 are numerically equal — exactly like compare_values. *)
  check (Alcotest.option (Alcotest.list int_t)) "numeric eq" (Some [ 1; 2; 4 ])
    (Idx_value.probe idx Xml_path.Eq "10.00");
  check (Alcotest.option (Alcotest.list int_t)) "string eq" (Some [ 3 ])
    (Idx_value.probe idx Xml_path.Eq "x")

let test_value_range () =
  let idx = Idx_value.build [ ("5", 1); ("50", 2); ("500", 3); ("abc", 4) ] in
  check (Alcotest.option (Alcotest.list int_t)) "lt numeric" (Some [ 1; 2 ])
    (Idx_value.probe idx Xml_path.Lt "100");
  (* "abc" compares as a string against a non-numeric rhs. *)
  check (Alcotest.option (Alcotest.list int_t)) "string order" (Some [ 4 ])
    (Idx_value.probe idx Xml_path.Gt "aaa");
  check bool_t "neq unsupported" true (Idx_value.probe idx Xml_path.Neq "5" = None)

let num_bound v strict = Some { Xml_path.value = v; strict }

let test_value_numeric_interval () =
  let idx =
    Idx_value.build_numeric
      [
        (Some (Xml_num.Int 5), 1); (Some (Xml_num.Float 19.0), 2); (Some (Xml_num.Int 25), 3);
        (None, 4); (Some (Xml_num.Int 29), 5); (Some (Xml_num.Int 21), 3);
        (Some (Xml_num.Float Float.nan), 6); (None, 2);
      ]
  in
  let ids lo hi = Array.to_list (Idx_value.range_ids idx ~within:(0, 100) lo hi) in
  let ints = Alcotest.(list int) in
  check ints "[19,29): slice plus the side list, each id once" [ 2; 3; 4 ]
    (ids (num_bound (Xml_num.Int 19) false) (num_bound (Xml_num.Int 29) true));
  check ints "(19,29]" [ 2; 3; 4; 5 ]
    (ids (num_bound (Xml_num.Int 19) true) (num_bound (Xml_num.Int 29) false));
  check ints "unbounded below takes nan" [ 1; 2; 4; 6 ]
    (ids None (num_bound (Xml_num.Float 19.0) false));
  check ints "window" [ 3; 4 ]
    (Array.to_list (Idx_value.range_ids idx ~within:(3, 5) (num_bound (Xml_num.Int 19) false) None));
  check int_t "count by binary search" 5
    (Idx_value.range_count idx (num_bound (Xml_num.Int 19) false) (num_bound (Xml_num.Int 29) true));
  check bool_t "comparison probe declines" true (Idx_value.probe idx Xml_path.Eq "5" = None);
  (* Beyond 2^53 the float keys of 2^53 and 2^53+1 collide: an int bound
     there slices inclusively, a superset the caller re-checks. *)
  let big =
    Idx_value.build_numeric
      [ (Some (Xml_num.Int 9007199254740992), 1); (Some (Xml_num.Int 9007199254740993), 2) ]
  in
  check ints "inclusive beyond 2^53" [ 1; 2 ]
    (Array.to_list
       (Idx_value.range_ids big ~within:(0, 10) (num_bound (Xml_num.Int 9007199254740992) true) None))

(* ------------------------------------------------------------------ *)
(* Idx_manager: probe equivalence, modes, epoch                        *)
(* ------------------------------------------------------------------ *)

let doc () =
  tree_of
    {|<catalog><product sku="widget"><price>25</price></product><product sku="gadget"><price>70</price></product></catalog>|}

let test_manager_try_select_equals_walker () =
  fresh ();
  let t = doc () in
  Idx_manager.register "src:shop/catalog" [ t ];
  List.iter
    (fun p ->
      let p = path p in
      match Idx_manager.try_select t p with
      | None -> Alcotest.fail "registered root should answer"
      | Some (got, _) ->
        check string_t "byte-identical with walker" (render (walker t p)) (render got))
    [
      "//product"; "//product[@sku='widget']"; "//product[price<50]"; "//price";
      "//product[price in [25,70)]"; "//product[price in (25,)][@sku='gadget']";
      "//product[@sku][price in [0,100]][price in (30,)]";
    ];
  let g, v, _ = Idx_manager.counters () in
  check bool_t "guide hits ticked" true (g > 0);
  check bool_t "value hits ticked" true (v > 0)

let test_manager_off_and_unregistered () =
  fresh ();
  let t = doc () in
  Idx_manager.register "src:shop/catalog" [ t ];
  Idx_manager.set_mode Idx_manager.Off;
  check bool_t "off never probes" true (Idx_manager.try_select t (path "//product") = None);
  Idx_manager.set_mode Idx_manager.Auto;
  check bool_t "foreign tree unanswered" true
    (Idx_manager.try_select (doc ()) (path "//product") = None)

let test_manager_epoch_planning_visible_only () =
  fresh ();
  let e0 = Idx_manager.epoch () in
  (* Registering (and dropping) a never-built entry is planning-invisible. *)
  Idx_manager.register "src:shop/catalog" [ doc () ];
  check int_t "register alone: no bump" e0 (Idx_manager.epoch ());
  Idx_manager.unregister "src:shop/catalog";
  check int_t "unbuilt drop: no bump" e0 (Idx_manager.epoch ());
  (* A build moves the epoch; dropping the built entry moves it again. *)
  Idx_manager.register "src:shop/catalog" [ doc () ];
  ignore (Idx_manager.build "src:shop/catalog");
  let e1 = Idx_manager.epoch () in
  check bool_t "build bumps" true (e1 > e0);
  Idx_manager.drop_prefix "src:shop/";
  check bool_t "built drop bumps" true (Idx_manager.epoch () > e1);
  let em = Idx_manager.epoch () in
  Idx_manager.set_mode Idx_manager.Eager;
  check bool_t "mode change bumps" true (Idx_manager.epoch () > em)

let test_manager_estimate_never_builds () =
  fresh ();
  let t = doc () in
  Idx_manager.register "src:shop/catalog" [ t ];
  check bool_t "no guide yet: unknown" true
    (Idx_manager.estimate "src:shop/catalog" (path "//product") = None);
  ignore (Idx_manager.build "src:shop/catalog");
  check (Alcotest.option (Alcotest.float 0.0)) "exact after build" (Some 2.0)
    (Idx_manager.estimate "src:shop/catalog" (path "//product"));
  (* An interval is counted from its numeric index once a probe built
     it; before that the guide count stands. *)
  let band = path "//product[@sku][price in [20,50)]" in
  check (Alcotest.option (Alcotest.float 0.0)) "numeric index unbuilt: guide count" (Some 2.0)
    (Idx_manager.estimate "src:shop/catalog" band);
  let e = Idx_manager.epoch () in
  check bool_t "estimate built nothing" true (Idx_manager.epoch () = e);
  ignore (Idx_manager.try_select t band);
  check (Alcotest.option (Alcotest.float 0.0)) "interval counted" (Some 1.0)
    (Idx_manager.estimate "src:shop/catalog" band)

let test_manager_is_registered () =
  fresh ();
  Idx_manager.register "src:shop/catalog" [ doc () ];
  check bool_t "present" true (Idx_manager.is_registered "src:shop/catalog");
  Idx_manager.drop_prefix "src:shop/";
  check bool_t "dropped" false (Idx_manager.is_registered "src:shop/catalog")

(* ------------------------------------------------------------------ *)
(* QCheck: indexed ≡ unindexed across engines, modes and invalidation  *)
(* ------------------------------------------------------------------ *)

let catalog_xml g nprod =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "<catalog>";
  for _ = 1 to nprod do
    Buffer.add_string buf
      (Printf.sprintf
         {|<product sku="sku%d"><price>%d</price><cat>%s</cat></product>|}
         (1 + Prng.int g (max 1 (nprod / 2)))
         (10 + Prng.int g 90)
         (if Prng.int g 2 = 0 then "tools" else "infra"))
  done;
  Buffer.add_string buf "</catalog>";
  Buffer.contents buf

let queries =
  [|
    {|WHERE <product sku=$s><price>$p</price></product> IN "products.catalog", $p < 50
      CONSTRUCT <r><s>$s</s><p>$p</p></r>|};
    {|WHERE <r><s>$s</s><p>$p</p></r> IN "cheap"
      CONSTRUCT <x>$s</x>|};
  |]

let engine_of = function
  | 0 -> Alg_batch.Tuple
  | 1 -> Alg_batch.Batch { chunk = 4 }
  | _ -> Alg_batch.Parallel { domains = 2; chunk = 3 }

let gen_case =
  let open QCheck2.Gen in
  let* seed = int_bound 9_999 in
  let* nprod = int_range 1 25 in
  let* engine = int_bound 2 in
  let* strict = bool in
  let* eager = bool in
  pure (seed, nprod, engine, strict, eager)

let prop_indexed_equals_unindexed =
  QCheck2.Test.make
    ~name:"indexed = unindexed (engines x modes x refresh x invalidation)"
    ~print:(fun (seed, nprod, engine, strict, eager) ->
      Printf.sprintf "seed=%d nprod=%d engine=%d strict=%b eager=%b" seed nprod
        engine strict eager)
    ~count:30 gen_case
    (fun (seed, nprod, engine, strict, eager) ->
      let xml = catalog_xml (Prng.create seed) nprod in
      (* One full session under [mode]: query the source and a
         materialized view, refresh the view, invalidate the source,
         query again — the transcript must not depend on indexing. *)
      let transcript mode =
        Idx_manager.clear ();
        Idx_manager.reset_stats ();
        Idx_manager.set_mode mode;
        let cat = Med_catalog.create () in
        Med_catalog.register_source cat
          (Xml_source.of_xml_strings ~name:"products" [ ("catalog", xml) ]);
        Med_catalog.define_view_text cat "cheap"
          {|WHERE <product sku=$s><price>$p</price></product> IN "products.catalog", $p < 40
            CONSTRUCT <r><s>$s</s><p>$p</p></r>|};
        Med_catalog.set_exec_mode cat (engine_of engine);
        let store = Mat_store.create cat in
        ignore (Mat_store.materialize store "cheap");
        let view_lookup = Mat_store.lookup store in
        let one q =
          let q = Xq_parser.parse_exn q in
          if strict then render (Med_exec.run ~view_lookup cat q)
          else begin
            let trees, skipped = Med_exec.run_partial ~view_lookup cat q in
            render trees ^ "|" ^ String.concat "," skipped
          end
        in
        let runs = Array.to_list (Array.map one queries) in
        Mat_store.refresh store "cheap";
        let runs = runs @ Array.to_list (Array.map one queries) in
        Med_catalog.notify_invalidation cat "products";
        let runs = runs @ Array.to_list (Array.map one queries) in
        String.concat "\n--\n" runs
      in
      let off = transcript Idx_manager.Off in
      let on = transcript (if eager then Idx_manager.Eager else Idx_manager.Auto) in
      fresh ();
      String.equal off on)

(* ------------------------------------------------------------------ *)
(* QCheck: derived numeric path predicates never drop an answer        *)
(* ------------------------------------------------------------------ *)

(* Child contents that stress the numeric reading: ints, floats, ints
   beyond 2^53, the odd spellings [int_of_string]/[float_of_string]
   accept, nan/inf, dates, booleans, strings, empty and padded text,
   nested and mixed content. *)
let contents =
  [|
    "19"; "25"; "29"; "-3"; "0"; "20.0"; "19.5"; "28.999999999"; "1e3"; "-0"; "-0.0"; "0x10";
    "1_000"; "9007199254740992"; "9007199254740993"; "-9007199254740993"; "nan"; "inf";
    "-inf"; "2024-01-05"; "true"; "abc"; "!x"; ""; "  "; " 20"; "20 "; "<x>25</x>";
    "1<x/>9"; "1<!--c-->9"; "<![CDATA[22]]>";
  |]

(* Attribute values: no markup. *)
let attr_values =
  [|
    "19"; "25"; "20.5"; "-1"; "9007199254740992.0"; "9007199254740993"; "nan"; "abc"; "";
    " 21"; "2024-01-05";
  |]

let literals =
  [|
    "19"; "20"; "25"; "29"; "0"; "-3"; "20.0"; "25.5"; "19.999999999"; "1000"; "16";
    "9007199254740992"; "9007199254740993"; "-9007199254740993"; "9007199254740992.0";
  |]

type dproduct = {
  attr : int option;      (* index into [attr_values] *)
  prices : int list;      (* indexes into [contents], one <price> each *)
}

(* How the pattern uses the [n] attribute: not at all, as its own
   variable, or as a second binding of $p — then the condition reads
   the attribute's value while the range sits on <price> too, which is
   the case the 2^53 widening exists for. *)
type attr_use = No_attr | Attr_n | Attr_p

type dcase = {
  products : dproduct list;
  attr_use : attr_use;
  conds : (bool * int * int * bool) list;
      (* on $n?, operator, literal, literal on the left? *)
}

let ops = [| "="; "<"; "<="; ">"; ">=" |]

let dcase_xml c =
  let b = Buffer.create 256 in
  Buffer.add_string b "<catalog>";
  List.iteri
    (fun i p ->
      Buffer.add_string b
        (match p.attr with
        | Some a -> Printf.sprintf {|<product sku="s%d" n="%s">|} i attr_values.(a)
        | None -> Printf.sprintf {|<product sku="s%d">|} i);
      List.iter (fun k -> Buffer.add_string b ("<price>" ^ contents.(k) ^ "</price>")) p.prices;
      Buffer.add_string b "</product>")
    c.products;
  Buffer.add_string b "</catalog>";
  Buffer.contents b

let dcase_query c =
  let cond (on_n, op, lit, flipped) =
    let v = if on_n && c.attr_use = Attr_n then "$n" else "$p" in
    let lit = literals.(lit) in
    if flipped then
      let op =
        match ops.(op) with "<" -> ">" | "<=" -> ">=" | ">" -> "<" | ">=" -> "<=" | o -> o
      in
      Printf.sprintf "%s %s %s" lit op v
    else Printf.sprintf "%s %s %s" v ops.(op) lit
  in
  Printf.sprintf
    {|WHERE <product sku=$s%s><price>$p</price></product> IN "shop.catalog"%s
      CONSTRUCT <r><s>$s</s><p>$p</p>%s</r>|}
    (match c.attr_use with No_attr -> "" | Attr_n -> " n=$n" | Attr_p -> " n=$p")
    (String.concat "" (List.map (fun x -> ", " ^ cond x) c.conds))
    (if c.attr_use = Attr_n then "<n>$n</n>" else "")

let gen_dcase =
  let open QCheck2.Gen in
  (* A third of the draws come from the entries around 2^53, where int
     and float comparison part ways. *)
  let idx arr =
    let near =
      List.filter
        (fun i -> String.length arr.(i) >= 16)
        (List.init (Array.length arr) Fun.id)
    in
    frequency [ (2, int_bound (Array.length arr - 1)); (1, oneofl near) ]
  in
  let product =
    let* attr = opt (idx attr_values) in
    let* prices = list_size (int_bound 3) (idx contents) in
    pure { attr; prices }
  in
  let* products = list_size (int_bound 6) product in
  let* attr_use = oneofl [ No_attr; Attr_n; Attr_p ] in
  let* conds =
    list_size (int_range 1 3)
      (quad bool (int_bound (Array.length ops - 1)) (idx literals) bool)
  in
  pure { products; attr_use; conds }

let print_dcase c = Printf.sprintf "query:\n%s\ndata:\n%s" (dcase_query c) (dcase_xml c)

(* Every configuration — pushdown on/off x index off/auto/eager x
   tuple/batch/parallel x strict/partial — returns the reference's
   answers for [query] over one catalog document. *)
let all_configs_agree xml query =
  let norm trees = List.sort compare (List.map Dtree.to_string trees) in
  let catalog () =
    let cat = Med_catalog.create () in
    Med_catalog.register_source cat (Xml_source.of_xml_strings ~name:"shop" [ ("catalog", xml) ]);
    cat
  in
  Idx_manager.clear ();
  Idx_manager.set_mode Idx_manager.Off;
  let reference = norm (Xq_eval.eval (Med_exec.direct_resolver (catalog ())) query) in
  let agree =
    List.for_all
      (fun (opts, mode, engine, strict) ->
        Idx_manager.clear ();
        Idx_manager.set_mode mode;
        let cat = catalog () in
        Med_catalog.set_exec_mode cat (engine_of engine);
        let got =
          if strict then Med_exec.run ~opts cat query
          else fst (Med_exec.run_partial ~opts cat query)
        in
        norm got = reference)
      (List.concat_map
         (fun opts ->
           List.concat_map
             (fun mode ->
               List.concat_map
                 (fun engine -> [ (opts, mode, engine, true); (opts, mode, engine, false) ])
                 [ 0; 1; 2 ])
             [ Idx_manager.Off; Idx_manager.Auto; Idx_manager.Eager ])
         [ Med_sqlgen.default_options; Med_sqlgen.no_pushdown ])
  in
  fresh ();
  agree

let prop_derived_paths_sound =
  QCheck2.Test.make ~name:"derived numeric path predicates equal the reference"
    ~print:print_dcase ~count:200 gen_dcase (fun c ->
      all_configs_agree (dcase_xml c) (Xq_parser.parse_exn (dcase_query c)))

(* The condition reads the attribute binding of $p (2^53 as a float);
   the <price> binding is 2^53+1, which [Value.compare] calls equal.  An
   exact int bound on <price> would drop the product. *)
let test_range_beyond_2_53 () =
  let xml =
    {|<catalog><product sku="a" n="9007199254740992.0"><price>9007199254740993</price></product></catalog>|}
  in
  List.iter
    (fun cond ->
      let text =
        Printf.sprintf
          {|WHERE <product sku=$s n=$p><price>$p</price></product> IN "shop.catalog", %s
            CONSTRUCT <r>$s</r>|}
          cond
      in
      check bool_t cond true (all_configs_agree xml (Xq_parser.parse_exn text)))
    [ "$p <= 9007199254740992"; "$p = 9007199254740992"; "9007199254740993 > $p" ]

(* ------------------------------------------------------------------ *)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_indexed_equals_unindexed; prop_derived_paths_sound ]
  in
  Alcotest.run "index"
    [
      ( "guide",
        [
          Alcotest.test_case "counts" `Quick test_guide_counts;
          Alcotest.test_case "probe matches walker" `Quick test_guide_probe_matches_walker;
          Alcotest.test_case "set semantics" `Quick test_guide_set_semantics;
          Alcotest.test_case "unsupported paths refused" `Quick test_guide_unsupported;
          Alcotest.test_case "count and keys" `Quick test_guide_count_and_keys;
        ] );
      ( "value",
        [
          Alcotest.test_case "equality buckets" `Quick test_value_eq_numeric_and_string;
          Alcotest.test_case "ranges" `Quick test_value_range;
          Alcotest.test_case "numeric intervals" `Quick test_value_numeric_interval;
        ] );
      ( "manager",
        [
          Alcotest.test_case "try_select = walker" `Quick
            test_manager_try_select_equals_walker;
          Alcotest.test_case "off mode and foreign trees" `Quick
            test_manager_off_and_unregistered;
          Alcotest.test_case "epoch: planning-visible changes only" `Quick
            test_manager_epoch_planning_visible_only;
          Alcotest.test_case "estimate never builds" `Quick
            test_manager_estimate_never_builds;
          Alcotest.test_case "is_registered" `Quick test_manager_is_registered;
          Alcotest.test_case "ranges beyond 2^53" `Quick test_range_beyond_2_53;
        ] );
      ("equivalence", qsuite);
    ]
