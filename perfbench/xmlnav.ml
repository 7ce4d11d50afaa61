(* xml_nav: one deep XML catalog behind the network simulator, a
   mediated view over it and a second view over that one.  Operations go
   through the facade's Nimble.query (result cache and view hook on the
   path) and are rendered; a quarter repeat an earlier query exactly. *)

open Common

let catalog_xml ~scale ~seed =
  let g = Prng.create (seed * 6271 + 3) in
  let n = max 100 (int_of_float (4_000.0 *. scale)) in
  let buf = Buffer.create (n * 110) in
  Buffer.add_string buf "<catalog>";
  for i = 1 to n do
    Buffer.add_string buf "<sect><sect><sect><sect><sect>";
    Buffer.add_string buf
      (Printf.sprintf {|<product sku="sku%d"><price>%d</price><cat>%s</cat></product>|} i
         (10 + Prng.int g 190)
         (if Prng.int g 2 = 0 then "tools" else "infra"));
    Buffer.add_string buf "</sect></sect></sect></sect></sect>"
  done;
  Buffer.add_string buf "</catalog>";
  (n, Buffer.contents buf)

let views =
  [
    ( "tools",
      {|WHERE <product sku=$s><price>$p</price><cat>"tools"</cat></product> IN "shop.catalog"
        CONSTRUCT <tool><sku>$s</sku><price>$p</price></tool>|} );
    ( "cheap_tools",
      {|WHERE <tool><sku>$s</sku><price>$p</price></tool> IN "tools", $p < 100
        CONSTRUCT <ct><sku>$s</sku><price>$p</price></ct>|} );
  ]

(* A cycle of eight: three guide-answered price-band navigations, one
   value-index sku lookup, two view-over-view queries and two exact
   repeats of one of the last forty operations.  Fast operations (lookups
   and result-cache repeats) are three eighths of the mix, so the median
   falls among the navigations and view queries. *)
let rec query ~n ~seed i =
  let g = Prng.create ((seed * 1_000_003) + i) in
  match i mod 8 with
  | 0 | 3 | 6 ->
    let lo = 10 + Prng.int g 180 in
    Printf.sprintf
      {|WHERE <product sku=$s><price>$p</price></product> IN "shop.catalog", $p >= %d, $p < %d
        CONSTRUCT <r><s>$s</s><p>$p</p></r>|}
      lo
      (lo + 5 + Prng.int g 20)
  | 1 ->
    Printf.sprintf
      {|WHERE <product sku="sku%d"><price>$p</price><cat>$c</cat></product> IN "shop.catalog"
        CONSTRUCT <hit><p>$p</p><c>$c</c></hit>|}
      (1 + Prng.int g n)
  | 2 | 5 ->
    let lo = 10 + Prng.int g 85 in
    Printf.sprintf
      {|WHERE <ct><sku>$s</sku><price>$p</price></ct> IN "cheap_tools", $p >= %d, $p < %d
        CONSTRUCT <v><s>$s</s><p>$p</p></v>|}
      lo
      (lo + 2 + Prng.int g 10)
  | _ ->
    let back = 1 + Prng.int g (min i 40) in
    query ~n ~seed (i - back)

let shop_profile = { Net_sim.latency_ms = 3.0; per_tuple_ms = 0.002; availability = 1.0 }

let run sys text =
  match Ledger.with_span Ledger.facade (fun () -> Nimble.query sys text) with
  | Ok trees ->
    let output = Ledger.with_span Ledger.render (fun () -> render trees) in
    { kind = Read; key = text; output; ok = true }
  | Error m -> failure Read text m
  | exception e -> failure Read text (Printexc.to_string e)

let setup ~scale ~seed =
  let n, xml = catalog_xml ~scale ~seed in
  let sys = Nimble.create () in
  let raw =
    Ledger.decorate ~layer:Ledger.xml Ledger.xml_counts
      (Xml_source.of_xml_strings ~name:"shop" [ ("catalog", xml) ])
  in
  let wrapped, st = Net_sim.wrap ~seed:18 shop_profile raw in
  ok_or_fail "register" (Nimble.register_source sys wrapped);
  List.iter (fun (name, text) -> ok_or_fail "view" (Nimble.define_view sys name text)) views;
  let t0 = Ledger.now_ms () in
  ignore (ok_or_fail "index" (Nimble.build_index sys "src:shop/catalog"));
  let build_ms = Ledger.now_ms () -. t0 in
  for i = 0 to 7 do
    ignore (run sys (query ~n ~seed:(seed + 1) i))
  done;
  ( n,
    {
      step = (fun i -> run sys (query ~n ~seed i));
      nets = [ st ];
      counters = (fun () -> system_counters sys);
      setup_notes = [ ("index.build_ms", build_ms) ];
    } )

let verify ~scale ~seed ~ops =
  let n, inst = setup ~scale ~seed in
  let _, xml = catalog_xml ~scale ~seed in
  let twin = Med_catalog.create () in
  Med_catalog.register_source twin
    (plain_xml_source ~name:"shop"
       [ ("catalog", Dtree.of_xml_element (Xml_parser.parse_element_exn xml)) ]);
  List.iter (fun (name, text) -> Med_catalog.define_view_text twin name text) views;
  List.filter_map
    (fun i ->
      let a = inst.step i in
      let expected = reference twin (Xq_parser.parse_exn (query ~n ~seed i)) in
      if a.ok && same_answer a.output expected then None else Some (i, a.key))
    (List.init ops Fun.id)
