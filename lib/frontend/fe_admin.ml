let kind_to_string = function
  | Source.Relational -> "relational"
  | Source.Xml_store -> "xml"
  | Source.Flat_file -> "flat-file"

let capability_summary (c : Source.capability) =
  let flag label b = if b then [ label ] else [] in
  match
    flag "select" c.Source.can_select @ flag "project" c.Source.can_project
    @ flag "join" c.Source.can_join @ flag "agg" c.Source.can_aggregate
    @ flag "path" c.Source.can_path
  with
  | [] -> "scan-only"
  | caps -> String.concat "+" caps

let source_report catalog =
  let reg = Med_catalog.registry catalog in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "sources:\n";
  List.iter
    (fun name ->
      match Src_registry.find reg name with
      | None -> ()
      | Some src ->
        Buffer.add_string buf
          (Printf.sprintf "  %-16s %-10s %-28s exports: %s\n" name
             (kind_to_string src.Source.kind)
             (capability_summary src.Source.capability)
             (String.concat ", " (src.Source.document_names ()))))
    (Src_registry.names reg);
  Buffer.contents buf

let view_report catalog =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "mediated schemas:\n";
  List.iter
    (fun name ->
      match Med_catalog.find_view catalog name with
      | None -> ()
      | Some v ->
        Buffer.add_string buf
          (Printf.sprintf "  %-20s depth=%d over [%s] vars [%s]%s\n" name
             (Med_catalog.view_depth catalog name)
             (String.concat ", " (Med_catalog.dependencies catalog name))
             (String.concat ", "
                (List.concat_map Xq_ast.query_vars v.Med_catalog.definitions
                |> List.sort_uniq String.compare))
             (if v.Med_catalog.description = "" then ""
              else " -- " ^ v.Med_catalog.description)))
    (Med_catalog.view_names catalog);
  Buffer.contents buf

let policy_to_string = function
  | Mat_store.Manual -> "manual"
  | Mat_store.On_access -> "on-access"
  | Mat_store.Every_n_queries n -> Printf.sprintf "every-%d-queries" n

let materialization_report store =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "materialized views (clock=%d, storage=%d nodes):\n" (Mat_store.now store)
       (Mat_store.storage_used store));
  List.iter
    (fun name ->
      match Mat_store.peek store name with
      | None -> ()
      | Some e ->
        Buffer.add_string buf
          (Printf.sprintf "  %-20s policy=%-16s version=%d size=%d hits=%d\n" name
             (policy_to_string e.Mat_store.policy)
             e.Mat_store.version (Mat_store.entry_size e) e.Mat_store.hits))
    (Mat_store.materialized_names store);
  Buffer.contents buf

let cache_report cache =
  Printf.sprintf "result cache: %s (hit rate %.1f%%)\n" (Mat_cache.summary cache)
    (100.0 *. Mat_cache.hit_rate cache)

let system_report catalog ?store ?cache () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "=== Nimble system status ===\n";
  Buffer.add_string buf (source_report catalog);
  Buffer.add_string buf (view_report catalog);
  (match store with
  | Some s -> Buffer.add_string buf (materialization_report s)
  | None -> ());
  (match cache with
  | Some c -> Buffer.add_string buf (cache_report c)
  | None -> ());
  Buffer.contents buf
