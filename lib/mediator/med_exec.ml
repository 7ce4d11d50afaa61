type result = {
  trees : Dtree.t list;
  bindings : Alg_env.t list;
  skipped_sources : string list;
  stale_sources : string list;
}

exception Exec_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Exec_error m)) fmt

let compile = Med_planner.compile

type view_lookup = string -> Dtree.t list option

let no_lookup : view_lookup = fun _ -> None

(* The reference resolver: exports serve documents, views evaluate
   recursively by direct pattern matching. *)
let rec direct_resolver catalog name =
  match Med_catalog.find_view catalog name with
  | Some view ->
    List.concat_map
      (Xq_eval.eval (fun n -> direct_resolver catalog n))
      view.Med_catalog.definitions
  | None -> Src_registry.documents (Med_catalog.registry catalog) name

(* ------------------------------------------------------------------ *)
(* Access execution                                                    *)
(* ------------------------------------------------------------------ *)

let envs_of_sql_rows (fragment : Med_sqlgen.fragment) rows =
  List.map
    (fun row ->
      let var_bindings =
        List.map
          (fun (var, col) ->
            let v = Option.value ~default:Value.Null (Tuple.get row col) in
            (var, Dtree.atom v))
          fragment.Med_sqlgen.binds
      in
      let row_binding =
        match fragment.Med_sqlgen.row_var with
        | Some var -> [ (var, Dtree.of_tuple "row" row) ]
        | None -> []
      in
      Alg_env.of_bindings (var_bindings @ row_binding))
    rows

let match_documents pattern docs =
  List.concat_map (fun doc -> Xq_eval.match_anywhere pattern doc) docs

let access_target = Med_planner.access_target

let access_push = function
  | Med_planner.A_sql { fragment; _ } | Med_planner.A_sql_bind { fragment; _ } ->
    fragment.Med_sqlgen.sql_text
  | Med_planner.A_sql_join { fragment; _ } -> fragment.Med_sqlgen.jf_sql_text
  | Med_planner.A_path { path; _ } -> Xml_path.to_string path
  | Med_planner.A_match { pattern; _ } | Med_planner.A_view { pattern; _ } ->
    Xq_pretty.pattern_to_string pattern

let capability_fallbacks = Obs_metrics.counter "mediator.capability_fallbacks"
let batch_fallbacks = Obs_metrics.counter "fetch.batch_fallbacks"

(* Distinct non-NULL key values of [var] across the driver's rows, in
   first-seen order (deterministic SQL text).  NULL keys are dropped:
   the equi-join above the bound scan never matches them anyway. *)
let bind_key_values envs var =
  List.rev
    (List.fold_left
       (fun acc env ->
         let v = Alg_env.value_of env var in
         if v = Value.Null || List.exists (Value.equal v) acc then acc
         else v :: acc)
       [] envs)

(* Keys beyond this cap ship the unbound fragment instead — a mile-long
   IN-list costs more to ship and parse than the rows it would save. *)
let max_bind_keys = 1024

let bound_fragment (fragment : Med_sqlgen.fragment) ~bind_col keys =
  let in_list =
    Sql_ast.In_list
      (Sql_ast.Col (None, bind_col), List.map (fun v -> Sql_ast.Lit v) keys)
  in
  let where =
    match fragment.Med_sqlgen.sql.Sql_ast.where with
    | None -> Some in_list
    | Some w -> Some (Sql_ast.Binop (Sql_ast.And, w, in_list))
  in
  let select = { fragment.Med_sqlgen.sql with Sql_ast.where } in
  {
    fragment with
    Med_sqlgen.sql = select;
    sql_text = Sql_print.select_to_string select;
  }

(* ------------------------------------------------------------------ *)
(* Fragment cache plumbing                                             *)
(* ------------------------------------------------------------------ *)

(* The fragment string is the cache identity of what ships to the
   source; it doubles as a human-readable label.  SQL fragments are
   cached under their text verbatim. *)
let frag_key_path export path =
  Printf.sprintf "path:%s:%s" export (Xml_path.to_string path)

let frag_key_scan export = "scan:" ^ export
let frag_key_doc doc = "doc:" ^ doc

(* Partial-mode degradation: once the retry budget for [fragment] is
   spent, a stale extent beats losing the source's whole contribution.
   Strict mode never degrades — the failure propagates. *)
let stale_or_raise catalog ~source ~fragment e =
  let retry = Med_catalog.retry catalog in
  match
    if Src_retry.stale_ok retry then
      Frag_cache.get_stale (Med_catalog.frag_cache catalog) ~source ~fragment
    else None
  with
  | Some r ->
    Src_retry.note_stale retry ~source;
    r
  | None -> raise e

(* One remote call through the fragment cache: a hit skips the wire
   (and the network simulator) entirely; only successful results are
   cached, so rejections and outages keep their live semantics.  [call]
   is the remote call itself, made under the retry engine. *)
let frag_fetch catalog (src : Source.t) ~fragment call =
  let frag = Med_catalog.frag_cache catalog in
  let source = src.Source.name in
  match Frag_cache.get frag ~source ~fragment with
  | Some r -> r
  | None -> (
    match Src_retry.call (Med_catalog.retry catalog) ~source call with
    | r ->
      Frag_cache.put frag ~source ~fragment r;
      r
    | exception (Source.Unavailable _ as e) -> stale_or_raise catalog ~source ~fragment e)

(* Fragment-cache hits so far; a fetch's [cached=] cell is the
   difference across the call.  [Frag_cache.stats] is a snapshot, so it
   is read again after the call. *)
let frag_hits catalog = (Frag_cache.stats (Med_catalog.frag_cache catalog)).Frag_cache.frag_hits

(* [frag_fetch] of one query shipped to the source. *)
let frag_query catalog (src : Source.t) ~fragment q =
  frag_fetch catalog src ~fragment (fun () -> src.Source.execute q)

(* SQL fragments key the exact-key cache by their canonical rendering
   (stable alias numbering, sorted conjuncts) rather than the shipped
   text, so cosmetically different renderings of one fragment — e.g. a
   plan-cache rebind that re-renders the AST — share an entry. *)
let frag_key_sql select = Sql_print.canonical_select select

(* ------------------------------------------------------------------ *)
(* Semantic cache plumbing                                             *)
(* ------------------------------------------------------------------ *)

(* The semantic layer sits above the exact-key cache: it may answer the
   whole fragment from a cached extent (ship nothing), rewrite it to a
   remainder query, or pass it through untouched; whatever still ships
   goes through the normal exact-key + wire path.  Only relational
   sources participate — their fragments have SQL ASTs to reason
   about. *)
let sem_plan catalog (src : Source.t) access =
  if src.Source.kind <> Source.Relational then None
  else
    let mk select sql_text exports =
      let samples =
        Obs_feedback.samples (Med_catalog.feedback catalog)
          (Med_planner.access_key access)
      in
      let reship () =
        frag_query catalog src ~fragment:(frag_key_sql select)
          (Source.Q_sql sql_text)
      in
      Sem_rewrite.plan
        (Med_catalog.sem_cache catalog)
        ~reship
        {
          Sem_rewrite.req_source = src.Source.name;
          req_select = select;
          req_sql_text = sql_text;
          req_exports = exports;
          req_samples = samples;
        }
    in
    match access with
    | Med_planner.A_sql { export; fragment; _ } ->
      Some (mk fragment.Med_sqlgen.sql fragment.Med_sqlgen.sql_text [ export ])
    | Med_planner.A_sql_join { fragment; exports; _ } ->
      Some (mk fragment.Med_sqlgen.jf_sql fragment.Med_sqlgen.jf_sql_text exports)
    | _ -> None

(* Fetch one SQL access's raw result through both cache layers. *)
let fetch_sql catalog (src : Source.t) access =
  let select, sql_text =
    match access with
    | Med_planner.A_sql { fragment; _ } ->
      (fragment.Med_sqlgen.sql, fragment.Med_sqlgen.sql_text)
    | Med_planner.A_sql_join { fragment; _ } ->
      (fragment.Med_sqlgen.jf_sql, fragment.Med_sqlgen.jf_sql_text)
    | _ -> fail "internal: not a SQL access"
  in
  match sem_plan catalog src access with
  | Some (Sem_rewrite.P_local r) -> r
  | Some (Sem_rewrite.P_ship { ship_sql; finish }) ->
    (* Remainder queries key the exact cache by their own text; the
       original fragment keeps its canonical key. *)
    let key = if ship_sql = sql_text then frag_key_sql select else ship_sql in
    finish (frag_query catalog src ~fragment:key (Source.Q_sql ship_sql))
  | None -> frag_query catalog src ~fragment:(frag_key_sql select) (Source.Q_sql sql_text)

let frag_documents catalog (src : Source.t) doc =
  match
    frag_fetch catalog src ~fragment:(frag_key_doc doc) (fun () ->
        Source.R_trees (src.Source.documents doc))
  with
  | Source.R_trees trees -> trees
  | Source.R_rows _ | Source.R_batch _ ->
    fail "unexpected non-document result from %s" src.Source.name

(* The XML view of an export, shipping rows (not trees) for tabular
   sources and rebuilding the document client-side. *)
let export_documents catalog (src : Source.t) export =
  match src.Source.kind with
  | Source.Relational | Source.Flat_file -> (
    match frag_query catalog src ~fragment:(frag_key_scan export) (Source.Q_scan export) with
    | Source.R_rows (_, rows) -> [ Source.table_document export rows ]
    | Source.R_trees trees -> trees
    | Source.R_batch _ -> fail "unexpected batch result from %s" src.Source.name)
  | Source.Xml_store -> frag_documents catalog src export

(* Turn one SQL fragment's raw result into bound environments. *)
let envs_of_sql_access access r =
  match access with
  | Med_planner.A_sql { fragment; pattern; _ } -> (
    match r with
    | Source.R_rows (_, rows) -> envs_of_sql_rows fragment rows
    | Source.R_trees trees -> match_documents pattern trees
    | Source.R_batch _ -> fail "unexpected nested batch result")
  | _ -> fail "internal: non-SQL access in a batch"

(* ------------------------------------------------------------------ *)
(* Scatter-gather prefetch                                             *)
(* ------------------------------------------------------------------ *)

type fetch_info = {
  fi_round : int;
  fi_shared : bool;
  fi_cache_hits : int;
}

type prefetched = {
  pf_result : (Alg_env.t list, exn) Stdlib.result;
  pf_info : fetch_info;
}

type access_stat = {
  stat_id : string;
  stat_access : Med_planner.access;
  stat_est_rows : float;
  stat_calls : int;
  stat_rows : int;
  stat_ms : float;
  stat_fetch : fetch_info option;
  stat_sem : Sem_cache.outcome option;
  stat_idx : int * int * int;
  stat_retry : int * int * int;
}

(* The EXPLAIN ANALYZE sink: the engine fills the operator tree,
   [source_fn_of] the per-access tallies (keyed by access id, seeded by
   [run_analyzed]) and [prepare] the scatter-gather fetch info. *)
type sink = {
  ops : Alg_stats.t;
  accesses : (string, access_stat) Hashtbl.t;
}

(* Tally one scan of access [aid] into the sink: calls, rows and wall
   ms, plus the index-outcome and retry counter deltas around the fetch
   (fetches run on the caller's domain, so the deltas are this access's
   alone). *)
let charge_access sink aid fetch =
  let t0 = Obs_clock.wall_ms () in
  let g0, p0, m0 = Idx_manager.counters () in
  let r0, u0, f0 = Src_retry.counters () in
  let envs = List.of_seq (fetch ()) in
  let g1, p1, m1 = Idx_manager.counters () in
  let r1, u1, f1 = Src_retry.counters () in
  let st = Hashtbl.find sink.accesses aid in
  let p, g, m = st.stat_idx and r, u, f = st.stat_retry in
  Hashtbl.replace sink.accesses aid
    {
      st with
      stat_calls = st.stat_calls + 1;
      stat_rows = st.stat_rows + List.length envs;
      stat_ms = st.stat_ms +. (Obs_clock.wall_ms () -. t0);
      stat_idx = (p + p1 - p0, g + g1 - g0, m + m1 - m0);
      stat_retry = (r + r1 - r0, u + u1 - u0, f + f1 - f0);
    };
  List.to_seq envs

(* Execute one access; may recurse through the compiler for views. *)
let rec run_access catalog ~opts ~view_lookup access : Alg_env.t list =
  match access with
  | Med_planner.A_sql { source_name; export; fragment; pattern } -> (
    let src = Src_registry.find_exn (Med_catalog.registry catalog) source_name in
    try envs_of_sql_access access (fetch_sql catalog src access)
    with Source.Query_rejected _ ->
      (* Capability miss at runtime: ship the whole export and re-apply
         the conditions the fragment would have evaluated (they left the
         residual pool at plan time). *)
      Obs_metrics.inc capability_fallbacks;
      let envs = match_documents pattern (export_documents catalog src export) in
      List.filter
        (fun env ->
          List.for_all
            (fun cond -> Alg_expr.eval_pred env cond)
            fragment.Med_sqlgen.pushed_conditions)
        envs)
  | Med_planner.A_sql_join { source_name; fragment; exports = _ } -> (
    let src = Src_registry.find_exn (Med_catalog.registry catalog) source_name in
    match fetch_sql catalog src access with
    | Source.R_rows (_, rows) ->
      List.map
        (fun row ->
          Alg_env.of_bindings
            (List.map
               (fun (var, col) ->
                 (var, Dtree.atom (Option.value ~default:Value.Null (Tuple.get row col))))
               fragment.Med_sqlgen.jf_binds))
        rows
    | Source.R_trees _ -> fail "join fragment returned trees from %s" source_name
    | Source.R_batch _ -> fail "unexpected batch result from %s" source_name)
  | Med_planner.A_path { source_name; export; path; pattern } -> (
    let src = Src_registry.find_exn (Med_catalog.registry catalog) source_name in
    try
      match
        frag_query catalog src ~fragment:(frag_key_path export path)
          (Source.Q_path (export, path))
      with
      | Source.R_trees candidates ->
        (* Preselection is a superset; full matching verifies and binds. *)
        List.concat_map (Xq_eval.match_pattern pattern) candidates
      | Source.R_rows _ -> match_documents pattern (export_documents catalog src export)
      | Source.R_batch _ -> fail "unexpected batch result from %s" source_name
    with Source.Query_rejected _ ->
      Obs_metrics.inc capability_fallbacks;
      match_documents pattern (export_documents catalog src export))
  | Med_planner.A_match { source_name; export; pattern } ->
    let src = Src_registry.find_exn (Med_catalog.registry catalog) source_name in
    match_documents pattern (export_documents catalog src export)
  | Med_planner.A_sql_bind { source_name; export; fragment; pattern; _ } ->
    (* Reached only without a resolved driver (e.g. a live re-pull after
       the prefetch buffer missed): ship the unbound fragment — always a
       correct superset of the bound fetch. *)
    run_access catalog ~opts ~view_lookup
      (Med_planner.A_sql { source_name; export; fragment; pattern })
  | Med_planner.A_view { view; pattern } -> (
    match view_lookup view with
    | Some trees -> match_documents pattern trees
    | None -> (
      match Med_catalog.find_view catalog view with
      | None -> fail "unknown view %s" view
      | Some v ->
        let trees =
          List.concat_map
            (fun def ->
              let sub = Med_planner.compile ~opts catalog def in
              (exec catalog ~opts ~partial:false ~view_lookup sub).trees)
            v.Med_catalog.definitions
        in
        match_documents pattern trees))

(* Several SQL fragments bound for one relational source, shipped as a
   single batched round trip (one latency charge).  Cache hits resolve
   locally; a source without batch capability falls back to individual
   calls inside the same scheduling lane. *)
and run_sql_batch catalog ~opts ~view_lookup source_name members =
  let frag = Med_catalog.frag_cache catalog in
  let src = Src_registry.find_exn (Med_catalog.registry catalog) source_name in
  let classified =
    List.map
      (fun (key, access) ->
        match access with
        | Med_planner.A_sql { fragment; _ } ->
          let sql = fragment.Med_sqlgen.sql_text in
          let ckey = frag_key_sql fragment.Med_sqlgen.sql in
          ( key,
            access,
            sql,
            ckey,
            Frag_cache.get frag ~source:source_name ~fragment:ckey )
        | _ -> fail "internal: non-SQL access in a batch")
      members
  in
  let missing = List.filter (fun (_, _, _, _, c) -> c = None) classified in
  (* Ask the semantic layer about each member the exact-key cache
     missed: full hits resolve locally; the rest ship in one batch —
     possibly as remainder queries, merged back on arrival. *)
  let planned =
    List.map
      (fun (key, access, sql, ckey, _) ->
        match sem_plan catalog src access with
        | Some (Sem_rewrite.P_local r) -> (key, access, sql, ckey, `Local r)
        | Some (Sem_rewrite.P_ship { ship_sql; finish }) ->
          (key, access, sql, ckey, `Ship (ship_sql, finish))
        | None -> (key, access, sql, ckey, `Ship (sql, Fun.id)))
      missing
  in
  let missing_envs : (string, (Alg_env.t list, exn) Stdlib.result) Hashtbl.t =
    Hashtbl.create (max 1 (List.length missing))
  in
  List.iter
    (fun (key, access, _, _, outcome) ->
      match outcome with
      | `Local r ->
        Hashtbl.replace missing_envs key
          (try Ok (envs_of_sql_access access r) with e -> Error e)
      | `Ship _ -> ())
    planned;
  let to_ship =
    List.filter_map
      (fun (key, access, sql, ckey, outcome) ->
        match outcome with
        | `Ship (ship_sql, finish) -> Some (key, access, sql, ckey, ship_sql, finish)
        | `Local _ -> None)
      planned
  in
  let solo (key, access, _sql, _ckey, _ship, _finish) =
    Hashtbl.replace missing_envs key
      (try Ok (run_access catalog ~opts ~view_lookup access) with e -> Error e)
  in
  (* Raw remainder results cache under their own text; an untouched
     fragment caches under its canonical key as before. *)
  let ship_key (_, _, sql, ckey, ship_sql, _) = if ship_sql = sql then ckey else ship_sql in
  let settle (key, access, _, _, _, finish) r =
    Hashtbl.replace missing_envs key
      (try Ok (envs_of_sql_access access (finish (r ()))) with e -> Error e)
  in
  let land_result m r =
    Frag_cache.put frag ~source:source_name ~fragment:(ship_key m) r;
    settle m (fun () -> r)
  in
  (match to_ship with
  | [] -> ()
  | [ m ] -> solo m
  | _ -> (
    let queries = List.map (fun (_, _, _, _, s, _) -> Source.Q_sql s) to_ship in
    match
      Src_retry.call (Med_catalog.retry catalog) ~source:source_name (fun () ->
          src.Source.execute (Source.Q_batch queries))
    with
    | Source.R_batch results when List.length results = List.length to_ship ->
      List.iter2 land_result to_ship results
    | _ ->
      (* Malformed batch reply: refetch the members one by one. *)
      List.iter solo to_ship
    | exception Source.Query_rejected _ ->
      (* No batch capability at this source. *)
      Obs_metrics.inc batch_fallbacks;
      List.iter solo to_ship
    | exception (Source.Unavailable _ as e) ->
      (* The source is offline: every member shares the outcome, as one
         call would have — each through its own stale extent, as a solo
         fetch would, with no further call to the source. *)
      List.iter
        (fun m ->
          settle m (fun () -> stale_or_raise catalog ~source:source_name ~fragment:(ship_key m) e))
        to_ship
    | exception e ->
      List.iter
        (fun (key, _, _, _, _, _) -> Hashtbl.replace missing_envs key (Error e))
        to_ship));
  List.map
    (fun (key, access, _sql, _ckey, cached) ->
      match cached with
      | Some r -> (key, (try Ok (envs_of_sql_access access r) with e -> Error e), 1)
      | None -> (key, Hashtbl.find missing_envs key, 0))
    classified

(* Collect the plan's source accesses and issue them as overlapped
   rounds; the returned buffer (keyed by access key) then resolves
   scans without touching the wire.  View accesses recurse through the
   compiler and stay lazy. *)
and prefetch catalog ~opts ~view_lookup (compiled : Med_planner.compiled) =
  let fo = Med_catalog.fetch_options catalog in
  match fo.Fetch_sched.mode with
  | Fetch_sched.Sequential -> None
  | Fetch_sched.Gather ->
    let fetchable =
      List.filter_map
        (fun (_aid, access) ->
          match access with
          (* Views stay lazy; bind joins resolve after their driver, in
             [resolve_binds] — prefetching one here would ship the
             unbound fragment and defeat the optimizer's choice. *)
          | Med_planner.A_view _ | Med_planner.A_sql_bind _ -> None
          | a -> Some a)
        compiled.Med_planner.accesses
    in
    let is_rel_sql = function
      | Med_planner.A_sql { source_name; _ } -> (
        match Src_registry.find (Med_catalog.registry catalog) source_name with
        | Some src -> src.Source.kind = Source.Relational
        | None -> false)
      | _ -> false
    in
    (* SQL fragments for one relational source group into a batch;
       within a group, identical fragments collapse (counted as dedup
       hits alongside the scheduler's own key dedup). *)
    let groups : (string, (string * Med_planner.access) list ref) Hashtbl.t =
      Hashtbl.create 4
    in
    let dedup_hits = ref 0 in
    List.iter
      (fun access ->
        if is_rel_sql access then begin
          let source = Med_planner.access_target access in
          let key = Med_planner.access_key access in
          let cell =
            match Hashtbl.find_opt groups source with
            | Some c -> c
            | None ->
              let c = ref [] in
              Hashtbl.add groups source c;
              c
          in
          if List.mem_assoc key !cell then incr dedup_hits
          else cell := (key, access) :: !cell
        end)
      fetchable;
    if !dedup_hits > 0 then
      Obs_metrics.inc ~by:!dedup_hits (Obs_metrics.counter "fetch.dedup_hits");
    let individual_task access =
      let key = Med_planner.access_key access in
      {
        Fetch_sched.task_key = key;
        task_run =
          (fun () ->
            let h0 = frag_hits catalog in
            let r =
              try Ok (run_access catalog ~opts ~view_lookup access) with e -> Error e
            in
            [ (key, r, frag_hits catalog - h0) ]);
      }
    in
    let batch_task source members =
      {
        Fetch_sched.task_key =
          "batch|" ^ source ^ "|" ^ String.concat "\x00" (List.map fst members);
        task_run =
          (fun () ->
            try run_sql_batch catalog ~opts ~view_lookup source members
            with e -> List.map (fun (key, _) -> (key, Error e, 0)) members);
      }
    in
    (* One task per access, in plan order; each relational-SQL group is
       emitted once, at its first member's position. *)
    let emitted : (string, unit) Hashtbl.t = Hashtbl.create 4 in
    let tasks =
      List.filter_map
        (fun access ->
          if is_rel_sql access then begin
            let source = Med_planner.access_target access in
            if Hashtbl.mem emitted source then None
            else begin
              Hashtbl.add emitted source ();
              match List.rev !(Hashtbl.find groups source) with
              | [ (_, a) ] -> Some (individual_task a)
              | members -> Some (batch_task source members)
            end
          end
          else Some (individual_task access))
        fetchable
    in
    let outcomes = Fetch_sched.run ~fanout:fo.Fetch_sched.fanout tasks in
    let buffer : (string, prefetched) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (o : _ Fetch_sched.outcome) ->
        match o.Fetch_sched.result with
        | Ok entries ->
          List.iter
            (fun (key, pf_result, cache_hits) ->
              if not (Hashtbl.mem buffer key) then
                Hashtbl.replace buffer key
                  {
                    pf_result;
                    pf_info =
                      {
                        fi_round = o.Fetch_sched.round;
                        fi_shared = o.Fetch_sched.shared;
                        fi_cache_hits = cache_hits;
                      };
                  })
            entries
        | Error _ ->
          (* Tasks capture their own failures; an escape here means the
             access resolves live at pull time instead. *)
          ())
      outcomes;
    Some buffer

(* ------------------------------------------------------------------ *)
(* Bind-join resolution                                                *)
(* ------------------------------------------------------------------ *)

(* Resolve every bind-join access: fetch (or reuse) its driver, build
   the IN-list, ship the narrowed fragment, and land both results in
   the prefetch buffer so scans pull them without touching the wire.
   Runs under both fetch modes — sequential execution creates a buffer
   here just for the bound accesses and their drivers. *)
and resolve_binds catalog ~opts ~view_lookup (compiled : Med_planner.compiled)
    buffer =
  let binds =
    List.filter
      (fun (_, a) -> match a with Med_planner.A_sql_bind _ -> true | _ -> false)
      compiled.Med_planner.accesses
  in
  if binds = [] then buffer
  else begin
    let buf =
      match buffer with Some b -> b | None -> Hashtbl.create (List.length binds * 2)
    in
    let no_fetch = { fi_round = 0; fi_shared = false; fi_cache_hits = 0 } in
    let driver_result driver_aid =
      match List.assoc_opt driver_aid compiled.Med_planner.accesses with
      | None -> Error (Exec_error ("unknown bind driver " ^ driver_aid))
      | Some driver ->
        let key = Med_planner.access_key driver in
        (match Hashtbl.find_opt buf key with
        | Some p -> p.pf_result
        | None ->
          let r =
            try Ok (run_access catalog ~opts ~view_lookup driver)
            with e -> Error e
          in
          (* Land the driver too: its own scan reuses this fetch. *)
          Hashtbl.replace buf key { pf_result = r; pf_info = no_fetch };
          r)
    in
    List.iter
      (fun (_aid, access) ->
        match access with
        | Med_planner.A_sql_bind
            { source_name; export; fragment; pattern; bind_driver; bind_var;
              bind_col } ->
          let unbound () =
            run_access catalog ~opts ~view_lookup
              (Med_planner.A_sql { source_name; export; fragment; pattern })
          in
          let h0 = frag_hits catalog in
          let result =
            match driver_result bind_driver with
            | Error e ->
              (* Mirror the driver's failure: strict execution raises the
                 same error it would have, partial skips the same
                 source.  Shipping the unbound fragment instead would
                 waste the wire on rows the dead join can never keep. *)
              Error e
            | Ok driver_envs -> (
              match bind_key_values driver_envs bind_var with
              | [] ->
                (* The equi-join above has an empty build side: nothing
                   the bound fetch returns can survive it.  Availability
                   must still mirror the unbound scan, or strict/partial
                   outcomes would depend on the optimizer's plan
                   choice. *)
                let src =
                  Src_registry.find_exn (Med_catalog.registry catalog)
                    source_name
                in
                if
                  Src_retry.call_available (Med_catalog.retry catalog)
                    ~source:source_name src.Source.is_available
                then Ok []
                else Error (Source.Unavailable source_name)
              | keys when List.length keys > max_bind_keys ->
                (try Ok (unbound ()) with e -> Error e)
              | keys -> (
                let bound = bound_fragment fragment ~bind_col keys in
                let src =
                  Src_registry.find_exn (Med_catalog.registry catalog) source_name
                in
                try
                  match
                    frag_query catalog src
                      ~fragment:(frag_key_sql bound.Med_sqlgen.sql)
                      (Source.Q_sql bound.Med_sqlgen.sql_text)
                  with
                  | Source.R_rows (_, rows) -> Ok (envs_of_sql_rows fragment rows)
                  | Source.R_trees trees -> Ok (match_documents pattern trees)
                  | Source.R_batch _ -> Error (Exec_error "unexpected batch result")
                with
                | Source.Query_rejected _ -> (
                  (* The source cannot evaluate the IN-list: fall back to
                     the plain fragment (and its own capability ladder). *)
                  Obs_metrics.inc capability_fallbacks;
                  try Ok (unbound ()) with e -> Error e)
                | e -> Error e))
          in
          Hashtbl.replace buf
            (Med_planner.access_key access)
            {
              pf_result = result;
              pf_info = { no_fetch with fi_cache_hits = frag_hits catalog - h0 };
            }
        | _ -> ())
      binds;
    Some buf
  end

(* ------------------------------------------------------------------ *)
(* Plan execution                                                      *)
(* ------------------------------------------------------------------ *)

and source_fn_of ?sink catalog ~opts ~view_lookup ?buffer (compiled : Med_planner.compiled) :
    Alg_exec.source_fn =
  let find_access aid =
    match List.assoc_opt aid compiled.Med_planner.accesses with
    | None -> fail "internal: unknown access id %s" aid
    | Some access -> access
  in
  let buffer_entry access =
    match buffer with
    | None -> None
    | Some b -> Hashtbl.find_opt b (Med_planner.access_key access)
  in
  let resolve =
    Alg_exec.buffered
      (fun aid -> Option.map (fun p -> p.pf_result) (buffer_entry (find_access aid)))
      (fun aid _binding ->
        List.to_seq (run_access catalog ~opts ~view_lookup (find_access aid)))
  in
  let fetch access_id binding =
    let access = find_access access_id in
    let target = access_target access in
    Obs_trace.with_span "mediator.access" (fun span ->
        Obs_span.set span "id" access_id;
        Obs_span.set span "target" target;
        Obs_span.set span "push" (access_push access);
        (match buffer_entry access with
        | Some p ->
          List.iter
            (fun (k, v) -> Obs_span.set span k v)
            (Obs_report.fetch_cells ~round:p.pf_info.fi_round
               ~shared:p.pf_info.fi_shared ~cache_hits:p.pf_info.fi_cache_hits)
        | None -> ());
        Obs_metrics.inc
          (Obs_metrics.counter (Printf.sprintf "source.%s.accesses" target));
        try
          let envs = List.of_seq (resolve access_id binding) in
          let n = List.length envs in
          Obs_span.set_int span "rows" n;
          Obs_metrics.inc ~by:n
            (Obs_metrics.counter (Printf.sprintf "source.%s.rows" target));
          (* The feedback loop: whatever this access shipped is the best
             cardinality estimate for its next compilation. *)
          Obs_feedback.record (Med_catalog.feedback catalog)
            (Med_planner.access_key access) n;
          (* An unfiltered single-table fetch doubles as a row-count
             observation for the statistics catalog (seeding tables no
             one has analyzed yet). *)
          (match access with
          | Med_planner.A_sql { source_name; export; fragment; _ }
            when fragment.Med_sqlgen.sql.Sql_ast.where = None
                 && fragment.Med_sqlgen.sql.Sql_ast.limit = None
                 && fragment.Med_sqlgen.sql.Sql_ast.group_by = []
                 && not fragment.Med_sqlgen.sql.Sql_ast.distinct ->
            Med_stats.observe_rows (Med_catalog.stats catalog)
              ~source:source_name ~export n
          | _ -> ());
          List.to_seq envs
        with Source.Unavailable name ->
          Obs_metrics.inc
            (Obs_metrics.counter (Printf.sprintf "source.%s.unavailable" target));
          raise (Alg_exec.Source_unavailable name))
  in
  match sink with
  | None -> fetch
  | Some sink ->
    fun access_id binding -> charge_access sink access_id (fun () -> fetch access_id binding)

(* Prefetch (under the catalog's fetch options) and resolve bind
   joins, then hand back the scan resolver.  With a sink, each access's
   tally records how it was fetched. *)
and prepare ?sink catalog ~opts ~view_lookup compiled =
  let buffer = prefetch catalog ~opts ~view_lookup compiled in
  let buffer = resolve_binds catalog ~opts ~view_lookup compiled buffer in
  (match sink, buffer with
  | Some sink, Some b ->
    Hashtbl.filter_map_inplace
      (fun _ st ->
        let p = Hashtbl.find_opt b (Med_planner.access_key st.stat_access) in
        Some { st with stat_fetch = Option.map (fun p -> p.pf_info) p })
      sink.accesses
  | _ -> ());
  source_fn_of ?sink catalog ~opts ~view_lookup ?buffer compiled

(* The one query driver: every run — strict or partial, any engine,
   analyzed or not — goes through here.  The whole execution runs
   under one retry-budget context: nested view executions inherit the
   enclosing query's deadline, and the sources served stale (partial
   mode only) surface in the result. *)
and exec ?sink catalog ~opts ~partial ~view_lookup (compiled : Med_planner.compiled) =
  let (trees, envs, skipped), stale =
    Src_retry.with_query (Med_catalog.retry catalog) ~partial (fun () ->
        Obs_trace.with_span "query" (fun qspan ->
            let sources = prepare ?sink catalog ~opts ~view_lookup compiled in
            (* Feedback/statistics/index-backed cardinalities, so the
               parallel engine pre-sizes its per-partition join tables
               from real estimates instead of the blind scan default. *)
            let cost_rows plan =
              let src aid =
                Med_planner.source_rows ~feedback:(Med_catalog.feedback catalog)
                  ~stats:(Med_catalog.stats catalog) compiled aid
              in
              (Alg_cost.estimate ~source_rows:src plan).Alg_cost.rows
            in
            let envs, skipped =
              Alg_exec.exec
                ?stats:(Option.map (fun s -> s.ops) sink)
                ~cost_rows ~partial (Med_catalog.exec_mode catalog) sources
                compiled.Med_planner.plan
            in
            if skipped <> [] then begin
              (* Partial-result degradation (section 3.4): the answer
                 shipped, but not all sources contributed. *)
              Obs_metrics.inc (Obs_metrics.counter "mediator.partial.degraded");
              Obs_metrics.inc ~by:(List.length skipped)
                (Obs_metrics.counter "mediator.partial.skipped_sources");
              Obs_span.set qspan "skipped" (String.concat "," skipped)
            end;
            Obs_span.set_int qspan "rows" (List.length envs);
            (* Instantiate the CONSTRUCT template per binding.  Correlated
               subqueries re-enter through the direct resolver. *)
            let resolver = direct_resolver catalog in
            let trees =
              List.concat_map
                (fun env -> Xq_eval.instantiate resolver env compiled.Med_planner.construct)
                envs
            in
            (trees, envs, skipped)))
  in
  { trees; bindings = envs; skipped_sources = skipped; stale_sources = stale }

let run_compiled ?(view_lookup = no_lookup) catalog compiled =
  exec catalog ~opts:Med_sqlgen.default_options ~partial:false ~view_lookup compiled

let run_compiled_partial ?(view_lookup = no_lookup) catalog compiled =
  exec catalog ~opts:Med_sqlgen.default_options ~partial:true ~view_lookup compiled

let run ?(opts = Med_sqlgen.default_options) ?(view_lookup = no_lookup) catalog q =
  (exec catalog ~opts ~partial:false ~view_lookup (Med_planner.compile ~opts catalog q)).trees

let run_text ?opts ?view_lookup catalog text =
  match Xq_parser.parse text with
  | Ok q -> run ?opts ?view_lookup catalog q
  | Error m -> fail "%s" m

let run_partial ?(opts = Med_sqlgen.default_options) ?(view_lookup = no_lookup) catalog q =
  let r =
    exec catalog ~opts ~partial:true ~view_lookup (Med_planner.compile ~opts catalog q)
  in
  (r.trees, r.skipped_sources)

let explain_text catalog text =
  match Xq_parser.parse text with
  | Ok q -> Med_planner.explain (Med_planner.compile catalog q)
  | Error m -> fail "%s" m

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE                                                     *)
(* ------------------------------------------------------------------ *)

type analysis = {
  analyzed_result : result;
  analyzed_compiled : Med_planner.compiled;
  analyzed_source_rows : string -> float;
  analyzed_stats : Alg_stats.t;
  analyzed_accesses : access_stat list;
  analyzed_wall_ms : float;
  analyzed_virtual_ms : float;
}

let run_analyzed ?(opts = Med_sqlgen.default_options) ?(view_lookup = no_lookup)
    catalog q =
  let fb = Med_catalog.feedback catalog in
  let compiled = Med_planner.compile ~opts ~feedback:fb catalog q in
  (* Snapshot the estimates BEFORE executing: the whole point of the
     report is comparing what the planner believed going in against what
     the run measured (the run itself updates the feedback store). *)
  let blank =
    List.map
      (fun (aid, access) ->
        {
          stat_id = aid;
          stat_access = access;
          stat_est_rows =
            Med_planner.source_rows ~feedback:fb ~stats:(Med_catalog.stats catalog)
              compiled aid;
          stat_calls = 0;
          stat_rows = 0;
          stat_ms = 0.0;
          stat_fetch = None;
          stat_sem = None;
          stat_idx = (0, 0, 0);
          stat_retry = (0, 0, 0);
        })
      compiled.Med_planner.accesses
  in
  let source_rows aid =
    match List.find_opt (fun st -> st.stat_id = aid) blank with
    | Some st -> st.stat_est_rows
    | None -> Alg_cost.default_scan_rows
  in
  let sink =
    { ops = Alg_stats.create compiled.Med_planner.plan; accesses = Hashtbl.create 8 }
  in
  List.iter (fun st -> Hashtbl.replace sink.accesses st.stat_id st) blank;
  let t0 = Obs_clock.wall_ms () in
  let v0 = Obs_clock.virtual_ms () in
  let result = exec ~sink catalog ~opts ~partial:false ~view_lookup compiled in
  let wall_ms = Obs_clock.wall_ms () -. t0 in
  let virtual_ms = Obs_clock.virtual_ms () -. v0 in
  let sem = Med_catalog.sem_cache catalog in
  let accesses =
    List.map
      (fun { stat_id; _ } ->
        let st = Hashtbl.find sink.accesses stat_id in
        let stat_sem =
          match st.stat_access with
          | Med_planner.A_sql { fragment; _ } ->
            Sem_cache.last_outcome sem ~sql:fragment.Med_sqlgen.sql_text
          | Med_planner.A_sql_join { fragment; _ } ->
            Sem_cache.last_outcome sem ~sql:fragment.Med_sqlgen.jf_sql_text
          | _ -> None
        in
        { st with stat_sem })
      blank
  in
  {
    analyzed_result = result;
    analyzed_compiled = compiled;
    analyzed_source_rows = source_rows;
    analyzed_stats = sink.ops;
    analyzed_accesses = accesses;
    analyzed_wall_ms = wall_ms;
    analyzed_virtual_ms = virtual_ms;
  }

let analysis_to_string a =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Alg_cost.explain_analyze
       ~extra:(Alg_stats.cells a.analyzed_stats)
       ~source_rows:a.analyzed_source_rows
       ~actual:(Alg_stats.actual a.analyzed_stats)
       a.analyzed_compiled.Med_planner.plan);
  (match a.analyzed_compiled.Med_planner.opt_info with
  | None -> ()
  | Some oi ->
    Buffer.add_string buf (Med_planner.opt_info_to_string oi);
    Buffer.add_char buf '\n');
  Buffer.add_string buf "accesses:\n";
  List.iter
    (fun st ->
      let fetch =
        match st.stat_fetch with
        | None -> []
        | Some fi ->
          Obs_report.fetch_cells ~round:fi.fi_round ~shared:fi.fi_shared
            ~cache_hits:fi.fi_cache_hits
      in
      let sem =
        match st.stat_sem with
        | None -> []
        | Some o -> Sem_cache.outcome_cells o
      in
      let idx =
        let p, g, m = st.stat_idx in
        if p + g = 0 then []
        else [ ("idx", Printf.sprintf "probe:%d/guide:%d/miss:%d" p g m) ]
      in
      (* Retry cells appear only when something actually happened, like
         the idx cell — fault-free reports stay byte-identical. *)
      let retry =
        let r, u, f = st.stat_retry in
        (if r > 0 then [ Obs_report.int_cell "retries" r ] else [])
        @ (if u > 0 then [ Obs_report.int_cell "gave_up" u ] else [])
        @ if f > 0 then [ ("breaker", "open") ] else []
      in
      Buffer.add_string buf
        (Med_planner.access_to_string (st.stat_id, st.stat_access));
      Buffer.add_string buf
        (Printf.sprintf "  [%s]\n"
           (Obs_report.cells
              ([
                 ("est", Printf.sprintf "%.0f" st.stat_est_rows);
                 Obs_report.int_cell "calls" st.stat_calls;
                 Obs_report.int_cell "rows" st.stat_rows;
                 ("time", Printf.sprintf "%.2fms" st.stat_ms);
               ]
              @ fetch @ sem @ idx @ retry)))
      )
    a.analyzed_accesses;
  let exec_note =
    match a.analyzed_stats.Alg_stats.engine with
    | Alg_batch.Tuple -> ""
    | Alg_batch.Batch { chunk } -> Printf.sprintf " [batch chunk=%d]" chunk
    | Alg_batch.Parallel { domains; chunk } ->
      Printf.sprintf " [parallel domains=%d chunk=%d]" domains chunk
  in
  Buffer.add_string buf
    (Printf.sprintf "-- %d rows in %.2fms (virtual %.2fms)%s\n"
       (List.length a.analyzed_result.bindings)
       a.analyzed_wall_ms a.analyzed_virtual_ms exec_note);
  Buffer.contents buf
