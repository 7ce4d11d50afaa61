(* Shared pieces of the three workloads: answers, data loading, the
   global-state reset, and the verification comparison. *)

type kind =
  | Read
  | Write

(* What one operation hands back to the measuring loop.  [key] identifies the
   request (query text or lens invocation), so an exact repeat can be
   checked against the answer it got the first time. *)
type answer = {
  kind : kind;
  key : string;
  output : string;  (** the rendered answer the user receives *)
  ok : bool;        (** false when the library returned an error *)
}

let failure kind key msg = { kind; key; output = "error: " ^ msg; ok = false }

(* A workload instance after set-up: [step i] runs operation [i] of the
   seeded stream. *)
type instance = {
  step : int -> answer;
  nets : Net_sim.stats list;  (** every Net_sim wrapper of the system *)
  counters : unit -> (string * float) list;
      (** cumulative library counters (caches, plan cache, index sizes) *)
  setup_notes : (string * float) list;  (** e.g. index build time *)
}

(* Start every set-up from the same process-wide state: the virtual
   clock (fault windows and engine times are absolute virtual instants),
   the metrics registry, and the index registry. *)
let reset_globals () =
  Obs_clock.reset_virtual ();
  Obs_metrics.reset_all ();
  Idx_manager.clear ();
  Idx_manager.reset_stats ();
  Idx_manager.set_mode Idx_manager.Auto

let ok_or_fail what = function
  | Ok x -> x
  | Error m -> failwith (what ^ ": " ^ m)

(* Bulk-load through SQL, as a client of the database would. *)
let exec_all db stmts = List.iter (fun s -> ignore (Rel_db.exec db s)) stmts

let insert_rows db table rows =
  let rec chunks = function
    | [] -> ()
    | rows ->
      let rec take n acc = function
        | x :: rest when n > 0 -> take (n - 1) (x :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let batch, rest = take 500 [] rows in
      ignore
        (Rel_db.exec db
           (Printf.sprintf "INSERT INTO %s VALUES %s" table (String.concat ", " batch)));
      chunks rest
  in
  chunks rows

let render trees = Fe_format.render Fe_format.Text trees

(* Answers are compared as multisets of rendered lines: queries without
   ORDER BY may legitimately return rows in another order than the
   brute-force reference. *)
let canonical output =
  String.split_on_char '\n' output
  |> List.filter (fun l -> l <> "")
  |> List.sort String.compare
  |> String.concat "\n"

let same_answer a b = String.equal (canonical a) (canonical b)

(* The brute-force reference over an unwrapped twin catalog. *)
let reference cat q = render (Xq_eval.eval (Med_exec.direct_resolver cat) q)

(* An XML store that serves only [documents]: the reference twin of an
   [Xml_source], kept out of the process-wide store and index registries
   the measured source uses. *)
let plain_xml_source ~name docs =
  let find doc =
    match List.assoc_opt doc docs with
    | Some t -> [ t ]
    | None -> raise (Source.Query_rejected ("unknown document " ^ doc))
  in
  {
    Source.name;
    kind = Source.Xml_store;
    capability = Source.scan_only;
    relations = (fun () -> []);
    document_names = (fun () -> List.map fst docs);
    documents = find;
    execute =
      (function
      | Source.Q_scan d -> Source.R_trees (find d)
      | _ -> raise (Source.Query_rejected "reference twin serves scans only"));
    is_available = (fun () -> true);
  }

let sum_nets nets =
  List.fold_left
    (fun (c, r, v, f) s ->
      ( c + s.Net_sim.calls,
        r + s.Net_sim.tuples_shipped,
        v +. s.Net_sim.virtual_ms,
        f + s.Net_sim.failed ))
    (0, 0, 0.0, 0) nets

(* Cache counters of one system, under the names the report uses. *)
let system_counters sys =
  let mc = Mat_cache.stats (Nimble.cache sys) in
  let cat = Nimble.catalog sys in
  let fc = Frag_cache.stats (Med_catalog.frag_cache cat) in
  let sc = Sem_cache.stats (Med_catalog.sem_cache cat) in
  let i = float_of_int in
  [
    ("mat_cache.hits", i mc.Mat_cache.cache_hits);
    ("mat_cache.misses", i mc.Mat_cache.cache_misses);
    ("frag_cache.hits", i fc.Frag_cache.frag_hits);
    ("frag_cache.misses", i fc.Frag_cache.frag_misses);
    ("frag_cache.invalidations", i fc.Frag_cache.frag_invalidations);
    ("sem_cache.hits", i sc.Sem_cache.sem_hits);
    ("sem_cache.partials", i sc.Sem_cache.sem_partials);
    ("sem_cache.misses", i sc.Sem_cache.sem_misses);
    ("sem_cache.rows_local", i sc.Sem_cache.sem_rows_local);
    ("sem_cache.rows_shipped", i sc.Sem_cache.sem_rows_shipped);
    ("sem_cache.invalidations", i sc.Sem_cache.sem_invalidations);
  ]

let ratio a b = if b = 0.0 then 0.0 else a /. b
