(* The Nimble benchmark: workloads, measuring loop and report.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
     perfbench.exe --det WORKLOAD[,WORKLOAD...] --seed N

   The first form sets the workload up at least five times (reporting
   the median set-up time), runs a closed loop of one operation at a
   time for S seconds and at least the workload's deterministic window,
   checks the answers, runs the reduced-scale verification pass, and
   prints one JSON object as its last line.  With --trace 0 the object carries the
   end-to-end metrics, with --trace 1 the per-layer ledger.  The second
   form runs only the deterministic window of each named workload in
   one process, resetting global state between them, and prints one
   "deterministic" line per workload (the isolation check). *)

open Common

type workload = {
  name : string;
  setup : scale:float -> seed:int -> instance;
  cycle : int;  (** length of the operation mix's cycle *)
  window : int;  (** operations over which counters are deterministic *)
  verify : seed:int -> ops:int -> (int * string) list;
      (** mismatches of the reduced-scale verification pass *)
  verify_ops : int;
}

let workloads =
  [
    {
      name = "federated_sql";
      setup = Fed.setup;
      cycle = 5;
      window = 400;
      verify = Fed.verify ~scale:0.05;
      verify_ops = 40;
    };
    {
      name = "xml_nav";
      setup = (fun ~scale ~seed -> snd (Xmlnav.setup ~scale ~seed));
      cycle = 8;
      window = 800;
      verify = Xmlnav.verify ~scale:0.1;
      verify_ops = 64;
    };
    {
      name = "lens_server";
      setup =
        (fun ~scale ~seed ->
          let _, _, inst = Lens.setup ~scale ~seed in
          inst);
      cycle = 20;
      window = 1000;
      verify = Lens.verify ~scale:0.1;
      verify_ops = 60;
    };
  ]

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
    prerr_endline
      ("perfbench: unknown workload " ^ name ^ " (known: "
      ^ String.concat ", " (List.map (fun w -> w.name) workloads)
      ^ ")");
    exit 2

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile of a fixed ladder with at least ten samples
   beyond it among [basis] samples.  The loop passes the reads of the
   deterministic window as the basis, so every run of a workload reports
   the same percentile; the value comes from all [xs] by nearest rank. *)
let tail ~basis xs =
  let a = sorted xs in
  let n = Array.length a in
  let ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ] in
  let p =
    match
      List.find_opt (fun p -> float_of_int basis *. (1.0 -. (p /. 100.0)) >= 10.0) ladder
    with
    | Some p -> p
    | None -> 50.0
  in
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  let v = if n = 0 then 0.0 else a.(max 0 (min (n - 1) (rank - 1))) in
  (p, n - rank, v)

(* ------------------------------------------------------------------ *)
(* Counter snapshots                                                   *)
(* ------------------------------------------------------------------ *)

(* Every counter whose value must repeat exactly for a given seed. *)
let snapshot (inst : instance) =
  let calls, rows, vms, failed = sum_nets inst.nets in
  let guide, value, walks = Idx_manager.counters () in
  let retries, gave_up, fast_fails = Src_retry.counters () in
  let i = float_of_int in
  [
    ("net.calls", i calls);
    ("net.shipped_rows", i rows);
    ("net.virtual_ms", vms);
    ("net.failed", i failed);
    ("index.guide_probes", i guide);
    ("index.value_probes", i value);
    ("index.walks", i walks);
    ("retry.retries", i retries);
    ("retry.gave_up", i gave_up);
    ("retry.breaker_fast_fails", i fast_fails);
    ("relation.calls", i Ledger.relation_counts.calls);
    ("relation.rows_out", i Ledger.relation_counts.rows);
    ("xml.calls", i Ledger.xml_counts.calls);
    ("xml.nodes_out", i Ledger.xml_counts.rows);
  ]
  @ inst.counters ()

let diff after before =
  List.map (fun (k, v) -> (k, v -. Option.value ~default:0.0 (List.assoc_opt k before))) after

let get kvs k = Option.value ~default:0.0 (List.assoc_opt k kvs)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let num v = if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Ledger.json_string k ^ ": " ^ v) fields) ^ "}"

let metric (name, unit, v) =
  (name, json_obj [ ("value", num v); ("unit", Ledger.json_string unit) ])

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

let setup_once w ~seed =
  reset_globals ();
  Gc.compact ();
  let t0 = Ledger.now_ms () in
  let inst = w.setup ~scale:1.0 ~seed in
  (inst, (Ledger.now_ms () -. t0) /. 1000.0)

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

type run = {
  mutable reads : float list;  (** latency ms *)
  mutable writes : float list;
  mutable traced : float list;
  mutable untraced : float list;
  mutable read_words : float;
  mutable ops : int;
  mutable failed : int;
  mutable mismatches : int;
  mutable repeats : int;
  mutable counts : (string * float) list;  (** counter deltas over the window *)
  mutable window_reads : int;
  mutable window_bytes : int;
  mutable traced_ledgers : Ledger.op_ledger list;
  mutable traced_relation_rows : int;
  mutable loop_s : float;
  mutable window_heap_mb : float;  (** peak major heap when the window closes *)
  digests : Buffer.t;  (** answer digests of the window, in order *)
}

(* The closed loop: one operation in flight, until [seconds] have passed
   and the deterministic window is complete. *)
let run_loop w inst ~seconds ~trace =
  let r =
    {
      reads = []; writes = []; traced = []; untraced = []; read_words = 0.0; ops = 0;
      failed = 0; mismatches = 0; repeats = 0; counts = []; window_reads = 0;
      window_bytes = 0; traced_ledgers = []; traced_relation_rows = 0; loop_s = 0.0;
      window_heap_mb = 0.0; digests = Buffer.create 4096;
    }
  in
  Ledger.relation_counts.calls <- 0;
  Ledger.relation_counts.rows <- 0;
  Ledger.xml_counts.calls <- 0;
  Ledger.xml_counts.rows <- 0;
  let base = snapshot inst in
  let seen : (string, Digest.t) Hashtbl.t = Hashtbl.create 1024 in
  let start = Ledger.now_ms () in
  let deadline = start +. (1000.0 *. seconds) in
  let i = ref 0 in
  while !i < w.window || Ledger.now_ms () < deadline do
    let traced = trace && !i / w.cycle mod 2 = 0 in
    Ledger.enabled := traced;
    Ledger.current_op := !i;
    let spans_before = !Ledger.spans in
    let rel_before = Ledger.relation_counts.rows in
    let w0 = Gc.minor_words () in
    let t0 = Ledger.now_ms () in
    let a = Ledger.with_span "op" (fun () -> inst.step !i) in
    let dt = Ledger.now_ms () -. t0 in
    let dw = Gc.minor_words () -. w0 in
    Ledger.enabled := false;
    let digest = Digest.string a.output in
    if not a.ok then r.failed <- r.failed + 1;
    (match a.kind with
    | Write ->
      r.writes <- dt :: r.writes;
      Hashtbl.reset seen
    | Read ->
      r.reads <- dt :: r.reads;
      r.read_words <- r.read_words +. dw;
      if traced then begin
        r.traced <- dt :: r.traced;
        (* The spans this operation added sit in front of the old list. *)
        let rec fresh acc l =
          if l == spans_before then acc
          else match l with s :: tl -> fresh (s :: acc) tl | [] -> acc
        in
        r.traced_ledgers <- Ledger.ledger_of_op (fresh [] !Ledger.spans) :: r.traced_ledgers;
        r.traced_relation_rows <- r.traced_relation_rows + Ledger.relation_counts.rows - rel_before
      end
      else if trace then r.untraced <- dt :: r.untraced;
      (match Hashtbl.find_opt seen a.key with
      | _ when not a.ok -> ()
      | Some d ->
        r.repeats <- r.repeats + 1;
        if not (Digest.equal d digest) then r.mismatches <- r.mismatches + 1
      | None -> Hashtbl.replace seen a.key digest));
    if !i < w.window then begin
      Buffer.add_string r.digests digest;
      if a.kind = Read then begin
        r.window_reads <- r.window_reads + 1;
        r.window_bytes <- r.window_bytes + String.length a.output
      end;
      if !i = w.window - 1 then begin
        r.counts <- diff (snapshot inst) base;
        r.window_heap_mb <- top_heap_mb ()
      end
    end;
    incr i
  done;
  r.loop_s <- (Ledger.now_ms () -. start) /. 1000.0;
  r.ops <- !i;
  r

let deterministic_line w ~seed (r : run) =
  let fields =
    [
      ("workload", Ledger.json_string w.name);
      ("seed", string_of_int seed);
      ("window_ops", string_of_int w.window);
      ("digest", Ledger.json_string (Digest.to_hex (Digest.string (Buffer.contents r.digests))));
    ]
    @ List.map (fun (k, v) -> (k, num v)) r.counts
  in
  json_obj [ ("deterministic", json_obj fields) ]

let out_dir = ".perfbench_out"

(* Runs of one seed by one build must agree on the deterministic window:
   the first run in a tree records its line, later runs compare with it. *)
let agrees_with_previous w ~seed ~trace line =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let build = String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12 in
  let path =
    Printf.sprintf "%s/window-%s-%d-%d-%s.json" out_dir w.name seed (if trace then 1 else 0) build
  in
  if Sys.file_exists path then String.equal line (In_channel.with_open_bin path In_channel.input_all)
  else begin
    Out_channel.with_open_bin path (fun oc -> output_string oc line);
    true
  end

let end_to_end ~setup_s (r : run) =
  let reads = float_of_int (List.length r.reads) in
  let wr = float_of_int r.window_reads in
  let _, _, tail_v = tail ~basis:r.window_reads r.reads in
  [
    ("setup_s", "s", setup_s);
    ("query_p50_ms", "ms", median r.reads);
    ("query_tail_ms", "ms", tail_v);
    ("throughput_qps", "1/s", reads /. r.loop_s);
    ("virtual_ms_per_query", "ms", ratio (get r.counts "net.virtual_ms") wr);
    ("shipped_rows_per_query", "count", ratio (get r.counts "net.shipped_rows") wr);
    ("alloc_words_per_query", "words", ratio r.read_words reads);
    ("top_heap_mb", "MB", r.window_heap_mb);
  ]

let per_layer ~(setup_notes : (string * float) list) (r : run) =
  let n = float_of_int (List.length r.traced_ledgers) in
  let sum f = List.fold_left (fun a l -> a +. f l) 0.0 r.traced_ledgers in
  let layer name l = get l.Ledger.by_layer name in
  let per_op f = ratio (sum f) n in
  let c k = get r.counts k in
  let self name (l : Ledger.op_ledger) = get l.Ledger.self_ms name in
  let self_words name (l : Ledger.op_ledger) = get l.Ledger.self_words name in
  let probes = c "index.guide_probes" +. c "index.value_probes" in
  let relation_ms = sum (layer Ledger.relation) in
  let unattributed =
    ratio
      (sum (fun l -> l.Ledger.wall -. List.fold_left (fun a (_, v) -> a +. v) 0.0 l.Ledger.by_layer))
      (sum (fun l -> l.Ledger.wall))
  in
  [
    ("xmlql.parse_ms", "ms", per_op (layer Ledger.parse));
    ("mediator.compile_ms", "ms", per_op (layer Ledger.compile));
    ("mediator.exec_self_ms", "ms", per_op (fun l -> self Ledger.exec l +. self Ledger.facade l));
    ( "mediator.exec_self_minor_words", "words",
      per_op (fun l -> self_words Ledger.exec l +. self_words Ledger.facade l) );
    ("relation.calls", "count", c "relation.calls");
    ("relation.exec_ms", "ms", ratio relation_ms n);
    ("relation.rows_out", "count", c "relation.rows_out");
    ("relation.us_per_row", "us", ratio (1000.0 *. relation_ms) (float_of_int r.traced_relation_rows));
    ("relation.minor_words", "words", per_op (fun l -> get l.Ledger.source_words Ledger.relation));
    ("xml.calls", "count", c "xml.calls");
    ("xml.exec_ms", "ms", per_op (layer Ledger.xml));
    ("xml.nodes_out", "count", c "xml.nodes_out");
    ("index.guide_probes", "count", c "index.guide_probes");
    ("index.value_probes", "count", c "index.value_probes");
    ("index.walks", "count", c "index.walks");
    ("index.probe_ratio", "ratio", ratio probes (probes +. c "index.walks"));
    ("index.bytes", "B", float_of_int (Idx_manager.total_bytes ()));
    ("index.build_ms", "ms", get setup_notes "index.build_ms");
    ("net.calls", "count", c "net.calls");
    ("net.shipped_rows", "count", c "net.shipped_rows");
    ("net.virtual_ms", "ms", c "net.virtual_ms");
    ("net.failed", "count", c "net.failed");
    ("retry.retries", "count", c "retry.retries");
    ("retry.gave_up", "count", c "retry.gave_up");
    ("retry.breaker_fast_fails", "count", c "retry.breaker_fast_fails");
    ("frag_cache.hits", "count", c "frag_cache.hits");
    ("frag_cache.misses", "count", c "frag_cache.misses");
    ( "frag_cache.hit_ratio", "ratio",
      ratio (c "frag_cache.hits") (c "frag_cache.hits" +. c "frag_cache.misses") );
    ("frag_cache.invalidations", "count", c "frag_cache.invalidations");
    ("sem_cache.hits", "count", c "sem_cache.hits");
    ("sem_cache.partials", "count", c "sem_cache.partials");
    ("sem_cache.misses", "count", c "sem_cache.misses");
    ("sem_cache.rows_local", "count", c "sem_cache.rows_local");
    ("sem_cache.rows_shipped", "count", c "sem_cache.rows_shipped");
    ( "sem_cache.local_ratio", "ratio",
      ratio (c "sem_cache.rows_local") (c "sem_cache.rows_local" +. c "sem_cache.rows_shipped") );
    ("sem_cache.invalidations", "count", c "sem_cache.invalidations");
    ("mat_cache.hits", "count", c "mat_cache.hits");
    ("mat_cache.misses", "count", c "mat_cache.misses");
    ( "mat_cache.hit_ratio", "ratio",
      ratio (c "mat_cache.hits") (c "mat_cache.hits" +. c "mat_cache.misses") );
    ("frontend.render_ms", "ms", per_op (layer Ledger.render));
    ("frontend.output_bytes", "B", ratio (float_of_int r.window_bytes) (float_of_int r.window_reads));
    ("server.request_self_ms", "ms", per_op (self Ledger.request));
    ("server.plan_hits", "count", c "server.plan_hits");
    ("server.plan_misses", "count", c "server.plan_misses");
    ("server.plan_invalidations", "count", c "server.plan_invalidations");
    ( "server.plan_hit_ratio", "ratio",
      ratio (c "server.plan_hits") (c "server.plan_hits" +. c "server.plan_misses") );
    ("server.rejected", "count", c "server.rejected");
    ("server.write_p50_ms", "ms", median r.writes);
    ("trace.overhead_share", "ratio", ratio (median r.traced) (median r.untraced) -. 1.0);
    ("trace.unattributed_share", "ratio", unattributed);
  ]

let measure w ~seed ~seconds ~trace =
  Ledger.counting := trace;
  (* At least five set-ups and two seconds of them, so the median of a
     short set-up rests on enough samples. *)
  let setup_times = ref [] in
  let inst = ref None in
  while
    let n = List.length !setup_times in
    n < 5 || (n < 25 && List.fold_left ( +. ) 0.0 !setup_times < 2.0)
  do
    inst := None;
    let i, s = setup_once w ~seed in
    setup_times := s :: !setup_times;
    inst := Some i
  done;
  let inst = Option.get !inst in
  let setup_s = median !setup_times in
  Ledger.clear ();
  let r = run_loop w inst ~seconds ~trace in
  let heap_end_mb = top_heap_mb () in
  let metrics =
    if trace then per_layer ~setup_notes:inst.setup_notes r else end_to_end ~setup_s r
  in
  if trace then begin
    (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
    Ledger.write_spans (Printf.sprintf "%s/spans-%s-%d.jsonl" out_dir w.name seed)
  end;
  Ledger.clear ();
  Ledger.counting := false;
  (* Verification at reduced scale, after the measured loop. *)
  reset_globals ();
  let bad = w.verify ~seed ~ops:w.verify_ops in
  List.iter (fun (i, key) -> Printf.eprintf "perfbench: verification mismatch at op %d: %s\n" i key) bad;
  let p, beyond, _ = tail ~basis:r.window_reads r.reads in
  let det = deterministic_line w ~seed r in
  let repeatable = agrees_with_previous w ~seed ~trace det in
  if not repeatable then
    prerr_endline "perfbench: deterministic window differs from an earlier run of this seed";
  let attempted = r.ops + w.verify_ops in
  let failed = r.failed + r.mismatches + List.length bad + if repeatable then 0 else 1 in
  print_endline det;
  print_endline
    (json_obj
       [
         ( "detail",
           json_obj
             [
               ("workload", Ledger.json_string w.name);
               ("seed", string_of_int seed);
               ("trace", if trace then "1" else "0");
               ("ops", string_of_int r.ops);
               ("reads", string_of_int (List.length r.reads));
               ("writes", string_of_int (List.length r.writes));
               ("tail_percentile", Ledger.json_string (Printf.sprintf "p%g" p));
               ("tail_samples_beyond", string_of_int beyond);
               ( "repeat_share",
                 num (ratio (float_of_int r.repeats) (float_of_int (List.length r.reads))) );
               ("write_p50_ms", num (median r.writes));
               ("failed_share", num (ratio (float_of_int failed) (float_of_int attempted)));
               ("answer_mismatches", string_of_int r.mismatches);
               ("verify_ops", string_of_int w.verify_ops);
               ("verify_mismatches", string_of_int (List.length bad));
               ("setup_runs_s", "[" ^ String.concat ", " (List.map num (List.rev !setup_times)) ^ "]");
               ("loop_s", num r.loop_s);
               ("top_heap_end_mb", num heap_end_mb);
             ] );
       ]);
  print_endline
    (json_obj
       [
         ("correct", if failed = 0 then "true" else "false");
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", json_obj (List.map metric metrics));
       ])

(* The isolation check: deterministic windows of several workloads in
   one process, each after a reset of the process-wide state. *)
let det_only names ~seed =
  List.iter
    (fun name ->
      let w = find_workload name in
      let inst, _ = setup_once w ~seed in
      let r = run_loop w inst ~seconds:0.0 ~trace:false in
      print_endline (deterministic_line w ~seed r))
    names

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let det = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics or the per-layer ledger");
      ("--det", Arg.Set_string det, "W1,W2,... deterministic windows only, in one process");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !det <> "" then det_only (String.split_on_char ',' !det) ~seed:!seed
  else if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end
  else begin
    let w = find_workload !workload in
    measure w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  end
