(* Batch-at-a-time execution: chunks of environments move between
   operators instead of single rows.  See the interface for the
   contract with the tuple engine; the short version is that plan
   compilation is eager (sources open, blocking operators materialize)
   and row flow is lazy, exactly mirroring Alg_exec, so the two engines
   agree on strict/partial semantics as well as on answers. *)

[@@@ocaml.warnerror "+a"]

type chunk = Alg_env.t array

let default_chunk = 1024

type mode = Alg_stats.mode =
  | Tuple
  | Batch of { chunk : int }
  | Parallel of { domains : int; chunk : int }

let mode_to_string = function
  | Tuple -> "tuple"
  | Batch { chunk } ->
    if chunk = default_chunk then "batch" else Printf.sprintf "batch(chunk=%d)" chunk
  | Parallel { domains; chunk } ->
    if chunk = default_chunk then Printf.sprintf "parallel(domains=%d)" domains
    else Printf.sprintf "parallel(domains=%d,chunk=%d)" domains chunk

let mode_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "tuple" -> Some Tuple
  | "batch" -> Some (Batch { chunk = default_chunk })
  | "parallel" ->
    Some (Parallel { domains = Domain.recommended_domain_count (); chunk = default_chunk })
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Shared operator semantics (also used by the tuple engine)           *)
(* ------------------------------------------------------------------ *)

let compare_specs specs a b =
  let rec go = function
    | [] -> 0
    | spec :: rest ->
      let va = Alg_expr.eval a spec.Alg_plan.sort_key in
      let vb = Alg_expr.eval b spec.Alg_plan.sort_key in
      let c = Value.compare va vb in
      if c <> 0 then if spec.Alg_plan.ascending then c else -c else go rest
  in
  go specs

let union_vars envs =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  List.iter
    (fun env ->
      List.iter
        (fun v ->
          if not (Hashtbl.mem seen v) then begin
            Hashtbl.add seen v ();
            out := v :: !out
          end)
        (Alg_env.vars env))
    envs;
  List.rev !out

type agg_state = {
  mutable count : int;
  mutable nonnull : int;
  mutable sum : Value.t;
  mutable vmin : Value.t option;
  mutable vmax : Value.t option;
  mutable collected : Dtree.t list;  (* reversed *)
}

let new_state () =
  { count = 0; nonnull = 0; sum = Value.Int 0; vmin = None; vmax = None; collected = [] }

let feed env st = function
  | Alg_plan.A_count -> st.count <- st.count + 1
  | Alg_plan.A_count_expr e ->
    if Alg_expr.eval env e <> Value.Null then st.nonnull <- st.nonnull + 1
  | Alg_plan.A_sum e | Alg_plan.A_avg e -> (
    match Alg_expr.eval env e with
    | Value.Null -> ()
    | v ->
      st.nonnull <- st.nonnull + 1;
      st.sum <- (try Value.add st.sum v with Invalid_argument _ -> st.sum))
  | Alg_plan.A_min e -> (
    match Alg_expr.eval env e with
    | Value.Null -> ()
    | v -> (
      match st.vmin with
      | None -> st.vmin <- Some v
      | Some m -> if Value.compare v m < 0 then st.vmin <- Some v))
  | Alg_plan.A_max e -> (
    match Alg_expr.eval env e with
    | Value.Null -> ()
    | v -> (
      match st.vmax with
      | None -> st.vmax <- Some v
      | Some m -> if Value.compare v m > 0 then st.vmax <- Some v))
  | Alg_plan.A_collect e -> (
    match Alg_expr.eval_tree env e with
    | Some tree -> st.collected <- tree :: st.collected
    | None -> ())

let result st = function
  | Alg_plan.A_count -> Dtree.atom (Value.Int st.count)
  | Alg_plan.A_count_expr _ -> Dtree.atom (Value.Int st.nonnull)
  | Alg_plan.A_sum _ -> Dtree.atom (if st.nonnull = 0 then Value.Null else st.sum)
  | Alg_plan.A_avg _ ->
    Dtree.atom
      (if st.nonnull = 0 then Value.Null
       else
         match Value.to_float st.sum with
         | Some total -> Value.Float (total /. float_of_int st.nonnull)
         | None -> Value.Null)
  | Alg_plan.A_min _ -> Dtree.atom (Option.value ~default:Value.Null st.vmin)
  | Alg_plan.A_max _ -> Dtree.atom (Option.value ~default:Value.Null st.vmax)
  | Alg_plan.A_collect _ -> Dtree.node "collection" (List.rev st.collected)

let group_rows ?(size_hint = 32) keys aggs input_envs =
  let table : (Value.t list, Alg_env.t * agg_state list) Hashtbl.t =
    Hashtbl.create (max 16 size_hint)
  in
  let order = ref [] in
  List.iter
    (fun env ->
      let key = List.map (fun (_, e) -> Alg_expr.eval env e) keys in
      let _, states =
        match Hashtbl.find_opt table key with
        | Some entry -> entry
        | None ->
          let entry = (env, List.map (fun _ -> new_state ()) aggs) in
          Hashtbl.add table key entry;
          order := key :: !order;
          entry
      in
      List.iter2 (fun st (_, agg) -> feed env st agg) states aggs)
    input_envs;
  (* A keyless group is scalar aggregation: over empty input it still
     yields exactly one row of aggregate identities (count 0, null
     sum/avg/min/max, empty collection) — in both engines. *)
  if !order = [] && keys = [] then begin
    Hashtbl.add table [] (Alg_env.empty, List.map (fun _ -> new_state ()) aggs);
    order := [ [] ]
  end;
  List.rev_map
    (fun key ->
      let _, states = Hashtbl.find table key in
      let key_bindings = List.map2 (fun (var, _) v -> (var, Dtree.atom v)) keys key in
      let agg_bindings = List.map2 (fun st (var, agg) -> (var, result st agg)) states aggs in
      Alg_env.of_bindings (key_bindings @ agg_bindings))
    !order

(* ------------------------------------------------------------------ *)
(* Chunk cursors                                                       *)
(* ------------------------------------------------------------------ *)

(* A pull iterator over non-empty chunks; None means exhausted. *)
type cursor = unit -> chunk option

type config = {
  chunk_size : int;
  sources : string -> string -> Alg_env.t Seq.t;
  fallback : Alg_plan.t -> Alg_env.t Seq.t;
  template : Alg_env.t -> Alg_plan.template -> Dtree.t;
}

let cursor_of_seq cfg (s : Alg_env.t Seq.t) : cursor =
  let state = ref s in
  fun () ->
    let buf = Array.make cfg.chunk_size Alg_env.empty in
    let rec fill i s =
      if i = cfg.chunk_size then begin
        state := s;
        i
      end
      else
        match s () with
        | Seq.Nil ->
          state := Seq.empty;
          i
        | Seq.Cons (x, rest) ->
          buf.(i) <- x;
          fill (i + 1) rest
    in
    let n = fill 0 !state in
    if n = 0 then None
    else if n = cfg.chunk_size then Some buf
    else Some (Array.sub buf 0 n)

let cursor_of_array cfg (arr : Alg_env.t array) : cursor =
  let pos = ref 0 in
  fun () ->
    let left = Array.length arr - !pos in
    if left <= 0 then None
    else begin
      let len = min cfg.chunk_size left in
      let ch = Array.sub arr !pos len in
      pos := !pos + len;
      Some ch
    end

(* Drain a cursor into one array (hash-join build, sort, group). *)
let drain_array (c : cursor) : Alg_env.t array =
  let chunks = ref [] in
  let total = ref 0 in
  let rec go () =
    match c () with
    | None -> ()
    | Some ch ->
      chunks := ch :: !chunks;
      total := !total + Array.length ch;
      go ()
  in
  go ();
  match !chunks with
  | [] -> [||]
  | [ only ] -> only
  | many ->
    let out = Array.make !total Alg_env.empty in
    let pos = ref !total in
    List.iter
      (fun ch ->
        pos := !pos - Array.length ch;
        Array.blit ch 0 out !pos (Array.length ch))
      many;
    out

(* Variable-output operators (filter, join probe, navigate/unnest) push
   rows through [step : emit -> still_more]; rows are re-packed into
   full chunks with a carry buffer spanning input chunks, so downstream
   fill stays high. *)
let rechunked cfg (step : (Alg_env.t -> unit) -> bool) : cursor =
  let buf = Array.make cfg.chunk_size Alg_env.empty in
  let len = ref 0 in
  let ready : chunk Queue.t = Queue.create () in
  let finished = ref false in
  let emit env =
    buf.(!len) <- env;
    incr len;
    if !len = cfg.chunk_size then begin
      Queue.add (Array.copy buf) ready;
      len := 0
    end
  in
  let rec next () =
    match Queue.take_opt ready with
    | Some ch -> Some ch
    | None ->
      if !finished then
        if !len > 0 then begin
          let ch = Array.sub buf 0 !len in
          len := 0;
          Some ch
        end
        else None
      else begin
        if not (step emit) then finished := true;
        next ()
      end
  in
  next

let map_chunks f (cur : cursor) : cursor =
 fun () -> Option.map (Array.map f) (cur ())

(* ------------------------------------------------------------------ *)
(* Per-operator compiled expressions                                   *)
(* ------------------------------------------------------------------ *)

(* The tuple engine interprets expression ASTs once per row; here name
   resolution and AST dispatch happen once per operator at plan
   compilation and the returned closures run per row.  Only the hot
   shapes are specialized — everything else falls back to the
   interpreter, so semantics cannot drift. *)

let compile_value e : Alg_env.t -> Value.t =
  match e with
  | Alg_expr.Const v -> fun _ -> v
  | Alg_expr.Var name -> fun env -> Alg_env.value_of env name
  | Alg_expr.Child (Alg_expr.Var name, label) ->
    fun env -> (
      match Alg_env.get env name with
      | None -> Value.Null
      | Some tree -> (
        match Dtree.first_named tree label with
        | None -> Value.Null
        | Some t -> (
          match Dtree.atom_value t with
          | Some v -> v
          | None -> Value.String (Dtree.text t))))
  | e -> fun env -> Alg_expr.eval env e

let compile_pred p : Alg_env.t -> bool =
  match p with
  | Alg_expr.Binop
      ((Alg_expr.Eq | Alg_expr.Neq | Alg_expr.Lt | Alg_expr.Le | Alg_expr.Gt | Alg_expr.Ge) as op,
       a, b) ->
    let fa = compile_value a and fb = compile_value b in
    let test =
      match op with
      | Alg_expr.Eq -> fun c -> c = 0
      | Alg_expr.Neq -> fun c -> c <> 0
      | Alg_expr.Lt -> fun c -> c < 0
      | Alg_expr.Le -> fun c -> c <= 0
      | Alg_expr.Gt -> fun c -> c > 0
      | Alg_expr.Ge -> fun c -> c >= 0
      | _ -> assert false
    in
    fun env -> (
      match Value.compare_sql (fa env) (fb env) with
      | None -> false
      | Some c -> test c)
  | p -> fun env -> Alg_expr.eval_pred env p

(* Projection with the no-op fast path: when a row already binds exactly
   the projected variables in order, reuse it instead of rebuilding. *)
let compile_project vars : Alg_env.t -> Alg_env.t =
  let names = Array.of_list vars in
  fun env -> if Alg_env.has_layout env names then env else Alg_env.project env vars

(* ------------------------------------------------------------------ *)
(* Sorting: decorate, sort, undecorate                                 *)
(* ------------------------------------------------------------------ *)

(* Every sort key is evaluated exactly once per row; the comparator then
   only touches precomputed key columns.  [compare_specs] (above) keeps
   the reference semantics; these helpers are what the engines actually
   run, and the parallel engine reuses decorate/compare for its
   sorted-run merges. *)

let sort_decorate specs (arr : Alg_env.t array) : (Value.t array * Alg_env.t) array =
  let keyfns = List.map (fun s -> compile_value s.Alg_plan.sort_key) specs in
  Array.map (fun env -> (Array.of_list (List.map (fun f -> f env) keyfns), env)) arr

let sort_compare_keys specs =
  let dirs = Array.of_list (List.map (fun s -> s.Alg_plan.ascending) specs) in
  let nkeys = Array.length dirs in
  fun ka kb ->
    let rec go i =
      if i = nkeys then 0
      else
        let c = Value.compare ka.(i) kb.(i) in
        if c <> 0 then if dirs.(i) then c else -c else go (i + 1)
    in
    go 0

let sort_array specs (arr : Alg_env.t array) : Alg_env.t array =
  match specs with
  | [] -> arr
  | _ ->
    let deco = sort_decorate specs arr in
    let cmp_keys = sort_compare_keys specs in
    Array.stable_sort (fun (ka, _) (kb, _) -> cmp_keys ka kb) deco;
    Array.map snd deco

let sort_list specs envs = Array.to_list (sort_array specs (Array.of_list envs))

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* One Navigate binding, shared by all three engines: a registered root
   with an indexable path is answered from the index subsystem (a guide
   or value probe plus a document-order merge); anything else walks the
   tree.  Answers are byte-identical either way — the index round-trips
   its result nodes through the same XML conversion the walker output
   takes.  Safe on worker domains: probes touch only atomics and
   immutable structures. *)
let navigate_matches tree path =
  match tree with
  | Dtree.Atom _ -> ([], `Miss)
  | Dtree.Node _ -> (
    match Idx_manager.try_select tree path with
    | Some (results, Idx_manager.Value) -> (results, `Probe)
    | Some (results, Idx_manager.Guide) -> (results, `Guide)
    | None ->
      ( List.map Dtree.of_xml_element
          (Xml_path.select path (Dtree.to_xml_element tree)),
        `Miss ))

type counters = {
  c_batches : Obs_metrics.counter;
  c_rows : Obs_metrics.counter;
  c_fallbacks : Obs_metrics.counter;
}

let instrument counters (ob : Alg_stats.op) (cur : cursor) : cursor =
 fun () ->
  ob.op_pulled <- true;
  let t0 = Obs_clock.wall_ms () in
  let r = cur () in
  ob.op_ms <- ob.op_ms +. (Obs_clock.wall_ms () -. t0);
  (match r with
  | Some ch ->
    ob.op_chunks <- ob.op_chunks + 1;
    ob.op_rows <- ob.op_rows + Array.length ch;
    Obs_metrics.inc counters.c_batches;
    Obs_metrics.inc ~by:(Array.length ch) counters.c_rows
  | None -> ());
  r

(* Compile [plan] to a cursor.  Node construction is eager (mirroring
   the tuple engine's run_hooked, where e.g. a hash join materializes
   its build side while the plan is being turned into a Seq); the
   returned cursor is the lazy part.  Build-side work is charged to the
   node's inclusive time. *)
let rec compile cfg counters (ob : Alg_stats.op) plan : cursor =
  let t0 = Obs_clock.wall_ms () in
  let cur = compile_node cfg counters ob plan in
  ob.op_ms <- ob.op_ms +. (Obs_clock.wall_ms () -. t0);
  instrument counters ob cur

and compile_node cfg counters (ob : Alg_stats.op) plan : cursor =
  let kid i = List.nth ob.op_kids i in
  let fallback () =
    Obs_metrics.inc counters.c_fallbacks;
    cursor_of_seq cfg (cfg.fallback plan)
  in
  match plan with
  | Alg_plan.Scan { source; binding } -> cursor_of_seq cfg (cfg.sources source binding)
  | Alg_plan.Const_envs envs -> cursor_of_seq cfg (List.to_seq envs)
  | Alg_plan.Select (input, pred) ->
    let test = compile_pred pred in
    let input_cur = compile cfg counters (kid 0) input in
    rechunked cfg (fun emit ->
        match input_cur () with
        | None -> false
        | Some ch ->
          Array.iter (fun env -> if test env then emit env) ch;
          true)
  | Alg_plan.Project (Alg_plan.Select (inner, pred), vars) ->
    (* Fused select+project: one pass filters and narrows. *)
    let sel_ob = kid 0 in
    sel_ob.op_fused <- true;
    sel_ob.op_pulled <- true;
    let test = compile_pred pred in
    let narrow = compile_project vars in
    let input_cur = compile cfg counters (List.nth sel_ob.op_kids 0) inner in
    rechunked cfg (fun emit ->
        match input_cur () with
        | None -> false
        | Some ch ->
          sel_ob.op_chunks <- sel_ob.op_chunks + 1;
          Array.iter
            (fun env ->
              if test env then begin
                sel_ob.op_rows <- sel_ob.op_rows + 1;
                emit (narrow env)
              end)
            ch;
          true)
  | Alg_plan.Project (input, vars) ->
    map_chunks (compile_project vars) (compile cfg counters (kid 0) input)
  | Alg_plan.Rename (input, mapping) ->
    map_chunks (fun env -> Alg_env.rename env mapping) (compile cfg counters (kid 0) input)
  | Alg_plan.Extend (input, var, e) ->
    map_chunks
      (fun env -> Alg_env.bind_value env var (Alg_expr.eval env e))
      (compile cfg counters (kid 0) input)
  | Alg_plan.Extend_tree (input, var, e) ->
    map_chunks
      (fun env ->
        match Alg_expr.eval_tree env e with
        | Some tree -> Alg_env.bind env var tree
        | None -> Alg_env.bind env var (Dtree.atom Value.Null))
      (compile cfg counters (kid 0) input)
  | Alg_plan.Hash_join { left; right; left_key; right_key; residual } ->
    (* Single build pass: materialize, precompute the key column with
       the compiled key expression, size the table exactly, and store
       whole buckets (walking the key column in reverse keeps each
       bucket in original build order).  Probes then touch the bucket
       list directly — no per-probe [find_all] list rebuild. *)
    let rights = drain_array (compile cfg counters (kid 1) right) in
    let n = Array.length rights in
    let rkey = compile_value right_key in
    let rkeys = Array.map rkey rights in
    let nonnull = ref 0 in
    Array.iter (fun k -> if k <> Value.Null then incr nonnull) rkeys;
    let table : Alg_env.t list ref Value.Tbl.t = Value.Tbl.create (max 16 !nonnull) in
    for i = n - 1 downto 0 do
      match rkeys.(i) with
      | Value.Null -> ()
      | k -> (
        match Value.Tbl.find_opt table k with
        | Some bucket -> bucket := rights.(i) :: !bucket
        | None -> Value.Tbl.add table k (ref [ rights.(i) ]))
    done;
    let lkey = compile_value left_key in
    let keep = Option.map compile_pred residual in
    let left_cur = compile cfg counters (kid 0) left in
    rechunked cfg (fun emit ->
        match left_cur () with
        | None -> false
        | Some ch ->
          Array.iter
            (fun lenv ->
              match lkey lenv with
              | Value.Null -> ()
              | k -> (
                match Value.Tbl.find_opt table k with
                | None -> ()
                | Some bucket ->
                  List.iter
                    (fun renv ->
                      let joined = Alg_env.concat lenv renv in
                      match keep with
                      | None -> emit joined
                      | Some test -> if test joined then emit joined)
                    !bucket))
            ch;
          true)
  | Alg_plan.Sort (input, specs) ->
    let arr = drain_array (compile cfg counters (kid 0) input) in
    cursor_of_array cfg (sort_array specs arr)
  | Alg_plan.Group { input; keys; aggs } ->
    let arr = drain_array (compile cfg counters (kid 0) input) in
    let rows =
      group_rows ~size_hint:(max 16 (Array.length arr / 4)) keys aggs (Array.to_list arr)
    in
    cursor_of_array cfg (Array.of_list rows)
  | Alg_plan.Union (a, b) ->
    let ca = compile cfg counters (kid 0) a in
    let cb = compile cfg counters (kid 1) b in
    let on_b = ref false in
    fun () ->
      if !on_b then cb ()
      else (
        match ca () with
        | Some ch -> Some ch
        | None ->
          on_b := true;
          cb ())
  | Alg_plan.Outer_union (a, b) ->
    (* Materialize both sides to compute the union schema, then pad. *)
    let la = Array.to_list (drain_array (compile cfg counters (kid 0) a)) in
    let lb = Array.to_list (drain_array (compile cfg counters (kid 1) b)) in
    let vars = union_vars (la @ lb) in
    cursor_of_array cfg
      (Array.of_list (List.map (fun env -> Alg_env.project env vars) (la @ lb)))
  | Alg_plan.Navigate { input; var; path; out } ->
    let input_cur = compile cfg counters (kid 0) input in
    rechunked cfg (fun emit ->
        match input_cur () with
        | None -> false
        | Some ch ->
          Array.iter
            (fun env ->
              match Alg_env.get env var with
              | None -> ()
              | Some (Dtree.Atom _) -> ()
              | Some tree ->
                let matches, how = navigate_matches tree path in
                Alg_stats.count_idx ob how;
                List.iter (fun m -> emit (Alg_env.bind env out m)) matches)
            ch;
          true)
  | Alg_plan.Unnest { input; var; label; out } ->
    let input_cur = compile cfg counters (kid 0) input in
    rechunked cfg (fun emit ->
        match input_cur () with
        | None -> false
        | Some ch ->
          Array.iter
            (fun env ->
              match Alg_env.get env var with
              | None -> ()
              | Some tree ->
                let kids =
                  match label with
                  | Some l -> Dtree.kids_named tree l
                  | None -> Dtree.kids tree
                in
                List.iter (fun k -> emit (Alg_env.bind env out k)) kids)
            ch;
          true)
  | Alg_plan.Construct { input; binding; template } ->
    map_chunks
      (fun env -> Alg_env.bind env binding (cfg.template env template))
      (compile cfg counters (kid 0) input)
  | Alg_plan.Limit (input, limit) ->
    let input_cur = compile cfg counters (kid 0) input in
    let remaining = ref limit in
    fun () ->
      if !remaining <= 0 then None
      else (
        match input_cur () with
        | None -> None
        | Some ch ->
          let len = Array.length ch in
          if len <= !remaining then begin
            remaining := !remaining - len;
            Some ch
          end
          else begin
            let take = !remaining in
            remaining := 0;
            Some (Array.sub ch 0 take)
          end)
  | Alg_plan.Nl_join _ | Alg_plan.Merge_join _ | Alg_plan.Dep_join _
  | Alg_plan.Distinct _ -> fallback ()

let run ~chunk ~sources ~fallback ~template (stats : Alg_stats.t) plan =
  let cfg = { chunk_size = max 1 chunk; sources; fallback; template } in
  let counters =
    {
      c_batches = Obs_metrics.counter "batch.batches";
      c_rows = Obs_metrics.counter "batch.rows";
      c_fallbacks = Obs_metrics.counter "batch.fallbacks";
    }
  in
  let cur = compile cfg counters stats.root plan in
  let chunks = ref [] in
  let rec go () =
    match cur () with
    | None -> ()
    | Some ch ->
      chunks := ch :: !chunks;
      go ()
  in
  go ();
  List.concat_map Array.to_list (List.rev !chunks)
