type source_fn = string -> string -> Alg_env.t Seq.t

exception Source_unavailable of string
exception Exec_error of string

(* ------------------------------------------------------------------ *)
(* Template instantiation                                              *)
(* ------------------------------------------------------------------ *)

let rec build_template env template =
  match template with
  | Alg_plan.T_value e -> Dtree.atom (Alg_expr.eval env e)
  | Alg_plan.T_tree e -> (
    match Alg_expr.eval_tree env e with
    | Some tree -> tree
    | None -> Dtree.atom Value.Null)
  | Alg_plan.T_splice _ ->
    (* A bare splice outside a node context degrades to its tree. *)
    build_template env (Alg_plan.T_tree (splice_expr template))
  | Alg_plan.T_node (label, attr_exprs, kid_templates) ->
    let attrs = List.map (fun (n, e) -> (n, Alg_expr.eval env e)) attr_exprs in
    let kids =
      List.concat_map
        (fun t ->
          match t with
          | Alg_plan.T_splice e -> (
            match Alg_expr.eval_tree env e with
            | Some tree -> Dtree.kids tree
            | None -> [])
          | t -> [ build_template env t ])
        kid_templates
    in
    Dtree.node ~attrs label kids

and splice_expr = function
  | Alg_plan.T_splice e -> e
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Operator implementations                                            *)
(* ------------------------------------------------------------------ *)

let seq_of_list l = List.to_seq l

(* Pre-size a hash table for an operator whose input is [plan]: the
   cost model's cardinality estimate (clamped to something sane)
   replaces the old fixed create 32/64, so big builds skip the rehash
   cascade.  Sort comparison, outer-union schema and grouping live in
   Alg_batch and are shared with the batch engine so the two cannot
   drift. *)
let table_size plan =
  let est =
    Alg_cost.estimate ~source_rows:(fun _ -> Alg_cost.default_scan_rows) plan
  in
  int_of_float (Float.min 1_048_576.0 (Float.max 16.0 est.Alg_cost.rows))

(* The single interpreter, parameterized by a per-node hook: the plain
   entry points use the identity hook; instrumented execution wraps each
   operator's output sequence to count rows and charge time.  [on_idx]
   reports per-binding Navigate index outcomes so instrumentation can
   attribute probe/guide/miss counts to the operator. *)
let rec run_hooked ?(on_idx = fun _ _ -> ()) hook sources plan : Alg_env.t Seq.t =
  let run sources plan = run_hooked ~on_idx hook sources plan in
  let seq =
    match plan with
    | Alg_plan.Scan { source; binding } -> sources source binding
  | Alg_plan.Const_envs envs -> seq_of_list envs
  | Alg_plan.Select (input, pred) ->
    Seq.filter (fun env -> Alg_expr.eval_pred env pred) (run sources input)
  | Alg_plan.Project (input, vs) ->
    Seq.map (fun env -> Alg_env.project env vs) (run sources input)
  | Alg_plan.Rename (input, mapping) ->
    Seq.map (fun env -> Alg_env.rename env mapping) (run sources input)
  | Alg_plan.Extend (input, var, e) ->
    Seq.map (fun env -> Alg_env.bind_value env var (Alg_expr.eval env e)) (run sources input)
  | Alg_plan.Extend_tree (input, var, e) ->
    Seq.map
      (fun env ->
        match Alg_expr.eval_tree env e with
        | Some tree -> Alg_env.bind env var tree
        | None -> Alg_env.bind env var (Dtree.atom Value.Null))
      (run sources input)
  | Alg_plan.Nl_join { left; right; pred } ->
    let rights = List.of_seq (run sources right) in
    Seq.concat_map
      (fun lenv ->
        seq_of_list
          (List.filter_map
             (fun renv ->
               let joined = Alg_env.concat lenv renv in
               match pred with
               | None -> Some joined
               | Some p -> if Alg_expr.eval_pred joined p then Some joined else None)
             rights))
      (run sources left)
  | Alg_plan.Hash_join { left; right; left_key; right_key; residual } ->
    let table : Alg_env.t Value.Tbl.t = Value.Tbl.create (table_size right) in
    let rights = List.of_seq (run sources right) in
    (* Add in reverse input order: find_all returns most recent first, so
       probes see build rows in their original order. *)
    List.iter
      (fun renv ->
        match Alg_expr.eval renv right_key with
        | Value.Null -> ()
        | k -> Value.Tbl.add table k renv)
      (List.rev rights);
    Seq.concat_map
      (fun lenv ->
        match Alg_expr.eval lenv left_key with
        | Value.Null -> Seq.empty
        | k ->
          seq_of_list
            (Value.Tbl.find_all table k
            |> List.filter_map (fun renv ->
                   let joined = Alg_env.concat lenv renv in
                   match residual with
                   | None -> Some joined
                   | Some p -> if Alg_expr.eval_pred joined p then Some joined else None)))
      (run sources left)
  | Alg_plan.Merge_join { left; right; left_key; right_key } ->
    let keyed key_expr env = (Alg_expr.eval env key_expr, env) in
    let ls =
      List.map (keyed left_key) (List.of_seq (run sources left))
      |> List.stable_sort (fun (a, _) (b, _) -> Value.compare a b)
    in
    let rs =
      List.map (keyed right_key) (List.of_seq (run sources right))
      |> List.stable_sort (fun (a, _) (b, _) -> Value.compare a b)
    in
    let out = ref [] in
    let rec merge ls rs =
      match ls, rs with
      | [], _ | _, [] -> ()
      | (lk, _) :: lrest, _ when lk = Value.Null -> merge lrest rs
      | _, (rk, _) :: rrest when rk = Value.Null -> merge ls rrest
      | (lk, _) :: lrest, (rk, _) :: _ when Value.compare lk rk < 0 -> merge lrest rs
      | (lk, _) :: _, (rk, _) :: rrest when Value.compare lk rk > 0 -> merge ls rrest
      | (lk, _) :: _, _ ->
        (* equal keys: cross the two runs *)
        let lrun, lrest = List.partition (fun (k, _) -> Value.compare k lk = 0) ls in
        let rrun, rrest = List.partition (fun (k, _) -> Value.compare k lk = 0) rs in
        List.iter
          (fun (_, lenv) ->
            List.iter (fun (_, renv) -> out := Alg_env.concat lenv renv :: !out) rrun)
          lrun;
        merge lrest rrest
    in
    merge ls rs;
    seq_of_list (List.rev !out)
  | Alg_plan.Dep_join { left; label = _; expand } ->
    Seq.concat_map
      (fun lenv -> Seq.map (fun renv -> Alg_env.concat lenv renv) (expand lenv))
      (run sources left)
  | Alg_plan.Sort (input, specs) ->
    let envs = List.of_seq (run sources input) in
    seq_of_list (Alg_batch.sort_list specs envs)
  | Alg_plan.Distinct input ->
    let seen : (int, Alg_env.t) Hashtbl.t = Hashtbl.create (table_size input) in
    Seq.filter
      (fun env ->
        let key = Alg_env.hash env in
        if List.exists (Alg_env.equal env) (Hashtbl.find_all seen key) then false
        else begin
          Hashtbl.add seen key env;
          true
        end)
      (run sources input)
  | Alg_plan.Group { input; keys; aggs } ->
    let envs = List.of_seq (run sources input) in
    seq_of_list (Alg_batch.group_rows ~size_hint:(table_size input) keys aggs envs)
  | Alg_plan.Union (a, b) -> Seq.append (run sources a) (run sources b)
  | Alg_plan.Outer_union (a, b) ->
    (* Materialize both sides to compute the union schema, then pad. *)
    let la = List.of_seq (run sources a) in
    let lb = List.of_seq (run sources b) in
    let vars = Alg_batch.union_vars (la @ lb) in
    seq_of_list (List.map (fun env -> Alg_env.project env vars) (la @ lb))
  | Alg_plan.Navigate { input; var; path; out } ->
    Seq.concat_map
      (fun env ->
        match Alg_env.get env var with
        | None -> Seq.empty
        | Some (Dtree.Atom _) -> Seq.empty
        | Some tree ->
          let matches, how = Alg_batch.navigate_matches tree path in
          on_idx plan how;
          seq_of_list (List.map (fun m -> Alg_env.bind env out m) matches))
      (run sources input)
  | Alg_plan.Unnest { input; var; label; out } ->
    Seq.concat_map
      (fun env ->
        match Alg_env.get env var with
        | None -> Seq.empty
        | Some tree ->
          let kids =
            match label with
            | Some l -> Dtree.kids_named tree l
            | None -> Dtree.kids tree
          in
          seq_of_list (List.map (fun k -> Alg_env.bind env out k) kids))
      (run sources input)
  | Alg_plan.Construct { input; binding; template } ->
    Seq.map
      (fun env -> Alg_env.bind env binding (build_template env template))
      (run sources input)
  | Alg_plan.Limit (input, n) -> Seq.take n (run sources input)
  in
  hook plan seq

let no_hook _ seq = seq

let run sources plan = run_hooked no_hook sources plan

let run_list sources plan = List.of_seq (run sources plan)

(* Wrap a source function so unavailable sources contribute no rows and
   are recorded instead of failing (section 3.4).  Scans are forced
   eagerly so unavailability surfaces here, in both engines. *)
let partial_guard skipped sources source binding =
  try seq_of_list (List.of_seq (sources source binding))
  with Source_unavailable name ->
    if not (List.mem name !skipped) then skipped := name :: !skipped;
    Seq.empty

(* Scan resolution against a prefetched buffer: scatter-gather fetches
   every access up front, and scans then pull from the buffer instead of
   the wire.  Buffered failures re-raise here — at pull time — so
   strict/partial semantics (and skipped-source recording) are exactly
   those of sequential execution. *)
let buffered lookup fallback : source_fn =
 fun access_id binding ->
  match lookup access_id with
  | Some (Ok envs) -> seq_of_list envs
  | Some (Error e) -> raise e
  | None -> fallback access_id binding

(* ------------------------------------------------------------------ *)
(* The engine entry point                                              *)
(* ------------------------------------------------------------------ *)

(* Tuple-engine instrumentation: wrap a sequence so every pull charges
   inclusive wall time to [op] and every element bumps its row count. *)
let counted (op : Alg_stats.op) seq =
  let rec aux s () =
    op.op_pulled <- true;
    let t0 = Obs_clock.wall_ms () in
    let node = s () in
    op.op_ms <- op.op_ms +. (Obs_clock.wall_ms () -. t0);
    match node with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (x, rest) ->
      op.op_rows <- op.op_rows + 1;
      Seq.Cons (x, aux rest)
  in
  aux seq

let exec ?stats ?cost_rows ~partial mode sources plan =
  let skipped = ref [] in
  let sources = if partial then partial_guard skipped sources else sources in
  (* Batch and parallel runs always fill a tree; the caller's sink, if
     any, or a private one. *)
  let tree () = match stats with Some st -> st | None -> Alg_stats.create plan in
  Option.iter (fun st -> st.Alg_stats.engine <- mode) stats;
  let fallback p = run sources p in
  let envs =
    match mode with
    | Alg_batch.Tuple -> (
      match stats with
      | None -> run_list sources plan
      | Some st ->
        let hook p seq =
          match Alg_stats.find st p with
          | Some op -> counted op seq
          | None -> seq
        in
        let on_idx p how =
          Option.iter (fun op -> Alg_stats.count_idx op how) (Alg_stats.find st p)
        in
        List.of_seq (run_hooked ~on_idx hook sources plan))
    | Alg_batch.Batch { chunk } ->
      Alg_batch.run ~chunk ~sources ~fallback ~template:build_template (tree ()) plan
    | Alg_batch.Parallel { domains; chunk } ->
      Alg_par.run ~domains ~chunk ?cost_rows ~sources ~fallback ~template:build_template
        (tree ()) plan
  in
  (match stats with
  | Some st when Obs_trace.enabled () -> Obs_trace.emit (Alg_stats.span st)
  | Some _ | None -> ());
  (envs, List.rev !skipped)
