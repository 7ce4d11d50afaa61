type catalog = {
  table_of : string -> Rel_table.t option;
}

type access =
  | Seq_scan
  | Index_eq of string * Value.t
  | Index_range of string * (Value.t * bool) option * (Value.t * bool) option

type plan =
  | Scan of {
      table : string;
      binding : string;
      access : access;
      filter : Sql_ast.expr option;
      est : float;
    }
  | Nl_join of {
      left : plan;
      right : plan;
      kind : Sql_ast.join_kind;
      cond : Sql_ast.expr option;
      est : float;
    }
  | Hash_join of {
      left : plan;
      right : plan;
      kind : Sql_ast.join_kind;
      left_key : Sql_ast.expr;
      right_key : Sql_ast.expr;
      residual : Sql_ast.expr option;
      est : float;
    }
  | Filter of { input : plan; pred : Sql_ast.expr; est : float }

exception Plan_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Plan_error m)) fmt

let estimated_rows = function
  | Scan { est; _ } | Nl_join { est; _ } | Hash_join { est; _ } | Filter { est; _ } -> est

let rec bindings_of_plan = function
  | Scan { binding; _ } -> [ binding ]
  | Nl_join { left; right; _ } | Hash_join { left; right; _ } ->
    bindings_of_plan left @ bindings_of_plan right
  | Filter { input; _ } -> bindings_of_plan input

(* ------------------------------------------------------------------ *)
(* Selectivity heuristics                                              *)
(* ------------------------------------------------------------------ *)

let rec selectivity = function
  | Sql_ast.Binop (Sql_ast.Eq, _, _) -> 0.05
  | Sql_ast.Binop ((Sql_ast.Lt | Sql_ast.Le | Sql_ast.Gt | Sql_ast.Ge), _, _) -> 0.3
  | Sql_ast.Binop (Sql_ast.Neq, _, _) -> 0.9
  | Sql_ast.Binop (Sql_ast.And, a, b) -> selectivity a *. selectivity b
  | Sql_ast.Binop (Sql_ast.Or, a, b) ->
    min 1.0 (selectivity a +. selectivity b)
  | Sql_ast.Like _ -> 0.25
  | Sql_ast.Between _ -> 0.25
  | Sql_ast.In_list (_, es) -> min 1.0 (0.05 *. float_of_int (List.length es))
  | Sql_ast.Is_null _ -> 0.1
  | Sql_ast.Is_not_null _ -> 0.9
  | Sql_ast.Unop (Sql_ast.Not, e) -> 1.0 -. selectivity e
  | Sql_ast.Lit (Value.Bool true) -> 1.0
  | Sql_ast.Lit (Value.Bool false) -> 0.0
  | _ -> 0.5

(* ------------------------------------------------------------------ *)
(* Alias analysis                                                      *)
(* ------------------------------------------------------------------ *)

type from_entry = {
  fe_table : string;
  fe_alias : string;
  (* ON condition attached to the join that introduced this entry, along
     with its kind; the first entry has none. *)
  fe_join : (Sql_ast.join_kind * Sql_ast.expr) option;
}

let rec flatten_from = function
  | Sql_ast.From_table { table; alias } ->
    [ { fe_table = table; fe_alias = Option.value ~default:table alias; fe_join = None } ]
  | Sql_ast.From_join (lhs, kind, { table; alias }, cond) ->
    flatten_from lhs
    @ [
        {
          fe_table = table;
          fe_alias = Option.value ~default:table alias;
          fe_join = Some (kind, cond);
        };
      ]

(* The set of aliases a predicate mentions.  Unqualified columns are
   attributed by searching the table schemas. *)
let aliases_of_expr entries catalog e =
  let owner_of_column name =
    let owners =
      List.filter
        (fun fe ->
          match catalog.table_of fe.fe_table with
          | Some t -> Dschema.find_column (Rel_table.schema t) name <> None
          | None -> false)
        entries
    in
    List.map (fun fe -> fe.fe_alias) owners
  in
  let cols = Sql_ast.expr_columns e in
  List.concat_map
    (fun (q, n) ->
      match q with
      | Some q -> [ q ]
      | None -> owner_of_column n)
    cols
  |> List.sort_uniq String.compare

(* ------------------------------------------------------------------ *)
(* Access-path selection                                               *)
(* ------------------------------------------------------------------ *)

(* Match a conjunct as [col op literal] over this alias, in either
   orientation.  A NULL literal never matches: the comparison is
   UNKNOWN for every row, which an index probe would not reproduce. *)
let as_column_literal alias table e =
  let owns name = Dschema.find_column (Rel_table.schema table) name <> None in
  let col_of = function
    | Sql_ast.Col (Some q, n) when String.equal q alias && owns n -> Some n
    | Sql_ast.Col (None, n) when owns n -> Some n
    | _ -> None
  in
  match e with
  | Sql_ast.Binop (_, _, Sql_ast.Lit Value.Null) | Sql_ast.Binop (_, Sql_ast.Lit Value.Null, _) -> None
  | Sql_ast.Binop (op, lhs, Sql_ast.Lit v) -> (
    match col_of lhs with
    | Some n -> Some (n, op, v)
    | None -> None)
  | Sql_ast.Binop (op, Sql_ast.Lit v, rhs) -> (
    match col_of rhs with
    | Some n ->
      let flip =
        match op with
        | Sql_ast.Lt -> Sql_ast.Gt
        | Sql_ast.Le -> Sql_ast.Ge
        | Sql_ast.Gt -> Sql_ast.Lt
        | Sql_ast.Ge -> Sql_ast.Le
        | op -> op
      in
      Some (n, flip, v)
    | None -> None)
  | _ -> None

(* Choose the best access path for a table given its single-table
   conjuncts.  Returns (access, used conjuncts, leftover conjuncts). *)
let choose_access table alias conjuncts =
  (* Equality on an indexed column wins. *)
  let classified =
    List.map (fun e -> (e, as_column_literal alias table e)) conjuncts
  in
  let eq_pick =
    List.find_opt
      (fun (_, m) ->
        match m with
        | Some (n, Sql_ast.Eq, _) -> Rel_table.index_served table n `Eq
        | _ -> false)
      classified
  in
  match eq_pick with
  | Some ((used, Some (n, _, v)) : Sql_ast.expr * _) ->
    let rest = List.filter (fun e -> e != used) conjuncts in
    (Index_eq (n, v), rest)
  | _ -> (
    (* Collect range bounds per B+tree-indexed column. *)
    let range_cols =
      List.filter_map
        (fun (e, m) ->
          match m with
          | Some (n, (Sql_ast.Lt | Sql_ast.Le | Sql_ast.Gt | Sql_ast.Ge), _)
            when Rel_table.index_served table n `Range -> Some (e, Option.get m)
          | _ -> None)
        classified
    in
    match range_cols with
    | [] -> (Seq_scan, conjuncts)
    | (_, (first_col, _, _)) :: _ ->
      let on_col = List.filter (fun (_, (n, _, _)) -> String.equal n first_col) range_cols in
      (* One conjunct per side becomes the bound; any further bound on
         the same side stays a filter. *)
      let lo = ref None and hi = ref None and used = ref [] in
      let take bound e v inclusive =
        if !bound = None then begin
          bound := Some (v, inclusive);
          used := e :: !used
        end
      in
      List.iter
        (fun (e, (_, op, v)) ->
          match op with
          | Sql_ast.Gt -> take lo e v false
          | Sql_ast.Ge -> take lo e v true
          | Sql_ast.Lt -> take hi e v false
          | Sql_ast.Le -> take hi e v true
          | _ -> ())
        on_col;
      let rest = List.filter (fun e -> not (List.memq e !used)) conjuncts in
      (Index_range (first_col, !lo, !hi), rest))

let access_est table access =
  let n = float_of_int (Rel_table.row_count table) in
  match access with
  | Seq_scan -> n
  | Index_eq _ -> max 1.0 (n *. 0.01)
  | Index_range _ -> max 1.0 (n *. 0.3)

let scan_plan catalog fe conjuncts =
  match catalog.table_of fe.fe_table with
  | None -> fail "unknown table %s" fe.fe_table
  | Some table ->
    let access, rest = choose_access table fe.fe_alias conjuncts in
    let filter = Sql_ast.conjoin rest in
    let est =
      access_est table access
      *. (match filter with Some f -> selectivity f | None -> 1.0)
    in
    Scan { table = fe.fe_table; binding = fe.fe_alias; access; filter; est = max 1.0 est }

(* ------------------------------------------------------------------ *)
(* Join planning                                                       *)
(* ------------------------------------------------------------------ *)

(* Try to split [cond] into an equi-join key pair between [left_aliases]
   and [right_aliases], plus a residual. *)
let equi_split entries catalog left_aliases right_aliases cond =
  let conjuncts = Sql_ast.conjuncts cond in
  let is_key_pair e =
    match e with
    | Sql_ast.Binop (Sql_ast.Eq, a, b) -> (
      let aa = aliases_of_expr entries catalog a in
      let ab = aliases_of_expr entries catalog b in
      let subset xs ys = List.for_all (fun x -> List.mem x ys) xs in
      if aa <> [] && ab <> [] then
        if subset aa left_aliases && subset ab right_aliases then Some (a, b)
        else if subset aa right_aliases && subset ab left_aliases then Some (b, a)
        else None
      else None)
    | _ -> None
  in
  let rec pick acc = function
    | [] -> None
    | e :: rest -> (
      match is_key_pair e with
      | Some (lk, rk) -> Some (lk, rk, Sql_ast.conjoin (List.rev_append acc rest))
      | None -> pick (e :: acc) rest)
  in
  pick [] conjuncts

(* Predicates left over after planning the joins read the joined rows. *)
let filtered plan = function
  | None -> plan
  | Some pred -> Filter { input = plan; pred; est = max 1.0 (estimated_rows plan *. selectivity pred) }

let join_est left right cond =
  let l = estimated_rows left and r = estimated_rows right in
  let sel = match cond with Some c -> selectivity c | None -> 1.0 in
  max 1.0 (l *. r *. sel)

let make_join entries catalog kind left right cond =
  let la = bindings_of_plan left and ra = bindings_of_plan right in
  match cond with
  | None -> Nl_join { left; right; kind; cond = None; est = join_est left right None }
  | Some c -> (
    match equi_split entries catalog la ra c with
    | Some (lk, rk, residual) ->
      Hash_join
        { left; right; kind; left_key = lk; right_key = rk; residual;
          est = join_est left right (Some c) }
    | None -> Nl_join { left; right; kind; cond = Some c; est = join_est left right (Some c) })

let plan_select catalog (s : Sql_ast.select) =
  match s.Sql_ast.from with
  | None -> None
  | Some from ->
    let entries = flatten_from from in
    let aliases = List.map (fun fe -> fe.fe_alias) entries in
    let dup =
      List.find_opt
        (fun a -> List.length (List.filter (String.equal a) aliases) > 1)
        aliases
    in
    (match dup with
    | Some a -> fail "duplicate table alias %s" a
    | None -> ());
    let has_outer =
      List.exists
        (fun fe -> match fe.fe_join with Some (Sql_ast.Left_outer, _) -> true | _ -> false)
        entries
    in
    let where_conjuncts =
      match s.Sql_ast.where with Some w -> Sql_ast.conjuncts w | None -> []
    in
    if has_outer then begin
      (* Structural planning: joins in syntactic order, WHERE applied on
         top (outer-join null semantics make pushdown unsafe in general;
         we only push single-table conjuncts into the leftmost table). *)
      let first, rest =
        match entries with
        | first :: rest -> (first, rest)
        | [] -> fail "empty FROM"
      in
      let first_conj, remaining =
        List.partition
          (fun e -> aliases_of_expr entries catalog e = [ first.fe_alias ])
          where_conjuncts
      in
      let base = scan_plan catalog first first_conj in
      let joined =
        List.fold_left
          (fun acc fe ->
            let kind, cond =
              match fe.fe_join with
              | Some (k, c) -> (k, Some c)
              | None -> (Sql_ast.Inner, None)
            in
            let right = scan_plan catalog fe [] in
            make_join entries catalog kind acc right cond)
          base rest
      in
      (* WHERE applies to the joined rows: inside a LEFT join's
         condition it would pad the rows it should drop. *)
      Some (filtered joined (Sql_ast.conjoin remaining))
    end
    else begin
      (* Inner joins only: pool all conjuncts (ON + WHERE) and reorder. *)
      let all_conjuncts =
        where_conjuncts
        @ List.concat_map
            (fun fe ->
              match fe.fe_join with
              | Some (_, c) -> Sql_ast.conjuncts c
              | None -> [])
            entries
      in
      (* Single-table conjuncts go into scans.  One naming an unknown
         alias stays pending, so binding reports it. *)
      let single, multi =
        List.partition
          (fun e ->
            match aliases_of_expr entries catalog e with
            | [ a ] -> List.mem a aliases
            | _ -> false)
          all_conjuncts
      in
      let conj_for alias =
        List.filter (fun e -> aliases_of_expr entries catalog e = [ alias ]) single
      in
      let scans =
        List.map (fun fe -> (fe.fe_alias, scan_plan catalog fe (conj_for fe.fe_alias))) entries
      in
      (* Greedy left-deep join: start with the smallest scan; repeatedly
         join in the relation connected by a predicate (preferring the
         smallest result), falling back to the smallest cross product. *)
      let remaining_preds = ref multi in
      let covered aliases e =
        List.for_all (fun a -> List.mem a aliases) (aliases_of_expr entries catalog e)
      in
      let start =
        List.fold_left
          (fun best (_, p) ->
            match best with
            | None -> Some p
            | Some b -> if estimated_rows p < estimated_rows b then Some p else Some b)
          None scans
      in
      let start = match start with Some p -> p | None -> fail "empty FROM" in
      let start_alias = List.hd (bindings_of_plan start) in
      let pending = ref (List.filter (fun (a, _) -> a <> start_alias) scans) in
      let current = ref start in
      while !pending <> [] do
        let cur_aliases = bindings_of_plan !current in
        (* Candidate next relations with an applicable join predicate. *)
        let candidate_cost (alias, p) =
          let aliases' = alias :: cur_aliases in
          let applicable, _ = List.partition (covered aliases') !remaining_preds in
          let connected = applicable <> [] in
          let cond = Sql_ast.conjoin applicable in
          let est = join_est !current p cond in
          (connected, est, alias, p, applicable)
        in
        let cands = List.map candidate_cost !pending in
        let better (c1, e1, _, _, _) (c2, e2, _, _, _) =
          match c1, c2 with
          | true, false -> true
          | false, true -> false
          | _, _ -> e1 < e2
        in
        let best =
          List.fold_left
            (fun acc cand ->
              match acc with
              | None -> Some cand
              | Some b -> if better cand b then Some cand else acc)
            None cands
        in
        let _, _, alias, p, applicable = Option.get best in
        remaining_preds := List.filter (fun e -> not (List.memq e applicable)) !remaining_preds;
        current := make_join entries catalog Sql_ast.Inner !current p (Sql_ast.conjoin applicable);
        pending := List.filter (fun (a, _) -> a <> alias) !pending
      done;
      (* Any predicate still unapplied (a constant, or one naming no
         known alias) filters the joined rows. *)
      Some (filtered !current (Sql_ast.conjoin !remaining_preds))
    end

(* ------------------------------------------------------------------ *)
(* Binding: every column reference to a slot, once per statement       *)
(* ------------------------------------------------------------------ *)

type row = Value.t array

type node =
  | Scan_rows of { table : Rel_table.t; access : access; filter : (row -> bool) option }
  | Join_rows of {
      left : node;
      right : node;
      outer : bool;
      right_width : int;
      keys : ((row -> Value.t) * (row -> Value.t)) option;
      cond : (row -> bool) option;
    }
  | Filter_rows of { input : node; keep : row -> bool }

type item =
  | Value_item of (row -> Value.t)
  | Agg_item of Sql_ast.agg_fn * (row -> Value.t) option

type statement = {
  names : string list;
  header : Tuple.header;
  input : node option;
  input_width : int;
  grouped : bool;
  items : item list;
  group_by : (row -> Value.t) list;
  having : (row -> bool) option;
  order_by : ((row -> Value.t) * bool) list;
  order_by_input : bool;
  distinct : bool;
  limit : int option;
}

let table_exn catalog name =
  match catalog.table_of name with
  | Some t -> t
  | None -> fail "unknown table %s" name

let column_names table =
  List.map (fun c -> c.Dschema.col_name) (Rel_table.schema table).Dschema.columns

(* A plan's rows: each scan's columns as [alias.column], scans in plan
   order, so a join row is its left row followed by its right row. *)
let rec bind_node catalog plan =
  match plan with
  | Scan { table; binding; access; filter; est = _ } ->
    let table = table_exn catalog table in
    let names = List.map (fun c -> binding ^ "." ^ c) (column_names table) in
    let filter = Option.map (fun f -> Sql_eval.compile_pred (Sql_eval.scope names) f) filter in
    (Scan_rows { table; access; filter }, names)
  | Nl_join { left; right; kind; cond; est = _ } -> bind_join catalog left right kind None cond
  | Hash_join { left; right; kind; left_key; right_key; residual; est = _ } ->
    bind_join catalog left right kind (Some (left_key, right_key)) residual
  | Filter { input; pred; est = _ } ->
    let input, names = bind_node catalog input in
    (Filter_rows { input; keep = Sql_eval.compile_pred (Sql_eval.scope names) pred }, names)

and bind_join catalog left right kind keys cond =
  let left, lnames = bind_node catalog left in
  let right, rnames = bind_node catalog right in
  let names = lnames @ rnames in
  let keys =
    Option.map
      (fun (lk, rk) ->
        ( Sql_eval.compile (Sql_eval.scope lnames) lk,
          Sql_eval.compile (Sql_eval.scope rnames) rk ))
      keys
  in
  let cond = Option.map (fun c -> Sql_eval.compile_pred (Sql_eval.scope names) c) cond in
  let outer = match kind with Sql_ast.Left_outer -> true | Sql_ast.Inner -> false in
  (Join_rows { left; right; outer; right_width = List.length rnames; keys; cond }, names)

(* Expand stars into qualified column refs; compute output names. *)
let expand_items catalog (s : Sql_ast.select) =
  let entries = match s.Sql_ast.from with Some f -> flatten_from f | None -> [] in
  let all_cols =
    List.concat_map
      (fun fe -> List.map (fun c -> (fe.fe_alias, c)) (column_names (table_exn catalog fe.fe_table)))
      entries
  in
  let bare_unique n = List.length (List.filter (fun (_, c) -> c = n) all_cols) = 1 in
  let star_item (a, c) =
    let name = if bare_unique c then c else a ^ "." ^ c in
    `Expr (Sql_ast.Col (Some a, c), name)
  in
  let expand = function
    | Sql_ast.Star -> List.map star_item all_cols
    | Sql_ast.Qualified_star q ->
      let cols = List.filter (fun (a, _) -> a = q) all_cols in
      if cols = [] then fail "unknown alias %s.*" q;
      List.map star_item cols
    | Sql_ast.Expr_item (e, alias) ->
      let name =
        match alias, e with
        | Some a, _ -> a
        | None, Sql_ast.Col (_, n) -> n
        | None, e -> Sql_print.expr_to_string e
      in
      [ `Expr (e, name) ]
    | Sql_ast.Agg_item (fn, arg, alias) ->
      let name =
        match alias with
        | Some a -> a
        | None -> (
          match fn, arg with
          | Sql_ast.Count_star, _ -> "count"
          | _, Some e ->
            String.lowercase_ascii (Sql_ast.agg_fn_name fn) ^ "_" ^ Sql_print.expr_to_string e
          | _, None -> String.lowercase_ascii (Sql_ast.agg_fn_name fn))
      in
      [ `Agg (fn, arg, name) ]
  in
  let items = List.concat_map expand s.Sql_ast.items in
  (* Disambiguate duplicate output names: qualified columns fall back to
     their alias-qualified name, anything else gets a numeric suffix. *)
  let name_of = function `Expr (_, n) | `Agg (_, _, n) -> n in
  let counts = Hashtbl.create 8 in
  List.iter
    (fun item ->
      let name = name_of item in
      Hashtbl.replace counts name (1 + Option.value ~default:0 (Hashtbl.find_opt counts name)))
    items;
  let seen = Hashtbl.create 8 in
  List.map
    (fun item ->
      let name = name_of item in
      if Option.value ~default:0 (Hashtbl.find_opt counts name) <= 1 then item
      else begin
        let occurrence = 1 + Option.value ~default:0 (Hashtbl.find_opt seen name) in
        Hashtbl.replace seen name occurrence;
        let fresh =
          match item with
          | `Expr (Sql_ast.Col (Some a, n), _) -> a ^ "." ^ n
          | _ -> Printf.sprintf "%s_%d" name occurrence
        in
        match item with
        | `Expr (e, _) -> `Expr (e, fresh)
        | `Agg (fn, arg, _) -> `Agg (fn, arg, fresh)
      end)
    items

let bind_select catalog (s : Sql_ast.select) =
  let items = expand_items catalog s in
  let names = List.map (function `Expr (_, n) | `Agg (_, _, n) -> n) items in
  let header =
    try Tuple.header names
    with Invalid_argument _ -> fail "duplicate output column in %s" (String.concat ", " names)
  in
  let input, input_names =
    match plan_select catalog s with
    | None -> (None, [])
    | Some plan ->
      let node, names = bind_node catalog plan in
      (Some node, names)
  in
  let value = Sql_eval.compile (Sql_eval.scope input_names) in
  let grouped =
    s.Sql_ast.group_by <> [] || List.exists (function `Agg _ -> true | `Expr _ -> false) items
  in
  let items =
    List.map
      (function
        | `Expr (e, _) -> Value_item (value e)
        | `Agg (fn, arg, _) -> Agg_item (fn, Option.map value arg))
      items
  in
  (* HAVING and ORDER BY try the output names before the input columns:
     HAVING reads the output row followed by the group's first input row;
     an ORDER BY key that does not bind to the output alone reads the
     output row followed by its input row (grouped queries have only the
     output). *)
  let out_and_input = lazy (Sql_eval.scope (names @ input_names)) in
  let having =
    if grouped then Option.map (Sql_eval.compile_pred (Lazy.force out_and_input)) s.Sql_ast.having
    else None
  in
  let out = lazy (Sql_eval.scope names) in
  let order_by_input = ref false in
  let order_by =
    List.map
      (fun { Sql_ast.order_expr; ascending } ->
        let key =
          try Sql_eval.compile (Lazy.force out) order_expr
          with Sql_eval.Eval_error _ when not grouped ->
            order_by_input := true;
            Sql_eval.compile (Lazy.force out_and_input) order_expr
        in
        (key, ascending))
      s.Sql_ast.order_by
  in
  {
    names;
    header;
    input;
    input_width = List.length input_names;
    grouped;
    items;
    group_by = List.map value s.Sql_ast.group_by;
    having;
    order_by;
    order_by_input = !order_by_input;
    distinct = s.Sql_ast.distinct;
    limit = s.Sql_ast.limit;
  }

(* UPDATE and DELETE read a table's stored rows, whose fields are the
   bare column names. *)
let bind_where table = function
  | None -> fun _ -> true
  | Some w -> Sql_eval.compile_pred (Sql_eval.scope (column_names table)) w

let bind_set table assigns =
  let cols = Sql_eval.scope (column_names table) in
  let sets =
    List.map (fun (c, e) -> (Sql_eval.slot cols None c, Sql_eval.compile cols e)) assigns
  in
  fun row ->
    let row' = Array.copy row in
    List.iter (fun (i, f) -> row'.(i) <- f row) sets;
    row'

(* ------------------------------------------------------------------ *)
(* Explain                                                             *)
(* ------------------------------------------------------------------ *)

let access_to_string = function
  | Seq_scan -> "seq"
  | Index_eq (c, v) -> Printf.sprintf "index-eq(%s = %s)" c (Value.to_display v)
  | Index_range (c, lo, hi) ->
    let bound label = function
      | None -> ""
      | Some (v, incl) ->
        Printf.sprintf " %s%s %s" label (if incl then "=" else "") (Value.to_display v)
    in
    Printf.sprintf "index-range(%s%s%s)" c (bound ">" lo) (bound "<" hi)

let explain plan =
  let buf = Buffer.create 256 in
  let rec go indent p =
    let pad = String.make (indent * 2) ' ' in
    match p with
    | Scan { table; binding; access; filter; est } ->
      Buffer.add_string buf
        (Printf.sprintf "%sSCAN %s AS %s [%s]%s (est %.0f)\n" pad table binding
           (access_to_string access)
           (match filter with
           | Some f -> " filter " ^ Sql_print.expr_to_string f
           | None -> "")
           est)
    | Nl_join { left; right; kind; cond; est } ->
      Buffer.add_string buf
        (Printf.sprintf "%sNESTED-LOOP %s%s (est %.0f)\n" pad
           (match kind with Sql_ast.Inner -> "INNER" | Sql_ast.Left_outer -> "LEFT")
           (match cond with
           | Some c -> " on " ^ Sql_print.expr_to_string c
           | None -> "")
           est);
      go (indent + 1) left;
      go (indent + 1) right
    | Hash_join { left; right; kind; left_key; right_key; residual; est } ->
      Buffer.add_string buf
        (Printf.sprintf "%sHASH-JOIN %s %s = %s%s (est %.0f)\n" pad
           (match kind with Sql_ast.Inner -> "INNER" | Sql_ast.Left_outer -> "LEFT")
           (Sql_print.expr_to_string left_key)
           (Sql_print.expr_to_string right_key)
           (match residual with
           | Some r -> " residual " ^ Sql_print.expr_to_string r
           | None -> "")
           est);
      go (indent + 1) left;
      go (indent + 1) right
    | Filter { input; pred; est } ->
      Buffer.add_string buf
        (Printf.sprintf "%sFILTER %s (est %.0f)\n" pad (Sql_print.expr_to_string pred) est);
      go (indent + 1) input
  in
  go 0 plan;
  Buffer.contents buf
