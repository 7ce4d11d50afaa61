(* ------------------------------------------------------------------ *)
(* Plan execution over positional rows                                 *)
(* ------------------------------------------------------------------ *)

let scan table access filter =
  let keep = Option.value filter ~default:(fun _ -> true) in
  match access with
  | Sql_plan.Seq_scan ->
    let out = ref [] in
    Rel_table.iter_rows table (fun row -> if keep row then out := row :: !out);
    List.rev !out
  | Sql_plan.Index_eq (c, v) -> List.filter keep (Rel_table.lookup_eq_rows table c v)
  | Sql_plan.Index_range (c, lo, hi) ->
    List.filter keep (Rel_table.lookup_range_rows table c ?lo ?hi ())

(* Candidate right rows per left row: all of them for a nested loop, the
   key's bucket for a hash join (built on the right, in right order). *)
let candidates rrows = function
  | None -> fun _ -> rrows
  | Some (left_key, right_key) ->
    let index = Value.Tbl.create (max 16 (List.length rrows)) in
    List.iter
      (fun r ->
        match right_key r with
        | Value.Null -> () (* NULL keys never join *)
        | k -> (
          match Value.Tbl.find_opt index k with
          | Some bucket -> bucket := r :: !bucket
          | None -> Value.Tbl.add index k (ref [ r ])))
      (List.rev rrows);
    fun l ->
      match left_key l with
      | Value.Null -> []
      | k -> ( match Value.Tbl.find_opt index k with Some bucket -> !bucket | None -> [])

let rec run = function
  | Sql_plan.Scan_rows { table; access; filter } -> scan table access filter
  | Sql_plan.Join_rows { left; right; outer; right_width; keys; cond } ->
    let lrows = run left in
    let rrows = run right in
    let candidates = candidates rrows keys in
    let nulls = Array.make right_width Value.Null in
    (* Left order is preserved (needed for LEFT OUTER semantics). *)
    List.concat_map
      (fun l ->
        let matches =
          List.filter_map
            (fun r ->
              let joined = Array.append l r in
              match cond with
              | None -> Some joined
              | Some keep -> if keep joined then Some joined else None)
            (candidates l)
        in
        match matches with
        | [] when outer -> [ Array.append l nulls ]
        | matches -> matches)
      lrows
  | Sql_plan.Filter_rows { input; keep } -> List.filter keep (run input)

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

type agg_state = {
  mutable count : int;          (* non-null inputs *)
  mutable count_all : int;      (* all rows *)
  mutable sum : Value.t;
  mutable vmin : Value.t option;
  mutable vmax : Value.t option;
}

let new_agg_state () =
  { count = 0; count_all = 0; sum = Value.Int 0; vmin = None; vmax = None }

let agg_feed st v =
  st.count_all <- st.count_all + 1;
  match v with
  | Value.Null -> ()
  | v ->
    st.count <- st.count + 1;
    (match v with
    | Value.Int _ | Value.Float _ -> st.sum <- Value.add st.sum v
    | _ -> ());
    (match st.vmin with
    | None -> st.vmin <- Some v
    | Some m -> if Value.compare v m < 0 then st.vmin <- Some v);
    match st.vmax with
    | None -> st.vmax <- Some v
    | Some m -> if Value.compare v m > 0 then st.vmax <- Some v

let agg_result fn st =
  match fn with
  | Sql_ast.Count_star -> Value.Int st.count_all
  | Sql_ast.Count -> Value.Int st.count
  | Sql_ast.Sum -> if st.count = 0 then Value.Null else st.sum
  | Sql_ast.Avg ->
    if st.count = 0 then Value.Null
    else begin
      match Value.to_float st.sum with
      | Some total -> Value.Float (total /. float_of_int st.count)
      | None -> Value.Null
    end
  | Sql_ast.Min -> Option.value ~default:Value.Null st.vmin
  | Sql_ast.Max -> Option.value ~default:Value.Null st.vmax

let aggregate fn arg bucket =
  let st = new_agg_state () in
  List.iter
    (fun row ->
      agg_feed st
        (match arg with
        | Some f -> f row
        | None -> Value.Int 1))
    bucket;
  agg_result fn st

(* Rows, group keys and DISTINCT compare under [Value.equal], as [=]
   does: [Int 1] and [Float 1.0] are one key. *)
module Row_tbl = Hashtbl.Make (struct
  type t = Value.t array

  let equal a b = Array.length a = Array.length b && Array.for_all2 Value.equal a b
  let hash row = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 row
end)

let run_grouped (st : Sql_plan.statement) rows =
  (* Group key: evaluated group-by expressions (one group when absent). *)
  let group_by = Array.of_list st.group_by in
  let groups : Sql_plan.row list ref Row_tbl.t = Row_tbl.create 16 in
  let order = ref [] in
  List.iter
    (fun row ->
      let key = Array.map (fun f -> f row) group_by in
      match Row_tbl.find_opt groups key with
      | Some bucket -> bucket := row :: !bucket
      | None ->
        let bucket = ref [ row ] in
        Row_tbl.add groups key bucket;
        order := bucket :: !order)
    rows;
  let buckets = List.rev_map (fun b -> List.rev !b) !order in
  let buckets = if buckets = [] && st.group_by = [] then [ [] ] else buckets in
  List.filter_map
    (fun bucket ->
      (* Plain items are group-by expressions (or constant over the
         group): read them from the group's first row. *)
      let representative =
        match bucket with
        | r :: _ -> r
        | [] -> Array.make st.input_width Value.Null
      in
      let out =
        Array.of_list
          (List.map
             (function
               | Sql_plan.Value_item f -> f representative
               | Sql_plan.Agg_item (fn, arg) -> aggregate fn arg bucket)
             st.items)
      in
      match st.having with
      | Some keep -> if keep (Array.append out representative) then Some (out, representative) else None
      | None -> Some (out, representative))
    buckets

(* ------------------------------------------------------------------ *)
(* Ordering, distinct, limit                                           *)
(* ------------------------------------------------------------------ *)

let order_rows (st : Sql_plan.statement) pairs =
  match st.order_by with
  | [] -> List.map fst pairs
  | specs ->
    let key_of (out, input) =
      let env = if st.order_by_input then Array.append out input else out in
      List.map (fun (f, _) -> f env) specs
    in
    let cmp (ka, _) (kb, _) =
      let rec go ks specs =
        match ks, specs with
        | [], _ | _, [] -> 0
        | (a, b) :: rest, (_, ascending) :: srest ->
          let c = Value.compare a b in
          if c <> 0 then if ascending then c else -c else go rest srest
      in
      go (List.combine ka kb) specs
    in
    List.map (fun ((out, _) as pair) -> (key_of pair, out)) pairs
    |> List.stable_sort cmp |> List.map snd

let distinct_rows rows =
  (* Typed equality: rendered text would merge values of different
     types that print alike. *)
  let seen = Row_tbl.create 64 in
  List.filter
    (fun row ->
      if Row_tbl.mem seen row then false
      else begin
        Row_tbl.add seen row ();
        true
      end)
    rows

let limit_rows n rows =
  match n with
  | None -> rows
  | Some n ->
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: rest -> x :: take (k - 1) rest
    in
    take n rows

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let run_statement (st : Sql_plan.statement) =
  let rows =
    match st.input with
    | None -> [ [||] ]
    | Some node -> run node
  in
  let pairs =
    if st.grouped then run_grouped st rows
    else begin
      let value_of = function
        | Sql_plan.Value_item f -> f
        | Sql_plan.Agg_item _ -> assert false
      in
      let project = Array.of_list (List.map value_of st.items) in
      List.map (fun row -> (Array.map (fun f -> f row) project, row)) rows
    end
  in
  let outs = order_rows st pairs in
  let outs = if st.distinct then distinct_rows outs else outs in
  List.map (Tuple.of_row st.header) (limit_rows st.limit outs)

let run_select catalog s =
  let st = Sql_plan.bind_select catalog s in
  (st.Sql_plan.names, run_statement st)
