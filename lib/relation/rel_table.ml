type index_kind = Btree_index | Hash_index

type index_impl =
  | Ibtree of (Value.t, int) Rel_btree.t
  | Ihash of int list Value.Tbl.t

type index = {
  idx_column : string;
  idx_pos : int;
  impl : index_impl;
}

type t = {
  tbl_schema : Dschema.relational;
  tbl_primary_key : string option;
  tbl_header : Tuple.header;
  pk_pos : int;  (* -1 when none *)
  mutable slots : Value.t array option array;
  mutable next_slot : int;
  mutable live : int;
  mutable indexes : index list;
}

exception Constraint_violation of string

let column_pos schema cname =
  let rec go i = function
    | [] -> -1
    | c :: rest -> if String.equal c.Dschema.col_name cname then i else go (i + 1) rest
  in
  go 0 schema.Dschema.columns

let create ?primary_key schema =
  let pk_pos =
    match primary_key with
    | None -> -1
    | Some k ->
      let p = column_pos schema k in
      if p < 0 then
        invalid_arg (Printf.sprintf "Rel_table.create: primary key %S is not a column" k);
      p
  in
  {
    tbl_schema = schema;
    tbl_primary_key = primary_key;
    tbl_header = Tuple.header (List.map (fun c -> c.Dschema.col_name) schema.Dschema.columns);
    pk_pos;
    slots = Array.make 16 None;
    next_slot = 0;
    live = 0;
    indexes = [];
  }

let schema t = t.tbl_schema
let name t = t.tbl_schema.Dschema.rel_name
let row_count t = t.live
let primary_key t = t.tbl_primary_key

let row_to_tuple t row = Tuple.of_row t.tbl_header row

let tuple_to_row t tup =
  match Dschema.coerce_tuple t.tbl_schema tup with
  | None ->
    raise
      (Constraint_violation
         (Printf.sprintf "row %s does not conform to schema %s" (Tuple.to_string tup)
            (Dschema.relational_to_string t.tbl_schema)))
  | Some coerced -> Array.of_list (Tuple.values coerced)

let grow t =
  if t.next_slot >= Array.length t.slots then begin
    let bigger = Array.make (max 16 (2 * Array.length t.slots)) None in
    Array.blit t.slots 0 bigger 0 (Array.length t.slots);
    t.slots <- bigger
  end

let index_add idx v rowid =
  match idx.impl with
  | Ibtree bt -> Rel_btree.insert bt v rowid
  | Ihash h ->
    let existing = Option.value ~default:[] (Value.Tbl.find_opt h v) in
    Value.Tbl.replace h v (rowid :: existing)

let index_remove idx v rowid =
  match idx.impl with
  | Ibtree bt -> ignore (Rel_btree.remove bt v rowid)
  | Ihash h -> (
    match Value.Tbl.find_opt h v with
    | None -> ()
    | Some ids -> (
      match List.filter (fun id -> id <> rowid) ids with
      | [] -> Value.Tbl.remove h v
      | ids' -> Value.Tbl.replace h v ids'))

let pk_conflict t row =
  t.pk_pos >= 0
  &&
  let key = row.(t.pk_pos) in
  let found = ref false in
  (* Use a PK index when available, else scan. *)
  let via_index =
    List.find_opt (fun idx -> idx.idx_pos = t.pk_pos) t.indexes
  in
  (match via_index with
  | Some idx -> (
    match idx.impl with
    | Ibtree bt -> found := Rel_btree.find_all bt key <> []
    | Ihash h -> found := Value.Tbl.mem h key)
  | None ->
    for i = 0 to t.next_slot - 1 do
      match t.slots.(i) with
      | Some r when Value.equal r.(t.pk_pos) key -> found := true
      | Some _ | None -> ()
    done);
  !found

let insert_row t row =
  if Array.length row <> List.length t.tbl_schema.Dschema.columns then
    raise (Constraint_violation "arity mismatch");
  if pk_conflict t row then
    raise
      (Constraint_violation
         (Printf.sprintf "duplicate primary key %s in table %s"
            (Value.to_display row.(t.pk_pos))
            (name t)));
  grow t;
  let id = t.next_slot in
  t.slots.(id) <- Some row;
  t.next_slot <- id + 1;
  t.live <- t.live + 1;
  List.iter (fun idx -> index_add idx row.(idx.idx_pos) id) t.indexes;
  id

let insert t tup = insert_row t (tuple_to_row t tup)

let insert_values t values =
  let cols = t.tbl_schema.Dschema.columns in
  if List.length values <> List.length cols then
    raise (Constraint_violation "INSERT arity mismatch");
  let tup = Tuple.make (List.map2 (fun c v -> (c.Dschema.col_name, v)) cols values) in
  insert t tup

let iter_rows t f =
  for i = 0 to t.next_slot - 1 do
    match t.slots.(i) with
    | Some row -> f row
    | None -> ()
  done

let scan t f =
  for i = 0 to t.next_slot - 1 do
    match t.slots.(i) with
    | Some row -> f i (row_to_tuple t row)
    | None -> ()
  done

let to_list t =
  let out = ref [] in
  iter_rows t (fun row -> out := row_to_tuple t row :: !out);
  List.rev !out

let delete_slot t id =
  match t.slots.(id) with
  | None -> ()
  | Some row ->
    List.iter (fun idx -> index_remove idx row.(idx.idx_pos) id) t.indexes;
    t.slots.(id) <- None;
    t.live <- t.live - 1

let delete_rows t pred =
  let deleted = ref 0 in
  for i = 0 to t.next_slot - 1 do
    match t.slots.(i) with
    | Some row when pred row ->
      delete_slot t i;
      incr deleted
    | Some _ | None -> ()
  done;
  !deleted

let delete_where t pred = delete_rows t (fun row -> pred (row_to_tuple t row))

(* Stored rows are shared with readers (scans hand them out), so an
   update installs a fresh array and never writes into the old one. *)
let update_slots t pred new_row =
  let updated = ref 0 in
  for i = 0 to t.next_slot - 1 do
    match t.slots.(i) with
    | Some row when pred row ->
      let new_row = new_row row in
      List.iter
        (fun idx ->
          if not (Value.equal row.(idx.idx_pos) new_row.(idx.idx_pos)) then begin
            index_remove idx row.(idx.idx_pos) i;
            index_add idx new_row.(idx.idx_pos) i
          end)
        t.indexes;
      t.slots.(i) <- Some new_row;
      incr updated
    | Some _ | None -> ()
  done;
  !updated

let update_rows t pred f = update_slots t pred (fun row -> tuple_to_row t (row_to_tuple t (f row)))

let update_where t pred f =
  update_slots t
    (fun row -> pred (row_to_tuple t row))
    (fun row -> tuple_to_row t (f (row_to_tuple t row)))

let clear t =
  t.slots <- Array.make 16 None;
  t.next_slot <- 0;
  t.live <- 0;
  List.iter
    (fun idx ->
      match idx.impl with
      | Ibtree _ -> ()
      | Ihash h -> Value.Tbl.reset h)
    t.indexes;
  (* Rebuild btree indexes from scratch (they have no clear). *)
  t.indexes <-
    List.map
      (fun idx ->
        match idx.impl with
        | Ibtree _ ->
          { idx with impl = Ibtree (Rel_btree.create ~cmp:Value.compare ()) }
        | Ihash _ -> idx)
      t.indexes

let create_index t ~kind cname =
  let pos = column_pos t.tbl_schema cname in
  if pos < 0 then invalid_arg (Printf.sprintf "create_index: unknown column %S" cname);
  if List.exists (fun idx -> String.equal idx.idx_column cname) t.indexes then
    invalid_arg (Printf.sprintf "create_index: column %S already indexed" cname);
  let impl =
    match kind with
    | Btree_index -> Ibtree (Rel_btree.create ~cmp:Value.compare ())
    | Hash_index -> Ihash (Value.Tbl.create 64)
  in
  let idx = { idx_column = cname; idx_pos = pos; impl } in
  (* Backfill. *)
  for i = 0 to t.next_slot - 1 do
    match t.slots.(i) with
    | Some row -> index_add idx row.(pos) i
    | None -> ()
  done;
  t.indexes <- idx :: t.indexes

let find_index t cname =
  List.find_opt (fun idx -> String.equal idx.idx_column cname) t.indexes

let has_index t cname =
  Option.map
    (fun idx -> match idx.impl with Ibtree _ -> Btree_index | Ihash _ -> Hash_index)
    (find_index t cname)

let rows_of_ids t ids =
  List.filter_map (fun id -> if id < 0 || id >= t.next_slot then None else t.slots.(id)) ids

let scan_column t cname keep =
  let pos = column_pos t.tbl_schema cname in
  let out = ref [] in
  if pos >= 0 then iter_rows t (fun row -> if keep row.(pos) then out := row :: !out);
  List.rev !out

let lookup_eq_rows t cname v =
  match find_index t cname with
  | Some { impl = Ibtree bt; _ } -> rows_of_ids t (Rel_btree.find_all bt v)
  | Some { impl = Ihash h; _ } ->
    rows_of_ids t (List.rev (Option.value ~default:[] (Value.Tbl.find_opt h v)))
  | None -> scan_column t cname (Value.equal v)

let lookup_range_rows t cname ?lo ?hi () =
  match find_index t cname with
  | Some { impl = Ibtree bt; _ } ->
    (* NULL sorts below every key: an exclusive NULL lower bound keeps
       NULL keys out, as the scan below does. *)
    let lo =
      match lo with
      | None | Some (Value.Null, _) -> Some (Value.Null, false)
      | Some _ -> lo
    in
    rows_of_ids t (List.map snd (Rel_btree.range bt ?lo ?hi ()))
  | Some { impl = Ihash _; _ } | None ->
    let in_bounds v =
      (match lo with
      | None -> true
      | Some (b, inclusive) ->
        let c = Value.compare v b in
        if inclusive then c >= 0 else c > 0)
      &&
      match hi with
      | None -> true
      | Some (b, inclusive) ->
        let c = Value.compare v b in
        if inclusive then c <= 0 else c < 0
    in
    scan_column t cname (fun v -> v <> Value.Null && in_bounds v)

let lookup_eq t cname v = List.map (row_to_tuple t) (lookup_eq_rows t cname v)

let lookup_range t cname ?lo ?hi () =
  List.map (row_to_tuple t) (lookup_range_rows t cname ?lo ?hi ())

let index_served t cname mode =
  match find_index t cname, mode with
  | Some _, `Eq -> true
  | Some { impl = Ibtree _; _ }, `Range -> true
  | Some { impl = Ihash _; _ }, `Range -> false
  | None, (`Eq | `Range) -> false
