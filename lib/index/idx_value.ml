(* Immutable after [build]/[build_numeric]; probes are lock-free. *)

type kind =
  | Text
  | Attr of string
  | Child of string
  | Num of Xml_path.range_on

let kind_to_string = function
  | Text -> "text()"
  | Attr a -> "@" ^ a
  | Child c -> c
  | Num (Xml_path.On_child c) -> "num:" ^ c
  | Num (Xml_path.On_attr a) -> "num:@" ^ a

type cmp = {
  eq : (string, int list) Hashtbl.t;   (* canonical key -> ascending ids *)
  num : (float * int) array;           (* float-parseable, by (value, id) *)
  str_other : (string * int) array;    (* the rest, by (value, id) *)
  str_all : (string * int) array;      (* everything, by raw string *)
}

type numeric = {
  keys : float array;    (* each numeric atom as a float, by Float.compare *)
  key_ids : int array;   (* the id carrying keys.(i) *)
  others : int array;    (* ascending ids with a non-numeric value *)
}

type body =
  | Cmp of cmp
  | Numeric of numeric

type t = {
  body : body;
  n_entries : int;
  bytes : int;
}

(* [Xml_path.compare_values] uses [Float.compare], under which -0. = 0.
   and nan = nan, so the equality key canonicalizes both before taking
   the bit pattern. *)
let float_key f =
  let f = if f = 0.0 then 0.0 else if Float.is_nan f then Float.nan else f in
  "N:" ^ Int64.to_string (Int64.bits_of_float f)

let canonical_key raw =
  match float_of_string_opt raw with
  | Some f -> float_key f
  | None -> "S:" ^ raw

let build entries =
  let eq = Hashtbl.create (max 16 (List.length entries)) in
  let num = ref [] and str_other = ref [] in
  List.iter
    (fun (raw, id) ->
      let key = canonical_key raw in
      Hashtbl.replace eq key
        (id :: (Option.value ~default:[] (Hashtbl.find_opt eq key)));
      match float_of_string_opt raw with
      | Some f -> num := (f, id) :: !num
      | None -> str_other := (raw, id) :: !str_other)
    entries;
  Hashtbl.iter (fun k ids -> Hashtbl.replace eq k (List.sort_uniq Int.compare ids)) eq;
  let by_float (a, i) (b, j) =
    let c = Float.compare a b in
    if c <> 0 then c else Int.compare i j
  in
  let by_string (a, i) (b, j) =
    let c = String.compare a b in
    if c <> 0 then c else Int.compare i j
  in
  let num = Array.of_list (List.sort by_float !num) in
  let str_other = Array.of_list (List.sort by_string !str_other) in
  let str_all = Array.of_list (List.sort by_string entries) in
  let bytes =
    List.fold_left (fun a (raw, _) -> a + String.length raw + 24) 0 entries * 3
    + (Array.length num * 16)
  in
  { body = Cmp { eq; num; str_other; str_all }; n_entries = List.length entries; bytes }

let build_numeric entries =
  let nums =
    List.filter_map
      (fun (v, id) -> Option.map (fun n -> (Xml_num.to_float n, id)) v)
      entries
  in
  let nums =
    Array.of_list
      (List.sort
         (fun (a, i) (b, j) ->
           let c = Float.compare a b in
           if c <> 0 then c else Int.compare i j)
         nums)
  in
  let others =
    Array.of_list
      (List.sort_uniq Int.compare
         (List.filter_map (fun (v, id) -> if v = None then Some id else None) entries))
  in
  let n = Array.length nums in
  {
    body = Numeric { keys = Array.map fst nums; key_ids = Array.map snd nums; others };
    n_entries = List.length entries;
    bytes = (n * 16) + (Array.length others * 8) + 64;
  }

let bytes t = t.bytes
let entries t = t.n_entries

(* First index in [0, len) where [pred i] holds; [pred] is monotone. *)
let search len pred =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if pred mid then hi := mid else lo := mid + 1
  done;
  !lo

(* First index where [pred] holds on a sorted array's entries. *)
let bound pred arr = search (Array.length arr) (fun i -> pred arr.(i))

let ids_in arr i0 i1 =
  let out = ref [] in
  for i = i1 - 1 downto i0 do
    out := snd arr.(i) :: !out
  done;
  !out

(* Entries satisfying [cmp entry_value rhs <op> 0] in a sorted array. *)
let scan_range op cmp arr =
  let len = Array.length arr in
  match op with
  | Xml_path.Lt -> ids_in arr 0 (bound (fun (v, _) -> cmp v >= 0) arr)
  | Xml_path.Le -> ids_in arr 0 (bound (fun (v, _) -> cmp v > 0) arr)
  | Xml_path.Gt -> ids_in arr (bound (fun (v, _) -> cmp v > 0) arr) len
  | Xml_path.Ge -> ids_in arr (bound (fun (v, _) -> cmp v >= 0) arr) len
  | Xml_path.Eq | Xml_path.Neq -> invalid_arg "Idx_value.scan_range"

let probe t op rhs =
  match t.body, op with
  | Numeric _, _ | Cmp _, Xml_path.Neq -> None
  | Cmp c, Xml_path.Eq ->
    let key =
      match float_of_string_opt rhs with
      | Some f -> float_key f
      | None -> "S:" ^ rhs
    in
    Some (Option.value ~default:[] (Hashtbl.find_opt c.eq key))
  | Cmp c, (Xml_path.Lt | Xml_path.Le | Xml_path.Gt | Xml_path.Ge) ->
    let ids =
      match float_of_string_opt rhs with
      | Some rf ->
        (* Numeric lhs compare as floats; non-numeric lhs fall back to
           a string comparison against the raw rhs — both sides of
           [compare_values]. *)
        scan_range op (fun v -> Float.compare v rf) c.num
        @ scan_range op (fun v -> String.compare v rhs) c.str_other
      | None -> scan_range op (fun v -> String.compare v rhs) c.str_all
    in
    Some (List.sort_uniq Int.compare ids)

(* A float key is in the slice iff its value passes the bound as a
   float.  That is exact unless both sides are ints the float rounds
   together (beyond 2^53); those bounds slice inclusively, which float
   rounding keeps a superset, and the caller's exact re-check decides. *)
let exact_as_float = function
  | Xml_num.Float _ -> true
  | Xml_num.Int i -> i > -(1 lsl 53) && i < 1 lsl 53

let slice n lo hi =
  let keys = n.keys in
  let len = Array.length keys in
  let i0 =
    match lo with
    | None -> 0
    | Some (b : Xml_path.bound) ->
      let f = Xml_num.to_float b.value in
      if b.strict && exact_as_float b.value then
        search len (fun i -> Float.compare keys.(i) f > 0)
      else search len (fun i -> Float.compare keys.(i) f >= 0)
  in
  let i1 =
    match hi with
    | None -> len
    | Some (b : Xml_path.bound) ->
      let f = Xml_num.to_float b.value in
      if b.strict && exact_as_float b.value then
        search len (fun i -> Float.compare keys.(i) f >= 0)
      else search len (fun i -> Float.compare keys.(i) f > 0)
  in
  (i0, max i0 i1)

let numeric t =
  match t.body with
  | Numeric n -> n
  | Cmp _ -> invalid_arg "Idx_value: not a numeric index"

let range_ids t ~within:(id_lo, id_hi) lo hi =
  let n = numeric t in
  let i0, i1 = slice n lo hi in
  let inside id = id >= id_lo && id < id_hi in
  let hits = Array.make (i1 - i0) 0 and k = ref 0 in
  for i = i0 to i1 - 1 do
    let id = n.key_ids.(i) in
    if inside id then begin
      hits.(!k) <- id;
      incr k
    end
  done;
  let hits = Array.sub hits 0 !k in
  Array.sort Int.compare hits;
  (* Merge the sorted slice with the always-passing side list,
     dropping the duplicates repeated children leave. *)
  let out = Array.make (Array.length hits + Array.length n.others) 0 in
  let m = ref 0 in
  let push id =
    if !m = 0 || out.(!m - 1) <> id then begin
      out.(!m) <- id;
      incr m
    end
  in
  let i = ref 0 in
  Array.iter
    (fun o ->
      if inside o then begin
        while !i < Array.length hits && hits.(!i) < o do
          push hits.(!i);
          incr i
        done;
        push o
      end)
    n.others;
  while !i < Array.length hits do
    push hits.(!i);
    incr i
  done;
  Array.sub out 0 !m

let range_count t lo hi =
  let n = numeric t in
  let i0, i1 = slice n lo hi in
  i1 - i0 + Array.length n.others
