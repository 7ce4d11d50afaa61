exception Eval_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Eval_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Scopes and column resolution                                        *)
(* ------------------------------------------------------------------ *)

type scope = (string * int) list

let find scope n = List.find_map (fun (m, i) -> if String.equal m n then Some i else None) scope

(* A name already bound hides a later one, the rule of [Tuple.concat]. *)
let scope names =
  List.fold_left
    (fun (acc, i) n -> ((if find acc n = None then (n, i) :: acc else acc), i + 1))
    ([], 0) names
  |> fst |> List.rev

let slot scope qualifier name =
  let find = find scope in
  match qualifier with
  | Some q -> (
    match find (q ^ "." ^ name) with
    | Some i -> i
    | None -> (
      (* A bare-named field also answers a qualified reference when it is
         the only candidate (single-table queries need no prefixes). *)
      match find name with
      | Some i -> i
      | None -> fail "unknown column %s.%s" q name))
  | None -> (
    match find name with
    | Some i -> i
    | None -> (
      let suffix = "." ^ name in
      match List.filter (fun (fname, _) -> String.ends_with ~suffix fname) scope with
      | [ (_, i) ] -> i
      | [] -> fail "unknown column %s" name
      | _ :: _ :: _ -> fail "ambiguous column %s" name))

(* ------------------------------------------------------------------ *)
(* Scalar helpers                                                      *)
(* ------------------------------------------------------------------ *)

let like_match ~pattern s =
  let pn = String.length pattern and sn = String.length s in
  (* Classic two-pointer LIKE matcher with backtracking on '%'. *)
  let rec go pi si star_pi star_si =
    if pi < pn && pattern.[pi] = '%' then go (pi + 1) si (pi + 1) si
    else if si < sn && pi < pn && (pattern.[pi] = '_' || pattern.[pi] = s.[si]) then
      go (pi + 1) (si + 1) star_pi star_si
    else if si >= sn then pi >= pn || (pi < pn && pattern.[pi] = '%' && go (pi + 1) si star_pi star_si)
    else if star_pi >= 0 then go star_pi (star_si + 1) star_pi (star_si + 1)
    else false
  in
  go 0 0 (-1) (-1)

let scalar_functions =
  [ "upper"; "lower"; "length"; "abs"; "coalesce"; "substr"; "trim"; "round"; "concat" ]

let apply_function name args =
  match name, args with
  | "upper", [ Value.Null ] | "lower", [ Value.Null ] | "trim", [ Value.Null ] -> Value.Null
  | "upper", [ v ] -> Value.String (String.uppercase_ascii (Value.to_string v))
  | "lower", [ v ] -> Value.String (String.lowercase_ascii (Value.to_string v))
  | "trim", [ v ] -> Value.String (String.trim (Value.to_string v))
  | "length", [ Value.Null ] -> Value.Null
  | "length", [ v ] -> Value.Int (String.length (Value.to_string v))
  | "abs", [ Value.Null ] -> Value.Null
  | "abs", [ Value.Int i ] -> Value.Int (abs i)
  | "abs", [ Value.Float f ] -> Value.Float (Float.abs f)
  | "round", [ Value.Null ] -> Value.Null
  | "round", [ Value.Float f ] -> Value.Int (int_of_float (Float.round f))
  | "round", [ Value.Int i ] -> Value.Int i
  | "coalesce", args ->
    let rec first = function
      | [] -> Value.Null
      | Value.Null :: rest -> first rest
      | v :: _ -> v
    in
    first args
  | "substr", [ v; Value.Int start ] ->
    let s = Value.to_string v in
    let start = max 1 start - 1 in
    if start >= String.length s then Value.String ""
    else Value.String (String.sub s start (String.length s - start))
  | "substr", [ v; Value.Int start; Value.Int count ] ->
    let s = Value.to_string v in
    let start = max 1 start - 1 in
    if start >= String.length s then Value.String ""
    else Value.String (String.sub s start (min count (String.length s - start)))
  | "concat", args ->
    Value.String (String.concat "" (List.map Value.to_string args))
  | name, args -> fail "unknown function %s/%d" name (List.length args)

(* Shared results, so a compiled predicate allocates nothing per row. *)
let v_true = Value.Bool true
let v_false = Value.Bool false
let of_bool b = if b then v_true else v_false

let comparison = function
  | Sql_ast.Eq -> fun c -> c = 0
  | Sql_ast.Neq -> fun c -> c <> 0
  | Sql_ast.Lt -> fun c -> c < 0
  | Sql_ast.Le -> fun c -> c <= 0
  | Sql_ast.Gt -> fun c -> c > 0
  | Sql_ast.Ge -> fun c -> c >= 0
  | Sql_ast.Add | Sql_ast.Sub | Sql_ast.Mul | Sql_ast.Div | Sql_ast.And | Sql_ast.Or ->
    invalid_arg "Sql_eval.comparison"

let arith f a b =
  try f a b
  with Invalid_argument _ ->
    fail "type error in arithmetic on %s and %s" (Value.to_display a) (Value.to_display b)

(* ------------------------------------------------------------------ *)
(* The compiler: the one implementation of expression semantics        *)
(* ------------------------------------------------------------------ *)

type row = Value.t array

let rec compile scope expr : row -> Value.t =
  match expr with
  | Sql_ast.Col (q, n) ->
    let i = slot scope q n in
    fun row -> row.(i)
  | Sql_ast.Lit v -> fun _ -> v
  | Sql_ast.Unop (Sql_ast.Neg, e) -> (
    let f = compile scope e in
    fun row ->
      match f row with
      | Value.Null -> Value.Null
      | v -> (
        try Value.neg v with Invalid_argument _ -> fail "cannot negate %s" (Value.to_display v)))
  | Sql_ast.Unop (Sql_ast.Not, e) -> (
    let f = compile scope e in
    fun row ->
      match f row with
      | Value.Null -> Value.Null
      | v -> of_bool (not (Value.is_truthy v)))
  | Sql_ast.Binop (Sql_ast.And, a, b) -> (
    (* Kleene AND: F dominates. *)
    let fa = compile scope a and fb = compile scope b in
    fun row ->
      match fa row with
      | Value.Bool false -> v_false
      | va -> (
        match fb row with
        | Value.Bool false -> v_false
        | vb -> (
          match va, vb with
          | Value.Null, _ | _, Value.Null -> Value.Null
          | va, vb -> of_bool (Value.is_truthy va && Value.is_truthy vb))))
  | Sql_ast.Binop (Sql_ast.Or, a, b) -> (
    let fa = compile scope a and fb = compile scope b in
    fun row ->
      match fa row with
      | Value.Bool true -> v_true
      | va -> (
        match fb row with
        | Value.Bool true -> v_true
        | vb -> (
          match va, vb with
          | Value.Null, _ | _, Value.Null -> Value.Null
          | va, vb -> of_bool (Value.is_truthy va || Value.is_truthy vb))))
  | Sql_ast.Binop ((Sql_ast.Eq | Sql_ast.Neq | Sql_ast.Lt | Sql_ast.Le | Sql_ast.Gt | Sql_ast.Ge) as op, a, b)
    -> (
    let test = comparison op in
    let fa = compile scope a and fb = compile scope b in
    fun row ->
      match fa row, fb row with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | va, vb -> of_bool (test (Value.compare va vb)))
  | Sql_ast.Binop (((Sql_ast.Add | Sql_ast.Sub | Sql_ast.Mul | Sql_ast.Div) as op), a, b) ->
    let f =
      match op with
      | Sql_ast.Add -> Value.add
      | Sql_ast.Sub -> Value.sub
      | Sql_ast.Mul -> Value.mul
      | _ -> Value.div
    in
    let fa = compile scope a and fb = compile scope b in
    fun row -> arith f (fa row) (fb row)
  | Sql_ast.Fncall (name, args) ->
    let fs = List.map (compile scope) args in
    fun row -> apply_function name (List.map (fun f -> f row) fs)
  | Sql_ast.Like (e, pattern) -> (
    let f = compile scope e in
    fun row ->
      match f row with
      | Value.Null -> Value.Null
      | v -> of_bool (like_match ~pattern (Value.to_string v)))
  | Sql_ast.In_list (e, es) -> (
    let f = compile scope e and fs = List.map (compile scope) es in
    fun row ->
      match f row with
      | Value.Null -> Value.Null
      | v ->
        let vs = List.map (fun f -> f row) fs in
        if List.exists (fun x -> Value.compare_sql v x = Some 0) vs then v_true
        else if List.exists (fun x -> x = Value.Null) vs then Value.Null
        else v_false)
  | Sql_ast.Between (e, lo, hi) -> (
    let f = compile scope e and flo = compile scope lo and fhi = compile scope hi in
    fun row ->
      let v = f row and vlo = flo row and vhi = fhi row in
      match Value.compare_sql v vlo, Value.compare_sql v vhi with
      | Some a, Some b -> of_bool (a >= 0 && b <= 0)
      | _, _ -> Value.Null)
  | Sql_ast.Is_null e -> (
    let f = compile scope e in
    fun row -> match f row with Value.Null -> v_true | _ -> v_false)
  | Sql_ast.Is_not_null e -> (
    let f = compile scope e in
    fun row -> match f row with Value.Null -> v_false | _ -> v_true)

let truthy = function
  | Value.Null -> false
  | v -> Value.is_truthy v

let compile_pred scope expr =
  let f = compile scope expr in
  fun row -> truthy (f row)

(* ------------------------------------------------------------------ *)
(* By-name evaluation over one tuple                                   *)
(* ------------------------------------------------------------------ *)

let eval tup expr =
  compile (scope (Tuple.field_names tup)) expr (Array.of_list (Tuple.values tup))

let eval_pred tup expr = truthy (eval tup expr)
