(* One side of a derived interval: the literal as a path number, with
   ints the float comparison could round against (2^53 and beyond)
   widened to an inclusive float bound — see the .mli. *)
let bound_of strict = function
  | Value.Int i when i > -(1 lsl 53) && i < 1 lsl 53 ->
    Some { Xml_path.value = Xml_num.Int i; strict }
  | Value.Int i -> Some { Xml_path.value = Xml_num.Float (float_of_int i); strict = false }
  | Value.Float f -> Some { Xml_path.value = Xml_num.Float f; strict }
  | Value.Null | Value.Bool _ | Value.String _ | Value.Date _ -> None

(* [(var, side, bound)] for each side a conjunct [$v op literal] (either
   way round) bounds; [=] bounds both. *)
let rec comparisons (e : Alg_expr.t) =
  let sides op v lit =
    let side s strict = Option.to_list (Option.map (fun b -> (v, s, b)) (bound_of strict lit)) in
    match op with
    | Alg_expr.Eq -> side `Lo false @ side `Hi false
    | Alg_expr.Lt -> side `Hi true
    | Alg_expr.Le -> side `Hi false
    | Alg_expr.Gt -> side `Lo true
    | Alg_expr.Ge -> side `Lo false
    | _ -> []
  in
  let flip = function
    | Alg_expr.Lt -> Alg_expr.Gt
    | Alg_expr.Le -> Alg_expr.Ge
    | Alg_expr.Gt -> Alg_expr.Lt
    | Alg_expr.Ge -> Alg_expr.Le
    | op -> op
  in
  (* A negative literal parses as [Neg (Const n)]. *)
  let literal = function
    | Alg_expr.Const v -> Some v
    | Alg_expr.Neg (Alg_expr.Const ((Value.Int _ | Value.Float _) as v)) -> Some (Value.neg v)
    | _ -> None
  in
  match e with
  | Alg_expr.Binop (Alg_expr.And, a, b) -> comparisons a @ comparisons b
  | Alg_expr.Binop (op, Alg_expr.Var v, rhs) -> (
    match literal rhs with Some lit -> sides op v lit | None -> [])
  | Alg_expr.Binop (op, lhs, Alg_expr.Var v) -> (
    match literal lhs with Some lit -> sides (flip op) v lit | None -> [])
  | _ -> []

(* The tighter of two bounds on one side; any one of the conjuncts is
   implied by all of them, so the choice only affects selectivity. *)
let tighter side (a : Xml_path.bound) (b : Xml_path.bound) =
  let c = Xml_num.compare a.Xml_path.value b.Xml_path.value in
  let c = match side with `Lo -> c | `Hi -> -c in
  if c > 0 || (c = 0 && a.Xml_path.strict) then a else b

let range_for conds var on =
  let pick side =
    List.fold_left
      (fun acc (v, s, b) ->
        if String.equal v var && s = side then
          Some (match acc with None -> b | Some a -> tighter side a b)
        else acc)
      None conds
  in
  match pick `Lo, pick `Hi with
  | None, None -> None
  | lo, hi -> Some (Xml_path.Num_range (on, lo, hi))

let compile_pattern (p : Xq_ast.pattern) conditions =
  if p.Xq_ast.tag = "*" then None
  else begin
    let conds = List.concat_map comparisons conditions in
    let attr_preds =
      List.map
        (fun (aname, ap) ->
          match ap with
          | Xq_ast.A_lit s -> Xml_path.Attr_cmp (aname, Xml_path.Eq, s)
          | Xq_ast.A_var v ->
            Option.value ~default:(Xml_path.Has_attr aname)
              (range_for conds v (Xml_path.On_attr aname)))
        p.Xq_ast.attrs
    in
    let child_preds =
      List.filter_map
        (fun child ->
          match child with
          | Xq_ast.P_element sub when sub.Xq_ast.tag <> "*" -> (
            match sub.Xq_ast.children with
            | [ Xq_ast.P_text s ] ->
              Some (Xml_path.Child_cmp (sub.Xq_ast.tag, Xml_path.Eq, s))
            | [ Xq_ast.P_var v ] -> (
              match range_for conds v (Xml_path.On_child sub.Xq_ast.tag) with
              | Some range -> Some range
              | None -> Some (Xml_path.Child_exists sub.Xq_ast.tag))
            | _ -> Some (Xml_path.Child_exists sub.Xq_ast.tag))
          (* Content bindings and top-level text matches derive no safe
             predicate (whitespace handling differs between the XML and
             tree views), so they stay client-side. *)
          | Xq_ast.P_element _ | Xq_ast.P_var _ | Xq_ast.P_text _ -> None)
        p.Xq_ast.children
    in
    Some
      {
        Xml_path.absolute = true;
        steps =
          [
            {
              Xml_path.axis = Xml_path.Descendant_or_self;
              test = Xml_path.Name p.Xq_ast.tag;
              preds = attr_preds @ child_preds;
            };
          ];
      }
  end
