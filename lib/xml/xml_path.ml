type axis =
  | Child
  | Descendant
  | Descendant_or_self
  | Parent
  | Ancestor
  | Self
  | Following_sibling
  | Preceding_sibling

type test =
  | Name of string
  | Any_element
  | Text_node
  | Attribute of string

type cmp_op = Eq | Neq | Lt | Le | Gt | Ge

type range_on =
  | On_child of string
  | On_attr of string

type bound = {
  value : Xml_num.t;
  strict : bool;
}

type pred =
  | Has_attr of string
  | Attr_cmp of string * cmp_op * string
  | Child_exists of string
  | Child_cmp of string * cmp_op * string
  | Text_cmp of cmp_op * string
  | Position of int
  | Num_range of range_on * bound option * bound option

type step = {
  axis : axis;
  test : test;
  preds : pred list;
}

type t = {
  absolute : bool;
  steps : step list;
}

exception Syntax_error of string

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type pstate = {
  input : string;
  len : int;
  mutable pos : int;
}

let pfail msg = raise (Syntax_error msg)

let peek st = if st.pos >= st.len then '\000' else st.input.[st.pos]
let advance st = st.pos <- st.pos + 1

let looking_at st s =
  let n = String.length s in
  st.pos + n <= st.len && String.sub st.input st.pos n = s

let eat st s =
  if looking_at st s then st.pos <- st.pos + String.length s
  else pfail (Printf.sprintf "expected %S at offset %d" s st.pos)

let skip_ws st =
  while peek st = ' ' || peek st = '\t' do
    advance st
  done

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = ':' || c = '.'

let read_name st =
  let start = st.pos in
  let continue = ref true in
  while !continue && st.pos < st.len && is_name_char (peek st) do
    (* A single ':' may appear in namespaced tags, but "::" is the axis
       separator and must not be swallowed. *)
    if peek st = ':' && st.pos + 1 < st.len && st.input.[st.pos + 1] = ':' then
      continue := false
    else advance st
  done;
  if st.pos = start then pfail (Printf.sprintf "expected a name at offset %d" start);
  String.sub st.input start (st.pos - start)

let read_string_lit st =
  let quote = peek st in
  if quote <> '\'' && quote <> '"' then pfail "expected a string literal";
  advance st;
  let start = st.pos in
  while st.pos < st.len && peek st <> quote do
    advance st
  done;
  if st.pos >= st.len then pfail "unterminated string literal";
  let s = String.sub st.input start (st.pos - start) in
  advance st;
  s

let read_op st =
  skip_ws st;
  if looking_at st "!=" then begin
    eat st "!=";
    Neq
  end
  else if looking_at st "<=" then begin
    eat st "<=";
    Le
  end
  else if looking_at st ">=" then begin
    eat st ">=";
    Ge
  end
  else if looking_at st "=" then begin
    eat st "=";
    Eq
  end
  else if looking_at st "<" then begin
    eat st "<";
    Lt
  end
  else if looking_at st ">" then begin
    eat st ">";
    Gt
  end
  else pfail "expected a comparison operator"

let read_rhs st =
  skip_ws st;
  if peek st = '\'' || peek st = '"' then read_string_lit st
  else begin
    (* bare number *)
    let start = st.pos in
    while
      st.pos < st.len
      && (let c = peek st in
          (c >= '0' && c <= '9') || c = '.' || c = '-')
    do
      advance st
    done;
    if st.pos = start then pfail "expected a literal";
    String.sub st.input start (st.pos - start)
  end

(* [lo,hi) after "in": brackets give inclusiveness, an empty side is
   unbounded, numbers read back by [Xml_num.of_text]. *)
let read_range st on =
  eat st "in";
  skip_ws st;
  let lo_strict =
    match peek st with
    | '[' -> false
    | '(' -> true
    | _ -> pfail "expected '[' or '(' to open a range"
  in
  advance st;
  let read_num stop =
    skip_ws st;
    let start = st.pos in
    while st.pos < st.len && not (List.mem (peek st) stop) do
      advance st
    done;
    match String.trim (String.sub st.input start (st.pos - start)) with
    | "" -> None
    | text -> (
      match Xml_num.of_text text with
      | Some n -> Some n
      | None -> pfail (Printf.sprintf "expected a number, got %S" text))
  in
  let lo = read_num [ ',' ] in
  eat st ",";
  let hi = read_num [ ']'; ')' ] in
  let hi_strict =
    match peek st with
    | ']' -> false
    | ')' -> true
    | _ -> pfail "expected ']' or ')' to close a range"
  in
  advance st;
  let mk strict = Option.map (fun value -> { value; strict }) in
  Num_range (on, mk lo_strict lo, mk hi_strict hi)

let looking_at_in st =
  looking_at st "in"
  && st.pos + 2 < st.len
  && (let c = st.input.[st.pos + 2] in
      c = ' ' || c = '[' || c = '(')

let read_pred st =
  eat st "[";
  skip_ws st;
  let p =
    if peek st = '@' then begin
      advance st;
      let name = read_name st in
      skip_ws st;
      if peek st = ']' then Has_attr name
      else if looking_at_in st then read_range st (On_attr name)
      else begin
        let op = read_op st in
        let rhs = read_rhs st in
        Attr_cmp (name, op, rhs)
      end
    end
    else if looking_at st "text()" then begin
      eat st "text()";
      let op = read_op st in
      let rhs = read_rhs st in
      Text_cmp (op, rhs)
    end
    else if looking_at st "position()" then begin
      eat st "position()";
      skip_ws st;
      eat st "=";
      skip_ws st;
      let rhs = read_rhs st in
      match int_of_string_opt rhs with
      | Some k -> Position k
      | None -> pfail "position() requires an integer"
    end
    else begin
      let name = read_name st in
      skip_ws st;
      if peek st = ']' then Child_exists name
      else if looking_at_in st then read_range st (On_child name)
      else begin
        let op = read_op st in
        let rhs = read_rhs st in
        Child_cmp (name, op, rhs)
      end
    end
  in
  skip_ws st;
  eat st "]";
  p

let axis_of_string = function
  | "child" -> Child
  | "descendant" -> Descendant
  | "descendant-or-self" -> Descendant_or_self
  | "parent" -> Parent
  | "ancestor" -> Ancestor
  | "self" -> Self
  | "following-sibling" -> Following_sibling
  | "preceding-sibling" -> Preceding_sibling
  | other -> pfail (Printf.sprintf "unknown axis %S" other)

let read_step st default_axis =
  skip_ws st;
  let axis, test =
    if looking_at st ".." then begin
      eat st "..";
      (Parent, Any_element)
    end
    else if looking_at st "text()" then begin
      eat st "text()";
      (default_axis, Text_node)
    end
    else if peek st = '.' then begin
      advance st;
      (Self, Any_element)
    end
    else if peek st = '@' then begin
      advance st;
      let name = read_name st in
      (* [/e/@a] selects the attribute of the elements already in
         context, i.e. the self axis filtered on attribute presence. *)
      (Self, Attribute name)
    end
    else if peek st = '*' then begin
      advance st;
      (default_axis, Any_element)
    end
    else begin
      let name = read_name st in
      if looking_at st "::" then begin
        eat st "::";
        let axis = axis_of_string name in
        let test =
          if peek st = '*' then begin
            advance st;
            Any_element
          end
          else if looking_at st "text()" then begin
            eat st "text()";
            Text_node
          end
          else if peek st = '@' then begin
            advance st;
            Attribute (read_name st)
          end
          else Name (read_name st)
        in
        (axis, test)
      end
      else (default_axis, Name name)
    end
  in
  let rec preds acc = if peek st = '[' then preds (read_pred st :: acc) else List.rev acc in
  { axis; test; preds = preds [] }

let parse_exn input =
  let st = { input; len = String.length input; pos = 0 } in
  skip_ws st;
  if st.pos >= st.len then pfail "empty path";
  let absolute = peek st = '/' in
  let rec steps acc first =
    skip_ws st;
    if st.pos >= st.len then List.rev acc
    else begin
      let default_axis =
        if looking_at st "//" then begin
          eat st "//";
          Descendant
        end
        else if peek st = '/' then begin
          advance st;
          Child
        end
        else if first then Child
        else pfail (Printf.sprintf "expected '/' at offset %d" st.pos)
      in
      skip_ws st;
      if st.pos >= st.len then pfail "trailing '/'";
      let step = read_step st default_axis in
      steps (step :: acc) false
    end
  in
  let steps = steps [] true in
  if steps = [] then pfail "empty path";
  { absolute; steps }

let parse input =
  try Ok (parse_exn input) with Syntax_error m -> Error m

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let axis_to_string = function
  | Child -> "child"
  | Descendant -> "descendant"
  | Descendant_or_self -> "descendant-or-self"
  | Parent -> "parent"
  | Ancestor -> "ancestor"
  | Self -> "self"
  | Following_sibling -> "following-sibling"
  | Preceding_sibling -> "preceding-sibling"

let test_to_string = function
  | Name n -> n
  | Any_element -> "*"
  | Text_node -> "text()"
  | Attribute n -> "@" ^ n

let op_to_string = function
  | Eq -> "="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let pred_to_string = function
  | Has_attr n -> Printf.sprintf "[@%s]" n
  | Attr_cmp (n, op, v) -> Printf.sprintf "[@%s%s'%s']" n (op_to_string op) v
  | Child_exists n -> Printf.sprintf "[%s]" n
  | Child_cmp (n, op, v) -> Printf.sprintf "[%s%s'%s']" n (op_to_string op) v
  | Text_cmp (op, v) -> Printf.sprintf "[text()%s'%s']" (op_to_string op) v
  | Position k -> Printf.sprintf "[position()=%d]" k
  | Num_range (on, lo, hi) ->
    let target = match on with On_child n -> n | On_attr n -> "@" ^ n in
    let side = function None -> "" | Some b -> Xml_num.to_string b.value in
    let opens = match lo with Some { strict = false; _ } -> "[" | _ -> "(" in
    let closes = match hi with Some { strict = false; _ } -> "]" | _ -> ")" in
    Printf.sprintf "[%s in %s%s,%s%s]" target opens (side lo) (side hi) closes

let step_to_string s =
  Printf.sprintf "%s::%s%s" (axis_to_string s.axis) (test_to_string s.test)
    (String.concat "" (List.map pred_to_string s.preds))

let to_string p =
  (if p.absolute then "/" else "")
  ^ String.concat "/" (List.map step_to_string p.steps)

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let compare_values op lhs rhs =
  let num =
    match float_of_string_opt lhs, float_of_string_opt rhs with
    | Some a, Some b -> Some (Float.compare a b)
    | _, _ -> None
  in
  let c = match num with Some c -> c | None -> String.compare lhs rhs in
  match op with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let in_range lo hi v =
  (match lo with
   | None -> true
   | Some b ->
     let c = Xml_num.compare v b.value in
     if b.strict then c > 0 else c >= 0)
  && (match hi with
     | None -> true
     | Some b ->
       let c = Xml_num.compare v b.value in
       if b.strict then c < 0 else c <= 0)

let range_admits lo hi = function
  | None -> true
  | Some v -> in_range lo hi v

(* The element's content as [Dtree.of_xml_element] reads it: comments,
   PIs and whitespace-only text dropped; numeric only when what is left
   is one text node that [Xml_num.of_text] accepts. *)
let element_number e =
  let kept =
    List.filter
      (function
        | Xml_types.Comment _ | Xml_types.Pi _ -> false
        | Xml_types.Text s -> String.trim s <> ""
        | Xml_types.Cdata _ | Xml_types.Element _ -> true)
      e.Xml_types.children
  in
  match kept with
  | [ (Xml_types.Text s | Xml_types.Cdata s) ] -> Xml_num.of_text s
  | _ -> None

let pred_holds cursor position p =
  let e = Xml_cursor.element cursor in
  match p with
  | Has_attr n -> Xml_types.attr e n <> None
  | Attr_cmp (n, op, rhs) -> (
    match Xml_types.attr e n with
    | Some v -> compare_values op v rhs
    | None -> false)
  | Child_exists n -> Xml_types.children_named e n <> []
  | Child_cmp (n, op, rhs) ->
    List.exists
      (fun c -> compare_values op (Xml_types.text_content c) rhs)
      (Xml_types.children_named e n)
  | Text_cmp (op, rhs) -> compare_values op (Xml_types.text_content e) rhs
  | Position k -> position = k
  | Num_range (On_child n, lo, hi) ->
    List.exists
      (fun c -> range_admits lo hi (element_number c))
      (Xml_types.children_named e n)
  | Num_range (On_attr n, lo, hi) -> (
    match Xml_types.attr e n with
    | Some v -> range_admits lo hi (Xml_num.of_text v)
    | None -> false)

let axis_candidates axis cursor =
  match axis with
  | Child -> Xml_cursor.children cursor
  | Descendant -> Xml_cursor.descendants cursor
  | Descendant_or_self -> Xml_cursor.descendants_or_self cursor
  | Parent -> ( match Xml_cursor.parent cursor with Some p -> [ p ] | None -> [])
  | Ancestor -> Xml_cursor.ancestors cursor
  | Self -> [ cursor ]
  | Following_sibling -> Xml_cursor.following_siblings cursor
  | Preceding_sibling -> Xml_cursor.preceding_siblings cursor

let test_holds test cursor =
  let e = Xml_cursor.element cursor in
  match test with
  | Any_element -> true
  | Name n -> String.equal e.Xml_types.tag n
  | Text_node -> true (* text selection resolved at extraction time *)
  | Attribute n -> Xml_types.attr e n <> None

let eval_step step cursors =
  List.concat_map
    (fun cursor ->
      let candidates = axis_candidates step.axis cursor in
      let named = List.filter (test_holds step.test) candidates in
      (* Predicates see positions within the candidate list for this
         context node, matching XPath's child-positional semantics. *)
      List.filteri
        (fun i c -> List.for_all (pred_holds c (i + 1)) step.preds)
        named)
    cursors

let dedup_in_order cursors =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun c ->
      let key = Xml_cursor.path c in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    cursors

let eval p context =
  let start = if p.absolute then Xml_cursor.root context else context in
  let result = List.fold_left (fun cs step -> eval_step step cs) [ start ] p.steps in
  let result = dedup_in_order result in
  List.sort Xml_cursor.compare_order result

let select p root =
  List.map Xml_cursor.element (eval p (Xml_cursor.of_root root))

let select_strings p root =
  let cursors = eval p (Xml_cursor.of_root root) in
  let last_test =
    match List.rev p.steps with
    | [] -> Any_element
    | s :: _ -> s.test
  in
  match last_test with
  | Attribute n ->
    List.filter_map (fun c -> Xml_types.attr (Xml_cursor.element c) n) cursors
  | Name _ | Any_element | Text_node ->
    List.map (fun c -> Xml_types.text_content (Xml_cursor.element c)) cursors

let matches p root = select p root <> []
