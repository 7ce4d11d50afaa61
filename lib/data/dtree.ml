type t =
  | Atom of Value.t
  | Node of node

and node = {
  label : string;
  attrs : (string * Value.t) list;
  kids : t list;
}

let atom v = Atom v
let node ?(attrs = []) label kids = Node { label; attrs; kids }
let leaf label v = node label [ atom v ]

let label = function
  | Atom _ -> None
  | Node n -> Some n.label

let attr t name =
  match t with
  | Atom _ -> None
  | Node n -> List.assoc_opt name n.attrs

let kids = function
  | Atom _ -> []
  | Node n -> n.kids

let kids_named t name =
  List.filter
    (function Node n -> String.equal n.label name | Atom _ -> false)
    (kids t)

let first_named t name =
  match kids_named t name with
  | [] -> None
  | k :: _ -> Some k

let atom_value = function
  | Atom v -> Some v
  | Node { kids = [ Atom v ]; _ } -> Some v
  | Node _ -> None

let text t =
  let buf = Buffer.create 32 in
  let rec go = function
    | Atom v -> Buffer.add_string buf (Value.to_string v)
    | Node n -> List.iter go n.kids
  in
  go t;
  Buffer.contents buf

let rec size = function
  | Atom _ -> 1
  | Node n -> 1 + List.fold_left (fun acc k -> acc + size k) 0 n.kids

let rec compare a b =
  match a, b with
  | Atom x, Atom y -> Value.compare x y
  | Atom _, Node _ -> -1
  | Node _, Atom _ -> 1
  | Node x, Node y ->
    let c = String.compare x.label y.label in
    if c <> 0 then c
    else begin
      let cmp_attr (n1, v1) (n2, v2) =
        let c = String.compare n1 n2 in
        if c <> 0 then c else Value.compare v1 v2
      in
      let c = List.compare cmp_attr x.attrs y.attrs in
      if c <> 0 then c else List.compare compare x.kids y.kids
    end

let equal a b = compare a b = 0

let rec hash = function
  | Atom v -> Value.hash v
  | Node n ->
    let h = Hashtbl.hash n.label in
    let h = List.fold_left (fun acc (k, v) -> (acc * 31) + Hashtbl.hash k + Value.hash v) h n.attrs in
    List.fold_left (fun acc k -> (acc * 131) + hash k) h n.kids

let rec of_xml = function
  | Xml_types.Text s | Xml_types.Cdata s -> Atom (Value.of_string_guess s)
  | Xml_types.Element e -> of_xml_element e
  | Xml_types.Comment _ | Xml_types.Pi _ -> Atom Value.Null

and of_xml_element e =
  let attrs =
    List.map
      (fun a -> (a.Xml_types.attr_name, Value.of_string_guess a.Xml_types.attr_value))
      e.Xml_types.attrs
  in
  let keep = function
    | Xml_types.Comment _ | Xml_types.Pi _ -> None
    (* Whitespace-only text between elements is serialization noise, not
       data; dropping it keeps element positions meaningful. *)
    | Xml_types.Text s when String.trim s = "" -> None
    | n -> Some (of_xml n)
  in
  Node { label = e.Xml_types.tag; attrs; kids = List.filter_map keep e.Xml_types.children }

let rec to_xml = function
  | Atom v -> Xml_types.Text (Value.to_string v)
  | Node n ->
    let attrs = List.map (fun (k, v) -> (k, Value.to_string v)) n.attrs in
    Xml_types.el ~attrs n.label (List.map to_xml n.kids)

let to_xml_element t =
  match to_xml t with
  | Xml_types.Element e -> e
  | Xml_types.Text _ | Xml_types.Cdata _ | Xml_types.Comment _ | Xml_types.Pi _ ->
    invalid_arg "Dtree.to_xml_element: bare atom"

let value_number = function
  | Value.Int i -> Some (Xml_num.Int i)
  | Value.Float f -> Some (Xml_num.Float f)
  | v -> Xml_num.of_text (Value.to_string v)

let number = function
  | Node { kids = [ Atom (Value.Int i) ]; _ } -> Some (Xml_num.Int i)
  | Node { kids = [ Atom (Value.Float f) ]; _ } -> Some (Xml_num.Float f)
  | Atom _ -> None
  | Node n -> (
    let blank = function
      | Atom v -> String.trim (Value.to_string v) = ""
      | Node _ -> false
    in
    match List.filter (fun k -> not (blank k)) n.kids with
    | [ Atom v ] -> value_number v
    | _ -> None)

let of_tuple lbl tup =
  node lbl (List.map (fun (name, v) -> leaf name v) (Tuple.fields tup))

let to_tuple t =
  let field k =
    match k with
    | Node n -> (
      match atom_value k with
      | Some v -> Some (n.label, v)
      | None -> Some (n.label, Value.String (text k)))
    | Atom _ -> None
  in
  Tuple.make (List.filter_map field (kids t))

let rec pp ppf = function
  | Atom v -> Value.pp ppf v
  | Node n ->
    Format.fprintf ppf "@[<hv 2>%s" n.label;
    List.iter (fun (k, v) -> Format.fprintf ppf "@ @@%s=%a" k Value.pp v) n.attrs;
    Format.fprintf ppf "(";
    Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp ppf n.kids;
    Format.fprintf ppf ")@]"

let to_string t = Format.asprintf "%a" pp t
