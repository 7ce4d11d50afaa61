(** A compact path language over XML trees.

    This is the navigation component of the engine: an XPath-like subset
    sufficient for source queries and the construct/navigate operators of
    the physical algebra.

    Grammar:
    {v
      path  ::= ("/" | "//")? step (("/" | "//") step)*
      step  ::= (axis "::")? test pred*
      axis  ::= child | descendant | descendant-or-self | parent
              | ancestor | self | following-sibling | preceding-sibling
      test  ::= NAME | "*" | "." | ".." | "text()" | "@" NAME
      pred  ::= "[" pexpr "]"
      pexpr ::= "@" NAME (op STRING)?      (* attribute presence / compare *)
              | NAME (op STRING)?          (* child-element text compare  *)
              | "@"? NAME "in" range       (* numeric range, see below    *)
              | "text()" op STRING
              | "position()" "=" INT
      op    ::= "=" | "!=" | "<" | "<=" | ">" | ">="
      range ::= ("[" | "(") NUM? "," NUM? ("]" | ")")
    v}
    [//] before a step means the descendant axis.  String literals use
    single or double quotes.  Comparisons are numeric when both sides
    parse as numbers, string otherwise.

    A range predicate, such as
    {v
      //product[price in [19,29)]      (19 <= price < 29)
      //book[@year in (1995,)]         (year > 1995)
    v}
    holds when some [price] child (the attribute) is in the interval
    under {!Xml_num.compare} — [Int] against [Int] exactly, anything
    else as floats — {e or} is not a single numeric atom.  A child's
    content is read as [Dtree.of_xml_element] reads it (comments, PIs
    and whitespace-only text dropped, then {!Xml_num.of_text} on the one
    text node left); strings, dates, booleans, empty, nested and mixed
    content always pass, because a mediator comparison can accept them
    (["!x" >= 19] is true under [Value.compare]'s type ranks).  A
    missing child or attribute fails.  A square bracket bounds
    inclusively, a parenthesis strictly, an empty side is unbounded;
    [Int] bounds print in decimal and [Float] bounds by
    {!Xml_num.float_to_string}, so every range prints distinctly and
    parses back equal. *)

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
  | Attribute of string  (** final [@name] step selecting an attribute *)

type cmp_op = Eq | Neq | Lt | Le | Gt | Ge

(** What a {!Num_range} reads: a named child's content or an attribute. *)
type range_on =
  | On_child of string
  | On_attr of string

type bound = {
  value : Xml_num.t;
  strict : bool;  (** [true] excludes [value] itself *)
}

type pred =
  | Has_attr of string
  | Attr_cmp of string * cmp_op * string
  | Child_exists of string
  | Child_cmp of string * cmp_op * string
  | Text_cmp of cmp_op * string
  | Position of int
  | Num_range of range_on * bound option * bound option
      (** numeric interval [(lo, hi)] on a child or attribute; the
          soundness rule is in the module doc *)

type step = {
  axis : axis;
  test : test;
  preds : pred list;
}

type t = {
  absolute : bool;  (** evaluate from the tree root rather than the context *)
  steps : step list;
}

exception Syntax_error of string

val parse : string -> (t, string) result
val parse_exn : string -> t

val compare_values : cmp_op -> string -> string -> bool
(** The comparison used by predicates: numeric when both sides parse as
    floats, string otherwise.  Exposed so index probes can replicate
    predicate semantics exactly. *)

val range_admits : bound option -> bound option -> Xml_num.t option -> bool
(** [range_admits lo hi v] is the per-value test of {!Num_range}: [None]
    (not a single numeric atom) always passes.  The index side applies
    the same function to its own reading of a node. *)

val to_string : t -> string
(** Re-render a parsed path (canonical axis syntax). *)

(** {1 Evaluation} *)

val eval : t -> Xml_cursor.t -> Xml_cursor.t list
(** Matching element cursors, deduplicated, in document order.  A final
    [text()] test selects the elements whose text is examined; use
    {!select_strings} to obtain the strings themselves. *)

val select : t -> Xml_types.element -> Xml_types.element list
(** Evaluate against the root of a tree. *)

val select_strings : t -> Xml_types.element -> string list
(** Like {!select} but returns the text content of each match; when the
    path ends in an attribute step [.../@name] it returns the attribute
    values instead. *)

val matches : t -> Xml_types.element -> bool
(** [matches p root] is true when [select p root] is non-empty. *)
