(** The Nimble data model: ordered trees with typed leaves.

    This is the model of section 3.1 — it accommodates XML (ordered,
    labelled, attributed trees) but its leaves are typed atomic values
    rather than text, so relational and hierarchical data flow through the
    engine without lossy string round-trips. *)

type t =
  | Atom of Value.t
  | Node of node

and node = {
  label : string;
  attrs : (string * Value.t) list;
  kids : t list;
}

(** {1 Constructors} *)

val atom : Value.t -> t
val node : ?attrs:(string * Value.t) list -> string -> t list -> t
val leaf : string -> Value.t -> t
(** [leaf label v] is [node label [atom v]]. *)

(** {1 Accessors} *)

val label : t -> string option
val attr : t -> string -> Value.t option
val kids : t -> t list
val kids_named : t -> string -> t list
val first_named : t -> string -> t option

val atom_value : t -> Value.t option
(** [Some v] when the tree is [Atom v] or a node whose single child is an
    atom. *)

val text : t -> string
(** Concatenated textual form of all atom descendants, in order. *)

val size : t -> int
(** Node + atom count. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** {1 Conversions} *)

val of_xml : Xml_types.node -> t
(** Attributes and text become guessed-type atoms; comments, processing
    instructions and whitespace-only text between elements are
    dropped. *)

val of_xml_element : Xml_types.element -> t

val to_xml : t -> Xml_types.node
(** Atoms render via {!Value.to_string}. *)

val to_xml_element : t -> Xml_types.element
(** @raise Invalid_argument when the tree is a bare atom. *)

val value_number : Value.t -> Xml_num.t option
(** The numeric atom a value reads back as after rendering it to XML
    text and parsing it with {!Value.of_string_guess}: [Int]/[Float]
    themselves, [String "19"] as [Int 19], anything else [None]. *)

val number : t -> Xml_num.t option
(** The element's content as a numeric atom, read the way
    [of_xml_element (to_xml_element t)] reads it: whitespace-only atoms
    are dropped, and what is left must be one atom that
    {!value_number} accepts.  The index-side twin of the XML-side reading
    in [Xml_path]'s numeric ranges. *)

val of_tuple : string -> Tuple.t -> t
(** [of_tuple label tup] wraps each field as a child leaf:
    [<label><f1>v1</f1>...</label>]. *)

val to_tuple : t -> Tuple.t
(** Inverse of {!of_tuple} for one level of leaves; non-leaf children are
    flattened to their textual form. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
