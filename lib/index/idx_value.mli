(** Value index over one (label path, extraction) pair.

    Two kinds of index live here.

    A {e comparison} index ({!build}) maps a raw string value (element
    text, attribute value, or a named child's text) to the node ids that
    carry it.  Probes replicate [Xml_path.compare_values] exactly: two
    values compare numerically iff both parse as floats, otherwise as
    strings — so equality keys are split into a numeric bucket (keyed by
    the canonical float) and a raw-string bucket, and range probes
    combine a float-ordered scan of the numeric entries with a
    string-ordered scan of the rest.

    A {e numeric} index ({!build_numeric}) answers [Xml_path.Num_range]
    predicates.  Each child's (or attribute's) numeric atom, as
    [Dtree.number] reads it, goes into one float-sorted array; the ids of
    nodes carrying a non-numeric value go into a side list, because the
    range predicate always admits those.  An interval is one
    binary-searched slice of the array plus the side list. *)

type t

(** What a path's predicate compares; determines which values feed the
    index. *)
type kind =
  | Text               (** [text() <op> v] — the element's text content *)
  | Attr of string     (** [@a <op> v] — the attribute's value *)
  | Child of string    (** [c <op> v] — each child [c]'s text content *)
  | Num of Xml_path.range_on
      (** a child's or attribute's numeric range ([Xml_path.Num_range]),
          see {!build_numeric} *)

val kind_to_string : kind -> string

(** Build a comparison index from [(raw value, node id)] entries; an id
    may appear under several values (e.g. repeated children). *)
val build : (string * int) list -> t

(** Build a numeric index from [(numeric atom, node id)] entries, one
    per child (or attribute); [None] marks a non-numeric value, whose
    node every range admits. *)
val build_numeric : (Xml_num.t option * int) list -> t

(** Approximate heap footprint in bytes. *)
val bytes : t -> int

(** Number of entries. *)
val entries : t -> int

(** Comparison index: ids whose value satisfies [<op> rhs], ascending
    and deduplicated.  [None] for operators the index cannot answer
    ([Neq]) and for numeric indexes. *)
val probe : t -> Xml_path.cmp_op -> string -> int list option

(** Numeric index: the ascending, deduplicated ids in the window
    [within] (lower id inclusive, upper exclusive) whose value may lie in
    the interval, plus the side list's ids in that window.  A superset of the range predicate's matches (exact
    except for int bounds beyond 2^53, sliced inclusively): callers
    re-check each node.  Only the ids in the slice are sorted.
    @raise Invalid_argument on a comparison index. *)
val range_ids :
  t -> within:int * int -> Xml_path.bound option -> Xml_path.bound option -> int array

(** Numeric index: the entries {!range_ids} would scan over the whole
    forest (slice length plus side list), by binary search without
    allocating.  @raise Invalid_argument on a comparison index. *)
val range_count : t -> Xml_path.bound option -> Xml_path.bound option -> int
