(** Atomic values of the Nimble data model.

    The paper (section 3.1) motivates a data model that accommodates XML
    but is "slightly more structured", so relational and hierarchical data
    are handled naturally.  Atomic values are the leaves of that model:
    typed scalars with total ordering, coercions between the textual world
    of XML and the typed world of relational sources, and NULL. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Date of date

and date = {
  year : int;
  month : int;  (** 1..12 *)
  day : int;    (** 1..31 *)
}

type ty = TNull | TBool | TInt | TFloat | TString | TDate

val type_of : t -> ty
val ty_to_string : ty -> string

(** {1 Construction and parsing} *)

val date : int -> int -> int -> t
(** [date y m d] validates ranges.  @raise Invalid_argument when out of
    range. *)

val of_string_guess : string -> t
(** Parse with type guessing: int, then float, then ISO date
    ([YYYY-MM-DD]), then bool ([true]/[false]), else string.  The empty
    string parses as [Null]. *)

val parse_as : ty -> string -> t option
(** Parse a string as a specific type; [None] when it does not conform.
    Parsing as [TString] always succeeds; as [TNull] succeeds only on the
    empty string. *)

(** {1 Rendering} *)

val to_string : t -> string
(** Textual form: what the value looks like as XML text content.  [Null]
    renders as the empty string.  A float prints as the shortest text
    that {!of_string_guess} reads back as the same [Float]
    ({!Xml_num.float_to_string}), so values survive the XML round trip
    exactly. *)

val to_display : t -> string
(** Like {!to_string} but [Null] renders as ["NULL"] (for tables). *)

val pp : Format.formatter -> t -> unit

(** {1 Comparison and arithmetic} *)

val compare : t -> t -> int
(** Total order used by sort operators: Null < Bool < numbers < String <
    Date; Int and Float compare numerically with each other. *)

val equal : t -> t -> bool

val compare_sql : t -> t -> int option
(** SQL-style comparison: [None] when either side is [Null] (unknown). *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Numeric arithmetic; [Null] propagates; [String ^ String]
    concatenates under {!add}.
    @raise Invalid_argument on non-numeric operands otherwise. *)

val neg : t -> t

val is_truthy : t -> bool
(** Boolean coercion for predicates: [Bool b] is [b]; [Null] is false;
    numbers are true when nonzero; strings when non-empty. *)

(** {1 Coercions} *)

val to_int : t -> int option
val to_float : t -> float option
val to_bool : t -> bool option

val cast : ty -> t -> t option
(** Value-level cast, e.g. [cast TInt (String "42") = Some (Int 42)]. *)

val hash : t -> int
(** Hash compatible with {!equal} (numeric Int/Float that are equal hash
    alike). *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by {!equal}: [Int 1] and [Float 1.0] are one key.
    Every join and index keyed on values uses this table, so a hash
    path finds exactly the keys a comparison would. *)

val date_to_days : date -> int
(** Days since 1970-01-01 (civil-calendar conversion); usable for date
    arithmetic and comparisons. *)
