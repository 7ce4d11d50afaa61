(** Numeric atoms of XML text.

    One definition of "this text is a number" and "this is how a float
    prints", shared by the data model ([Value.of_string_guess],
    [Value.to_string]), path predicates ([Xml_path]'s numeric ranges) and
    the numeric value index, so the three can never disagree about which
    text is numeric or what a printed float reads back as. *)

type t =
  | Int of int
  | Float of float

val of_text : string -> t option
(** [Int] when [int_of_string] accepts the text, else [Float] when
    [float_of_string] does, else [None]; the empty string is [None].
    Exactly the numeric half of [Value.of_string_guess]. *)

val float_to_string : float -> string
(** The shortest text that reads back as the same float and never as an
    int: ["55.0"], ["2.5"], ["1234567.5"], ["1e+15"], ["nan"], ["inf"]. *)

val to_string : t -> string
(** [Int] in decimal, [Float] by {!float_to_string}; {!of_text} reads
    it back as the same constructor and value. *)

val to_float : t -> float

val compare : t -> t -> int
(** [Value.compare]'s numeric order: [Int] against [Int] exactly,
    anything else as floats under [Float.compare] (nan below everything,
    [-0.] equal to [0.]). *)
