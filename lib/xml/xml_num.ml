type t =
  | Int of int
  | Float of float

let of_text s =
  if s = "" then None
  else
    match int_of_string_opt s with
    | Some i -> Some (Int i)
    | None -> Option.map (fun f -> Float f) (float_of_string_opt s)

(* The runtime's C formatter, as [string_of_float] uses it: no format
   interpretation per call, unlike [Printf]. *)
external format_float : string -> float -> string = "caml_format_float"

(* An integral float below 1e15 prints exactly with one decimal.  Any
   decimal of at most 6 (15) significant digits survives a trip through
   a double, so the first of %g/%.15g/%.16g that reads back is the
   shortest text; %.17g always reads back.  A bare integer gets ".0" so
   it still reads as a float. *)
let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then format_float "%.1f" f
  else if Float.is_nan f then "nan"
  else begin
    let rec shortest = function
      | [] -> format_float "%.17g" f
      | fmt :: wider ->
        let s = format_float fmt f in
        if Float.equal (float_of_string s) f then s else shortest wider
    in
    let s = shortest [ "%g"; "%.15g"; "%.16g" ] in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'n') s then s else s ^ ".0"
  end

let to_string = function
  | Int i -> string_of_int i
  | Float f -> float_to_string f

let to_float = function
  | Int i -> float_of_int i
  | Float f -> f

let compare a b =
  match a, b with
  | Int x, Int y -> Int.compare x y
  | _, _ -> Float.compare (to_float a) (to_float b)
