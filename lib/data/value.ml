type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Date of date

and date = {
  year : int;
  month : int;
  day : int;
}

type ty = TNull | TBool | TInt | TFloat | TString | TDate

let type_of = function
  | Null -> TNull
  | Bool _ -> TBool
  | Int _ -> TInt
  | Float _ -> TFloat
  | String _ -> TString
  | Date _ -> TDate

let ty_to_string = function
  | TNull -> "null"
  | TBool -> "bool"
  | TInt -> "int"
  | TFloat -> "float"
  | TString -> "string"
  | TDate -> "date"

let days_in_month year month =
  match month with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 ->
    let leap = (year mod 4 = 0 && year mod 100 <> 0) || year mod 400 = 0 in
    if leap then 29 else 28
  | _ -> 0

let date year month day =
  if month < 1 || month > 12 then invalid_arg "Value.date: month out of range";
  if day < 1 || day > days_in_month year month then invalid_arg "Value.date: day out of range";
  Date { year; month; day }

(* Civil-from-days algorithm (Howard Hinnant's chrono arithmetic). *)
let date_to_days d =
  let y = if d.month <= 2 then d.year - 1 else d.year in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - (era * 400) in
  let mp = (d.month + 9) mod 12 in
  let doy = ((153 * mp) + 2) / 5 + d.day - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  (era * 146097) + doe - 719468

let parse_date s =
  (* ISO YYYY-MM-DD *)
  if String.length s = 10 && s.[4] = '-' && s.[7] = '-' then
    match
      ( int_of_string_opt (String.sub s 0 4),
        int_of_string_opt (String.sub s 5 2),
        int_of_string_opt (String.sub s 8 2) )
    with
    | Some y, Some m, Some d when m >= 1 && m <= 12 && d >= 1 && d <= days_in_month y m ->
      Some { year = y; month = m; day = d }
    | _, _, _ -> None
  else None

let of_string_guess s =
  if s = "" then Null
  else
    match Xml_num.of_text s with
    | Some (Xml_num.Int i) -> Int i
    | Some (Xml_num.Float f) -> Float f
    | None -> (
      match parse_date s with
      | Some d -> Date d
      | None -> (
        match s with
        | "true" -> Bool true
        | "false" -> Bool false
        | s -> String s))

let parse_as ty s =
  match ty with
  | TString -> Some (String s)
  | TNull -> if s = "" then Some Null else None
  | TBool -> (
    match String.lowercase_ascii s with
    | "true" | "t" | "1" -> Some (Bool true)
    | "false" | "f" | "0" -> Some (Bool false)
    | _ -> None)
  | TInt -> Option.map (fun i -> Int i) (int_of_string_opt s)
  | TFloat -> Option.map (fun f -> Float f) (float_of_string_opt s)
  | TDate -> Option.map (fun d -> Date d) (parse_date s)

let to_string = function
  | Null -> ""
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Xml_num.float_to_string f
  | String s -> s
  | Date d -> Printf.sprintf "%04d-%02d-%02d" d.year d.month d.day

let to_display = function
  | Null -> "NULL"
  | v -> to_string v

let pp ppf v = Format.pp_print_string ppf (to_display v)

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | String _ -> 3
  | Date _ -> 4

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | String x, String y -> String.compare x y
  | Date x, Date y -> Int.compare (date_to_days x) (date_to_days y)
  | a, b -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

let compare_sql a b =
  match a, b with
  | Null, _ | _, Null -> None
  | a, b -> Some (compare a b)

let to_int = function
  | Int i -> Some i
  | Float f -> Some (int_of_float f)
  | Bool b -> Some (if b then 1 else 0)
  | String s -> int_of_string_opt s
  | Null | Date _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Bool b -> Some (if b then 1.0 else 0.0)
  | String s -> float_of_string_opt s
  | Null | Date _ -> None

let to_bool = function
  | Bool b -> Some b
  | Int i -> Some (i <> 0)
  | Float f -> Some (f <> 0.0)
  | String "true" -> Some true
  | String "false" -> Some false
  | String _ | Null | Date _ -> None

let numeric_op name fint ffloat a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (fint x y)
  | (Int _ | Float _), (Int _ | Float _) -> (
    match to_float a, to_float b with
    | Some x, Some y -> Float (ffloat x y)
    | _, _ -> invalid_arg name)
  | _, _ -> invalid_arg name

let add a b =
  match a, b with
  | String x, String y -> String (x ^ y)
  | a, b -> numeric_op "Value.add" ( + ) ( +. ) a b

let sub a b = numeric_op "Value.sub" ( - ) ( -. ) a b
let mul a b = numeric_op "Value.mul" ( * ) ( *. ) a b

let div a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | _, Int 0 -> Null
  | _, Float 0.0 -> Null
  | Int x, Int y -> Int (x / y)
  | (Int _ | Float _), (Int _ | Float _) -> (
    match to_float a, to_float b with
    | Some x, Some y -> Float (x /. y)
    | _, _ -> invalid_arg "Value.div")
  | _, _ -> invalid_arg "Value.div"

let neg = function
  | Null -> Null
  | Int i -> Int (-i)
  | Float f -> Float (-.f)
  | Bool _ | String _ | Date _ -> invalid_arg "Value.neg"

let is_truthy = function
  | Null -> false
  | Bool b -> b
  | Int i -> i <> 0
  | Float f -> f <> 0.0
  | String s -> s <> ""
  | Date _ -> true

let cast ty v =
  match ty, v with
  | TNull, _ -> Some Null
  | TBool, v -> Option.map (fun b -> Bool b) (to_bool v)
  | TInt, v -> Option.map (fun i -> Int i) (to_int v)
  | TFloat, v -> Option.map (fun f -> Float f) (to_float v)
  | TString, v -> Some (String (to_string v))
  | TDate, Date _ -> Some v
  | TDate, String s -> Option.map (fun d -> Date d) (parse_date s)
  | TDate, (Null | Bool _ | Int _ | Float _) -> None

let hash = function
  | Null -> 17
  | Bool b -> if b then 3 else 5
  | Int i -> Hashtbl.hash (float_of_int i)
  | Float f -> Hashtbl.hash f
  | String s -> Hashtbl.hash s
  | Date d -> Hashtbl.hash (date_to_days d) lxor 0x5bd1

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
