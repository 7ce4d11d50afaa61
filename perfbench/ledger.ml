(* The layer ledger: spans recorded around calls into the library's
   public functions, from the benchmark's own code.

   A span has a name, start and end (wall ms), a parent span and the id
   of the operation it belongs to.  Spans stay in memory and are written
   out as JSON lines when the run ends.  Single-layer spans (parse,
   compile, render, raw source calls) are "attributed"; composite spans
   (the executor, the facade, the server) only contribute their self
   time, which the outside view cannot split further. *)

let now_ms () = Unix.gettimeofday () *. 1000.0

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** -1 for an operation's root span *)
  start_ms : float;
  mutable stop_ms : float;
  words0 : float;
  mutable words : float;  (** minor words allocated inside the span *)
}

let enabled = ref false
let spans : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0
let current_op = ref 0

let clear () =
  spans := [];
  stack := [];
  next_id := 0

let with_span name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with s :: _ -> s.id | [] -> -1 in
    let s =
      {
        id = !next_id;
        name;
        op = !current_op;
        parent;
        start_ms = now_ms ();
        stop_ms = 0.0;
        words0 = Gc.minor_words ();
        words = 0.0;
      }
    in
    incr next_id;
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop_ms <- now_ms ();
        s.words <- Gc.minor_words () -. s.words0;
        stack := List.tl !stack;
        spans := s :: !spans)
      f
  end

(* Layer names.  Source spans are named after the library layer that
   serves the call. *)
let parse = "xmlql.parse"
let compile = "mediator.compile"
let exec = "mediator.exec"
let facade = "core.query"
let request = "server.request"
let render = "frontend.render"
let relation = "relation"
let xml = "xml"

let attributed name =
  List.mem name [ parse; compile; render; relation; xml ]

let is_source name = name = relation || name = xml

(* Rows of a source result; tree nodes for XML results, as Net_sim
   charges them. *)
let rec volume = function
  | Source.R_rows (_, rows) -> List.length rows
  | Source.R_trees trees -> List.fold_left (fun a t -> a + Dtree.size t) 0 trees
  | Source.R_batch rs -> List.fold_left (fun a r -> a + volume r) 0 rs

(* Calls and rows per source layer, counted in every operation of a
   traced run, so they are identical however the spans are sampled. *)
type source_counts = {
  mutable calls : int;
  mutable rows : int;
}

let counting = ref false

(* Timing decorator on a raw source record, placed inside Net_sim.wrap
   so it sees exactly the work the source itself does.  Calls and rows
   are counted while [counting] is set; spans only while tracing. *)
let decorate ~layer counts (src : Source.t) =
  let note n =
    counts.calls <- counts.calls + 1;
    counts.rows <- counts.rows + n
  in
  {
    src with
    Source.execute =
      (fun q ->
        let r = with_span layer (fun () -> src.Source.execute q) in
        if !counting then note (volume r);
        r);
    documents =
      (fun d ->
        let ts = with_span layer (fun () -> src.Source.documents d) in
        if !counting then note (volume (Source.R_trees ts));
        ts);
  }

let relation_counts = { calls = 0; rows = 0 }
let xml_counts = { calls = 0; rows = 0 }

(* Per-operation breakdown of the traced operations. *)
type op_ledger = {
  wall : float;
  by_layer : (string * float) list;  (** attributed ms per layer name *)
  self_ms : (string * float) list;   (** composite span self time *)
  self_words : (string * float) list;
  source_words : (string * float) list;
}

(* Fold the spans of one finished operation (the loop's root span,
   named "op") into its ledger. *)
let ledger_of_op (op_spans : span list) =
  let dur s = s.stop_ms -. s.start_ms in
  let root = List.find_opt (fun s -> s.parent = -1 && s.name = "op") op_spans in
  let add name v acc =
    let cur = Option.value ~default:0.0 (List.assoc_opt name acc) in
    (name, cur +. v) :: List.remove_assoc name acc
  in
  let by_layer =
    List.fold_left
      (fun acc s -> if attributed s.name then add s.name (dur s) acc else acc)
      [] op_spans
  in
  let source_words =
    List.fold_left
      (fun acc s -> if is_source s.name then add s.name s.words acc else acc)
      [] op_spans
  in
  let composite = List.filter (fun s -> List.mem s.name [ exec; facade; request ]) op_spans in
  let children c = List.filter (fun s -> s.parent = c.id && is_source s.name) op_spans in
  let self_ms, self_words =
    List.fold_left
      (fun (ms, words) c ->
        let kids = children c in
        let kid_ms = List.fold_left (fun a k -> a +. dur k) 0.0 kids in
        let kid_words = List.fold_left (fun a k -> a +. k.words) 0.0 kids in
        (add c.name (dur c -. kid_ms) ms, add c.name (c.words -. kid_words) words))
      ([], []) composite
  in
  {
    wall = (match root with Some r -> dur r | None -> 0.0);
    by_layer;
    self_ms;
    self_words;
    source_words;
  }

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%s,\"op\":%d,\"parent\":%d,\"start_ms\":%.4f,\"end_ms\":%.4f,\"minor_words\":%.0f}\n"
        s.id (json_string s.name) s.op s.parent s.start_ms s.stop_ms s.words)
    (List.rev !spans);
  close_out oc
