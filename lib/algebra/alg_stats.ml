(* Per-operator execution statistics shared by the tuple, batch and
   parallel engines.  Each engine fills the counters it has; the
   engine-specific rendering lives in [cells] and [span], matched on
   the engine that ran. *)

type mode =
  | Tuple
  | Batch of { chunk : int }
  | Parallel of { domains : int; chunk : int }

type op = {
  op_plan : Alg_plan.t;
  mutable op_pulled : bool;
  mutable op_rows : int;
  mutable op_ms : float;  (* inclusive of input operators *)
  mutable op_chunks : int;
  mutable op_morsels : int;
  mutable op_fused : bool;
  (* Navigate index outcomes tick from worker domains, hence atomics. *)
  op_idx_probe : int Atomic.t;
  op_idx_guide : int Atomic.t;
  op_idx_miss : int Atomic.t;
  op_kids : op list;
}

type t = {
  mutable engine : mode;
  mutable busy : float array;  (* per-domain busy ms; slot 0 is the caller *)
  root : op;
}

let rec make_op plan =
  {
    op_plan = plan;
    op_pulled = false;
    op_rows = 0;
    op_ms = 0.0;
    op_chunks = 0;
    op_morsels = 0;
    op_fused = false;
    op_idx_probe = Atomic.make 0;
    op_idx_guide = Atomic.make 0;
    op_idx_miss = Atomic.make 0;
    op_kids = List.map make_op (Alg_plan.children plan);
  }

let create plan = { engine = Tuple; busy = [||]; root = make_op plan }

let find t plan =
  (* Physical identity: each plan node appears once in a compiled tree. *)
  let rec go op =
    if op.op_plan == plan then Some op else List.find_map go op.op_kids
  in
  go t.root

let count_idx op = function
  | `Probe -> Atomic.incr op.op_idx_probe
  | `Guide -> Atomic.incr op.op_idx_guide
  | `Miss -> Atomic.incr op.op_idx_miss

let falls_back = function
  | Alg_plan.Nl_join _ | Alg_plan.Merge_join _ | Alg_plan.Dep_join _
  | Alg_plan.Distinct _ -> true
  | _ -> false

let actual t plan =
  match find t plan with
  | Some op when op.op_pulled -> Some (op.op_rows, op.op_ms)
  | Some _ | None -> None

(* The [idx=probe:P/guide:G/miss:M] cell; rendered only once a Navigate
   actually hit an index, so unindexed plans print exactly as before. *)
let idx_cell op =
  let probe = Atomic.get op.op_idx_probe and guide = Atomic.get op.op_idx_guide in
  if probe + guide = 0 then []
  else
    [ Printf.sprintf "idx=probe:%d/guide:%d/miss:%d" probe guide (Atomic.get op.op_idx_miss) ]

let busy_max t = Array.fold_left Float.max 0.0 t.busy

let busy_min t =
  match Array.length t.busy with
  | 0 -> 0.0
  | _ -> Array.fold_left Float.min t.busy.(0) t.busy

let cells t plan =
  match find t plan with
  | None -> []
  | Some op -> (
    match t.engine with
    | Tuple -> idx_cell op
    | _ when not op.op_pulled -> []
    | Batch { chunk } ->
      if op.op_fused then [ "fused=select" ]
      else if falls_back plan then [ "fallback=tuple" ]
      else if op.op_chunks = 0 then []
      else
        let b = float_of_int op.op_chunks in
        let r = float_of_int op.op_rows in
        [
          Printf.sprintf "batches=%d" op.op_chunks;
          Printf.sprintf "rows/batch=%.1f" (r /. b);
          Printf.sprintf "fill=%.2f" (r /. (b *. float_of_int (max 1 chunk)));
        ]
        @ idx_cell op
    | Parallel _ ->
      let base =
        if falls_back plan then [ "fallback=tuple" ]
        else if op.op_morsels > 0 then [ Printf.sprintf "morsels=%d" op.op_morsels ]
        else []
      in
      let base = base @ idx_cell op in
      if op == t.root then
        base
        @ [
            Printf.sprintf "domains=%d" (Array.length t.busy);
            Printf.sprintf "skew=%.2f/%.2fms" (busy_max t) (busy_min t);
          ]
      else base)

let span t =
  let rec go op =
    let sp = Obs_span.make (Alg_plan.node_label op.op_plan) in
    Obs_span.set_int sp "rows" op.op_rows;
    (match t.engine with
    | Tuple -> ()
    | Batch _ -> Obs_span.set_int sp "batches" op.op_chunks
    | Parallel _ -> Obs_span.set_int sp "morsels" op.op_morsels);
    Obs_span.set_duration_ms sp op.op_ms;
    List.iter (fun k -> Obs_span.add_child sp (go k)) op.op_kids;
    sp
  in
  go t.root
