(* Load-balanced dispatch of admitted lens invocations over N logical
   engines, on the virtual clock. *)

type config = {
  engines : int;
  queue : Srv_admit.config;
  plan_cache_capacity : int;
  service_overhead_ms : float;
}

let default_config =
  {
    engines = 2;
    queue = Srv_admit.default_config;
    plan_cache_capacity = 32;
    service_overhead_ms = 1.0;
  }

type engine = {
  eng_id : int;
  mutable eng_busy_until_ms : float;
  mutable eng_busy_ms : float;
  mutable eng_served : int;
  eng_requests : Obs_metrics.counter;
  eng_busy_gauge : Obs_metrics.gauge;
}

type t = {
  sys : Nimble.t;
  cfg : config;
  admit : Srv_admit.t;
  cache : Srv_plancache.t;
  engines : engine array;
  sessions : (string, Srv_session.t) Hashtbl.t;
  outcomes : (int, Srv_request.outcome) Lru.t;  (* the latest [outcome_retention] *)
  mutable next_id : int;
  mutable listener : (int -> Srv_request.outcome -> unit) option;
  m_submitted : Obs_metrics.counter;
  m_completed : Obs_metrics.counter;
  m_rejected : Obs_metrics.counter;
}

(* Well above the 1000-request windows the benchmark workloads replay, so
   a run's own outcomes stay readable; older ones age out. *)
let outcome_retention = 4096

let create ?(config = default_config) sys =
  if config.engines < 1 then invalid_arg "Srv_dispatch.create: engines";
  {
    sys;
    cfg = config;
    admit = Srv_admit.create config.queue;
    cache =
      Srv_plancache.create ~capacity:config.plan_cache_capacity
        (Nimble.catalog sys);
    engines =
      Array.init config.engines (fun i ->
          {
            eng_id = i;
            eng_busy_until_ms = 0.0;
            eng_busy_ms = 0.0;
            eng_served = 0;
            eng_requests =
              Obs_metrics.counter (Printf.sprintf "srv.engine.%d.requests" i);
            eng_busy_gauge =
              Obs_metrics.gauge (Printf.sprintf "srv.engine.%d.busy_ms" i);
          });
    sessions = Hashtbl.create 7;
    outcomes = Lru.create ~capacity:outcome_retention ();
    next_id = 0;
    listener = None;
    m_submitted = Obs_metrics.counter "srv.requests.submitted";
    m_completed = Obs_metrics.counter "srv.requests.completed";
    m_rejected = Obs_metrics.counter "srv.requests.rejected";
  }

let plan_cache t = t.cache
let admit t = t.admit
let set_listener t f = t.listener <- Some f
let find_session t name = Hashtbl.find_opt t.sessions name

let session_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.sessions []
  |> List.sort String.compare

let open_session ?(lenses = []) t ~user ~password =
  match
    Srv_session.open_session ~lenses (Nimble.auth t.sys) ~user ~password
  with
  | Error _ as e -> e
  | Ok ses ->
    Hashtbl.replace t.sessions user ses;
    Ok ses

let outcome t id = Lru.peek t.outcomes id

let outcomes t =
  List.map (fun (id, o, _) -> (id, o)) (Lru.bindings t.outcomes)
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let settle t id out =
  Lru.add t.outcomes id out;
  (match out with
  | Srv_request.Completed _ -> Obs_metrics.inc t.m_completed
  | Rejected _ -> Obs_metrics.inc t.m_rejected);
  match t.listener with None -> () | Some f -> f id out

(* Execute one admitted request on [engine].  The simulated network
   time it consumes advances the shared virtual clock; a fixed overhead
   is charged to the engine only (charging it globally would keep every
   engine forever idle at dispatch time and no queueing could ever
   develop). *)
let execute t engine (entry : Srv_admit.entry) =
  let req = entry.Srv_admit.ent_request in
  let ses = entry.Srv_admit.ent_session in
  let start = Obs_clock.virtual_ms () in
  let run () =
    let lens =
      match Nimble.find_lens t.sys req.Srv_request.req_lens with
      | Some l -> l
      | None -> raise (Fe_lens.Lens_error ("unknown lens " ^ req.Srv_request.req_lens))
    in
    let compiled, plan_hit =
      Srv_plancache.lookup t.cache ~lens ~query:req.Srv_request.req_query
        ~args:req.Srv_request.req_args
    in
    Nimble.tick_views t.sys;
    let cat = Nimble.catalog t.sys in
    let saved_mode = Med_catalog.exec_mode cat in
    (match req.Srv_request.req_exec with
    | Some m -> Med_catalog.set_exec_mode cat m
    | None -> ());
    (* The request's queue deadline doubles as its retry budget: a
       request that promised an answer by submit+T must not keep backing
       off past that instant, so the budget is whatever of T the queue
       wait left over.  The executor's own per-query context nests
       inside and inherits the bound. *)
    let retry_budget =
      Option.map
        (fun d ->
          Float.max 0.0 (entry.Srv_admit.ent_enqueued_ms +. d -. start))
        req.Srv_request.req_deadline_ms
    in
    let result, _ =
      Src_retry.with_query
        (Med_catalog.retry cat)
        ~partial:(req.Srv_request.req_mode = Srv_request.Partial)
        ?deadline_ms:retry_budget
        (fun () ->
          Fun.protect
            ~finally:(fun () -> Med_catalog.set_exec_mode cat saved_mode)
            (fun () ->
              let view_lookup = Nimble.view_lookup t.sys in
              match req.Srv_request.req_mode with
              | Srv_request.Strict -> Med_exec.run_compiled ~view_lookup cat compiled
              | Partial -> Med_exec.run_compiled_partial ~view_lookup cat compiled))
    in
    let output = Fe_format.render lens.Fe_lens.device result.Med_exec.trees in
    (result, plan_hit, output)
  in
  let settled =
    match run () with
    | result, plan_hit, output ->
      let finish = Obs_clock.virtual_ms () in
      let service = (finish -. start) +. t.cfg.service_overhead_ms in
      engine.eng_busy_until_ms <- finish +. t.cfg.service_overhead_ms;
      engine.eng_busy_ms <- engine.eng_busy_ms +. service;
      engine.eng_served <- engine.eng_served + 1;
      Obs_metrics.inc engine.eng_requests;
      Obs_metrics.set_gauge engine.eng_busy_gauge engine.eng_busy_ms;
      ses.Srv_session.ses_completed <- ses.Srv_session.ses_completed + 1;
      Srv_request.Completed
        {
          rep_request = req;
          rep_engine = engine.eng_id;
          rep_submit_ms = entry.Srv_admit.ent_enqueued_ms;
          rep_start_ms = start;
          rep_service_ms = service;
          rep_plan_hit = plan_hit;
          rep_rows = List.length result.Med_exec.trees;
          rep_skipped = result.Med_exec.skipped_sources;
          rep_output = output;
        }
    | exception e ->
      let msg =
        match e with
        | Med_catalog.Catalog_error m | Med_exec.Exec_error m
        | Fe_lens.Lens_error m ->
          m
        | Med_planner.Plan_error m -> "planning: " ^ m
        | Source.Unavailable s | Alg_exec.Source_unavailable s ->
          Printf.sprintf "source %s is unavailable" s
        | Source.Query_rejected m -> "source rejected query: " ^ m
        | Invalid_argument m -> m
        | e -> raise e
      in
      ses.Srv_session.ses_rejected <- ses.Srv_session.ses_rejected + 1;
      Srv_request.Rejected (Failed msg)
  in
  ses.Srv_session.ses_in_flight <- ses.Srv_session.ses_in_flight - 1;
  settle t req.Srv_request.req_id settled

(* Idle engines at virtual [now], least-loaded first (total busy time,
   then id — a deterministic least-loaded pick). *)
let pick_idle t ~now =
  Array.to_list t.engines
  |> List.filter (fun e -> e.eng_busy_until_ms <= now)
  |> List.sort (fun a b ->
         compare (a.eng_busy_ms, a.eng_id) (b.eng_busy_ms, b.eng_id))
  |> function
  | [] -> None
  | e :: _ -> Some e

let rec pump t =
  let now = Obs_clock.virtual_ms () in
  match pick_idle t ~now with
  | None -> ()
  | Some engine -> (
    match Srv_admit.take t.admit ~now_ms:now with
    | Srv_admit.Empty -> ()
    | Expired entry ->
      let ses = entry.Srv_admit.ent_session in
      ses.Srv_session.ses_in_flight <- ses.Srv_session.ses_in_flight - 1;
      ses.Srv_session.ses_rejected <- ses.Srv_session.ses_rejected + 1;
      settle t entry.Srv_admit.ent_request.Srv_request.req_id
        (Srv_request.Rejected Deadline_expired);
      pump t
    | Ready entry ->
      execute t engine entry;
      pump t)

let tick = pump

let drain t =
  pump t;
  let continue = ref (Srv_admit.depth t.admit > 0) in
  while !continue do
    let now = Obs_clock.virtual_ms () in
    let next =
      Array.fold_left
        (fun acc e ->
          if e.eng_busy_until_ms > now then
            match acc with
            | None -> Some e.eng_busy_until_ms
            | Some m -> Some (Float.min m e.eng_busy_until_ms)
          else acc)
        None t.engines
    in
    (match next with
    | Some until -> Obs_clock.advance (until -. now)
    | None -> ());
    pump t;
    (* No engine to wait for and nothing startable means the queue can
       only be non-empty transiently; bail to avoid spinning. *)
    continue := Srv_admit.depth t.admit > 0 && next <> None
  done

let submit t ~session ~lens ~query ?(args = []) ?(priority = Srv_request.Normal)
    ?deadline_ms ?(mode = Srv_request.Strict) ?exec () =
  match Hashtbl.find_opt t.sessions session with
  | None -> Error (Printf.sprintf "no open session %S" session)
  | Some ses ->
    let id = t.next_id in
    t.next_id <- t.next_id + 1;
    Obs_metrics.inc t.m_submitted;
    ses.Srv_session.ses_submitted <- ses.Srv_session.ses_submitted + 1;
    let req =
      {
        Srv_request.req_id = id;
        req_session = session;
        req_lens = lens;
        req_query = query;
        req_args = args;
        req_priority = priority;
        req_deadline_ms = deadline_ms;
        req_mode = mode;
        req_exec = exec;
      }
    in
    let denied msg =
      ses.Srv_session.ses_rejected <- ses.Srv_session.ses_rejected + 1;
      settle t id (Srv_request.Rejected (Denied msg));
      Ok id
    in
    (match Nimble.find_lens t.sys lens with
    | None -> denied (Printf.sprintf "unknown lens %S" lens)
    | Some l -> (
      match Srv_session.allows ses l with
      | Error msg -> denied msg
      | Ok () -> (
        match Srv_admit.offer t.admit ses req with
        | Error rej ->
          ses.Srv_session.ses_rejected <- ses.Srv_session.ses_rejected + 1;
          settle t id (Srv_request.Rejected rej);
          Ok id
        | Ok () ->
          pump t;
          Ok id)))

let engine_lines t =
  Array.to_list t.engines
  |> List.map (fun e ->
         Printf.sprintf "engine %d: served=%d busy=%.2fms" e.eng_id
           e.eng_served e.eng_busy_ms)

let report t =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "server: engines=%d overhead=%.1fms\n" t.cfg.engines
       t.cfg.service_overhead_ms);
  Buffer.add_string b (Srv_admit.stats_line t.admit);
  Buffer.add_char b '\n';
  Buffer.add_string b (Srv_plancache.report t.cache);
  Buffer.add_char b '\n';
  if Sem_cache.enabled (Nimble.sem_cache t.sys) then begin
    Buffer.add_string b (Sem_cache.report (Nimble.sem_cache t.sys));
    Buffer.add_char b '\n'
  end;
  (* Retry/breaker lines appear only when a policy is active, so
     resilience-free reports stay byte-identical. *)
  (let retry = Med_catalog.retry (Nimble.catalog t.sys) in
   if Src_retry.active (Src_retry.policy retry) then
     Buffer.add_string b (Src_retry.report retry));
  List.iter
    (fun l ->
      Buffer.add_string b l;
      Buffer.add_char b '\n')
    (engine_lines t);
  List.iter
    (fun name ->
      match find_session t name with
      | Some ses ->
        Buffer.add_string b (Srv_session.summary ses);
        Buffer.add_char b '\n'
      | None -> ())
    (session_names t);
  List.iter
    (fun (id, out) ->
      Buffer.add_string b
        (match out with
        | Srv_request.Completed _ -> Srv_request.outcome_line out
        | Rejected _ -> Printf.sprintf "req %d %s" id (Srv_request.outcome_line out));
      Buffer.add_char b '\n')
    (outcomes t);
  Buffer.contents b
