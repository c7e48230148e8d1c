module Provider = Lq_core.Provider
module Engine_intf = Lq_catalog.Engine_intf
module Breaker = Lq_fault.Breaker
module Governor = Lq_fault.Governor
module Trace = Lq_trace.Trace

type config = {
  domains : int;
  queue_capacity : int;
  default_deadline_ms : float option;
  fallback : Engine_intf.t option;
  breaker : Breaker.config option;
  max_retries : int;
  retry_base_ms : float;
  retry_cap_ms : float;
  budget : Governor.budget;
  sampler : Trace.Sampler.t option;
}

let default_config =
  {
    domains = 4;
    queue_capacity = 64;
    default_deadline_ms = None;
    fallback = Some Lq_core.Engines.linq_to_objects;
    breaker = Some Breaker.default_config;
    max_retries = 2;
    retry_base_ms = 1.0;
    retry_cap_ms = 50.0;
    budget = Governor.unlimited;
    sampler = None;
  }

type job = Request.t * Request.response Future.t

type t = {
  provider : Provider.t;
  config : config;
  queue : job Request_queue.t;
  metrics : Svc_metrics.t;
  next_id : int Atomic.t;
  mu : Mutex.t;  (* guards [workers] and [breakers] *)
  mutable workers : unit Domain.t list;
  breakers : (string, Breaker.t) Hashtbl.t;
  stopped : bool Atomic.t;
}

type rejection =
  | Overloaded of {
      depth : int;
      capacity : int;
    }
  | Shutting_down

let rejection_to_string = function
  | Overloaded { depth; capacity } ->
    Printf.sprintf "overloaded (queue %d/%d)" depth capacity
  | Shutting_down -> "shutting down"

let now = Lq_metrics.Profile.now_ms

let breaker_for t name =
  match t.config.breaker with
  | None -> None
  | Some config ->
    Some
      (Mutex.protect t.mu (fun () ->
           match Hashtbl.find_opt t.breakers name with
           | Some br -> br
           | None ->
             let br = Breaker.create ~config () in
             Hashtbl.add t.breakers name br;
             br))

let breaker_state t ~engine =
  Mutex.protect t.mu (fun () ->
      Option.map Breaker.state (Hashtbl.find_opt t.breakers engine))

let breaker_stats t ~engine =
  Mutex.protect t.mu (fun () ->
      Option.map Breaker.stats (Hashtbl.find_opt t.breakers engine))

let breakers_report t =
  let entries =
    Mutex.protect t.mu (fun () ->
        Hashtbl.fold (fun name br acc -> (name, br) :: acc) t.breakers [])
  in
  match List.sort (fun (a, _) (b, _) -> compare a b) entries with
  | [] -> ""
  | entries ->
    let buf = Buffer.create 128 in
    List.iter
      (fun (name, br) ->
        let s = Breaker.stats br in
        Buffer.add_string buf
          (Printf.sprintf
             "breaker %-16s %-9s opened %d, reclosed %d, fast-fails %d\n" name
             (Breaker.state_to_string (Breaker.state br))
             s.Breaker.opened s.Breaker.reclosed s.Breaker.fast_fails))
      entries;
    Buffer.contents buf

(* Close a request's trace (if sampled) and feed it to the process-wide
   slow-query ring. Every resolution path — normal, crash shield, shed —
   funnels through here exactly once ([finish] is idempotent). *)
let seal_trace (req : Request.t) =
  match req.Request.trace with
  | None -> ()
  | Some tr ->
    Trace.finish tr;
    Trace.Ring.note Trace.slow_log tr

let process t ((req, fut) : job) =
  let picked = now () in
  let resolve outcome =
    let done_ms = now () in
    seal_trace req;
    let resp =
      {
        Request.request_id = req.Request.id;
        label = req.Request.label;
        outcome;
        queue_ms = picked -. req.Request.enqueued_ms;
        exec_ms = done_ms -. picked;
        total_ms = done_ms -. req.Request.enqueued_ms;
        trace = req.Request.trace;
      }
    in
    (* Account before fulfilling so a synchronous client that awoke from
       [await] reads consistent counters. Resolvers never actually race:
       the crash shield runs in this same Domain only after [process]
       raised, and the shutdown shed path only sees never-popped jobs. *)
    Svc_metrics.note_outcome t.metrics resp;
    ignore (Future.fulfil fut resp)
  in
  (* Install the request's trace as this worker's ambient context for
     the whole journey; the queue-wait span is reconstructed from the
     admission timestamp. *)
  let in_request_context f =
    match req.Request.trace with
    | None -> f ()
    | Some tr ->
      Trace.with_trace tr (fun () ->
          Trace.add_span Trace.Queue "queue" ~start_ms:req.Request.enqueued_ms
            ~dur_ms:(picked -. req.Request.enqueued_ms);
          f ())
  in
  match Deadline.check ~stage:"queued" req.Request.deadline with
  | exception Deadline.Expired stage -> resolve (Request.Timed_out { stage })
  | () ->
    in_request_context @@ fun () ->
    let checkpoint stage = Deadline.check ~stage req.Request.deadline in
    (* The request front end (optimize, parameterize, lower, shape key) is
       built once, inside the first attempt, so its faults are classified,
       retried, counted by the breaker and sent down the fallback ladder
       like any other attempt failure. Only a built front end is kept:
       every later attempt, retry and fallback hop reuses it. *)
    let front = ref None in
    let front_end () =
      match !front with
      | Some f -> f
      | None ->
        let f =
          Provider.front_end t.provider ~params:req.Request.params ~checkpoint
            req.Request.query
        in
        if f.Provider.notes <> [] then Svc_metrics.note_decorrelated t.metrics;
        front := Some f;
        f
    in
    (* One engine attempt, retried with bounded decorrelated-jitter
       backoff while the classified fault stays [Transient] and the
       deadline can still afford the sleep. The per-request governor
       budget is ambient for the whole attempt. The plan-level
       capability check routes around an engine that is guaranteed to
       refuse the query *before* any code generation is paid. *)
    let attempt (engine : Engine_intf.t) =
      let rng = lazy (Lq_exec.Prng.create (0x5eed + req.Request.id)) in
      let rec go attempt_no prev_sleep =
        match
          Trace.with_span
            ~attrs:
              [ ("engine", engine.Engine_intf.name); ("n", string_of_int attempt_no) ]
            Trace.Retry_attempt "attempt"
            (fun () ->
              Governor.with_budget t.config.budget (fun () ->
                  let front = front_end () in
                  match Provider.supports front ~engine with
                  | Error _ as refused -> refused
                  | Ok () ->
                    Ok
                      (Provider.run t.provider ~engine ~params:req.Request.params
                         ~checkpoint ~front req.Request.query)))
        with
        | Ok rows -> Ok rows
        | Error reason ->
          Svc_metrics.note_unsupported t.metrics;
          Error (Lq_fault.make ~stage:"plan" Lq_fault.Unsupported reason)
        | exception (Deadline.Expired _ as e) -> raise e
        | exception exn ->
          let fault =
            Lq_fault.classify ~stage:"execute" ~default:Lq_fault.Internal exn
          in
          if Lq_fault.is_transient fault && attempt_no < t.config.max_retries then begin
            let remaining =
              match req.Request.deadline with
              | None -> Float.infinity
              | Some d -> Deadline.remaining_ms d
            in
            let base = t.config.retry_base_ms in
            let span = Float.max 0.0 ((prev_sleep *. 3.0) -. base) in
            let sleep =
              Float.min t.config.retry_cap_ms
                (base +. Lq_exec.Prng.float (Lazy.force rng) span)
            in
            if sleep >= remaining then Error fault
            else begin
              Svc_metrics.note_retried t.metrics;
              Unix.sleepf (sleep /. 1000.0);
              go (attempt_no + 1) sleep
            end
          end
          else Error fault
      in
      go 0 t.config.retry_base_ms
    in
    (* The breaker wraps the whole retry loop: one admitted request
       records exactly one outcome, so a half-open probe can never
       wedge. Deadline expiry records success — it says nothing about
       the engine's health. *)
    let attempt_guarded (engine : Engine_intf.t) =
      match breaker_for t engine.Engine_intf.name with
      | None -> attempt engine
      | Some br -> (
        (* Breaker transitions mirror into the trace as instant spans at
           exactly the counter sites, so traced chaos runs can assert
           span/counter agreement. *)
        let breaker_event what =
          Trace.event
            ~attrs:[ ("engine", engine.Engine_intf.name) ]
            Trace.Breaker_event what
        in
        let record ~ok =
          match Breaker.record br ~now_ms:(now ()) ~ok with
          | `None -> ()
          | `Opened ->
            breaker_event "opened";
            Svc_metrics.note_breaker t.metrics `Opened
          | `Reclosed ->
            breaker_event "reclosed";
            Svc_metrics.note_breaker t.metrics `Reclosed
        in
        match Breaker.admit br ~now_ms:(now ()) with
        | `Fast_fail ->
          breaker_event "fast-fail";
          Svc_metrics.note_breaker t.metrics `Fast_fail;
          Error
            (Lq_fault.make ~stage:"admit" Lq_fault.Transient
               (Printf.sprintf "circuit open for engine %s" engine.Engine_intf.name))
        | `Admit | `Probe -> (
          match attempt engine with
          | Ok _ as ok ->
            record ~ok:true;
            ok
          | Error fault as err ->
            record ~ok:(not (Lq_fault.counts_for_breaker fault.Lq_fault.kind));
            err
          | exception (Deadline.Expired _ as e) ->
            record ~ok:true;
            raise e))
    in
    (* Degradation ladder: failures of the preferred engine are retried
       on the interpreter baseline and recorded as degraded completions
       — except [Resource_exhausted], which is a property of the request
       and would blow the same budget again. *)
    let fall_back ~(fault : Lq_fault.t) =
      match t.config.fallback with
      | Some fb
        when fb.Engine_intf.name <> req.Request.engine.Engine_intf.name
             && fault.Lq_fault.kind <> Lq_fault.Resource_exhausted -> (
        match
          Trace.with_span
            ~attrs:
              [
                ("engine", fb.Engine_intf.name);
                ("after", Lq_fault.kind_to_string fault.Lq_fault.kind);
              ]
            Trace.Fallback_hop fb.Engine_intf.name
            (fun () -> attempt_guarded fb)
        with
        | Ok rows ->
          resolve
            (Request.Completed { rows; engine = fb.Engine_intf.name; degraded = true })
        | Error second ->
          resolve (Request.Failed { engine = fb.Engine_intf.name; fault = second })
        | exception Deadline.Expired stage -> resolve (Request.Timed_out { stage }))
      | _ ->
        resolve
          (Request.Failed { engine = req.Request.engine.Engine_intf.name; fault })
    in
    match attempt_guarded req.Request.engine with
    | Ok rows ->
      resolve
        (Request.Completed
           { rows; engine = req.Request.engine.Engine_intf.name; degraded = false })
    | Error fault -> fall_back ~fault
    | exception Deadline.Expired stage -> resolve (Request.Timed_out { stage })

let rec worker_loop t =
  match Request_queue.pop t.queue with
  | None -> ()
  | Some ((req, fut) as job) ->
    (match
       Lq_fault.Inject.hit "service/worker";
       process t job
     with
    | () -> ()
    | exception exn ->
      (* Terminal-resolution shield: a popped job must resolve no matter
         what escapes [process] (or the worker-crash injection point
         just above it). [process] runs in this Domain, so a resolved
         future here means it already accounted the outcome — skip, no
         double count. The exception then propagates to kill the Domain
         and supervision respawns it. *)
      if not (Future.is_resolved fut) then begin
        let done_ms = now () in
        seal_trace req;
        let resp =
          {
            Request.request_id = req.Request.id;
            label = req.Request.label;
            outcome =
              Request.Failed
                {
                  engine = req.Request.engine.Engine_intf.name;
                  fault =
                    Lq_fault.classify ~stage:"worker" ~default:Lq_fault.Internal exn;
                };
            queue_ms = done_ms -. req.Request.enqueued_ms;
            exec_ms = 0.0;
            total_ms = done_ms -. req.Request.enqueued_ms;
            trace = req.Request.trace;
          }
        in
        Svc_metrics.note_outcome t.metrics resp;
        ignore (Future.fulfil fut resp)
      end;
      raise exn);
    worker_loop t

(* Worker supervision: each worker runs [worker_loop] under a top-level
   catch; if it dies it spawns and registers its replacement *before*
   exiting, so [shutdown]'s join loop (which re-snapshots the worker
   list until it stays empty) can never miss one. The pool only stops
   regrowing once the service is stopped with nothing left to drain. *)
let rec spawn_worker t =
  let d =
    Domain.spawn (fun () ->
        try worker_loop t
        with _exn ->
          Svc_metrics.note_worker_crash t.metrics;
          if not (Atomic.get t.stopped && Request_queue.depth t.queue = 0) then
            spawn_worker t)
  in
  Mutex.protect t.mu (fun () -> t.workers <- d :: t.workers)

let create ?(config = default_config) provider =
  let t =
    {
      provider;
      config;
      queue = Request_queue.create ~capacity:config.queue_capacity;
      metrics = Svc_metrics.create ();
      next_id = Atomic.make 0;
      mu = Mutex.create ();
      workers = [];
      breakers = Hashtbl.create 8;
      stopped = Atomic.make false;
    }
  in
  for _ = 1 to config.domains do
    spawn_worker t
  done;
  t

let provider t = t.provider
let metrics t = t.metrics
let queue_depth t = Request_queue.depth t.queue

let submit t ?label ?(priority = Request.Batch) ?engine ?(params = []) ?deadline_ms
    ?trace query =
  let engine =
    match engine with
    | Some e -> e
    | None -> Option.value t.config.fallback ~default:Lq_core.Engines.linq_to_objects
  in
  let deadline =
    match deadline_ms with
    | Some ms -> Some (Deadline.after ~ms)
    | None -> Option.map (fun ms -> Deadline.after ~ms) t.config.default_deadline_ms
  in
  let id = Atomic.fetch_and_add t.next_id 1 in
  let label = Option.value label ~default:(Printf.sprintf "req-%d" id) in
  (* Head-sampling: an explicit [?trace] wins; otherwise the config
     sampler decides (one atomic step); no sampler means no tracing. *)
  let sampled =
    match trace with
    | Some b -> b
    | None -> (
      match t.config.sampler with
      | Some s -> Trace.Sampler.sample s
      | None -> false)
  in
  (* Open the root span before stamping the admission time, so the
     queue-wait span reconstructed at pickup nests inside it. *)
  let tr = if sampled then Some (Trace.start ~label ()) else None in
  let enqueued_ms = now () in
  let req =
    {
      Request.id;
      label;
      query;
      engine;
      params;
      deadline;
      priority;
      enqueued_ms;
      trace = tr;
    }
  in
  (* A rejected submission never reaches a worker, so its trace must be
     released here or the live gate would stay raised forever. *)
  let reject_trace () = Option.iter Trace.finish tr in
  Svc_metrics.note_submitted t.metrics;
  let fut = Future.create () in
  match Request_queue.push t.queue ~priority (req, fut) with
  | `Accepted depth ->
    Svc_metrics.observe_queue_depth t.metrics depth;
    Ok fut
  | `Overloaded depth ->
    reject_trace ();
    Svc_metrics.observe_queue_depth t.metrics depth;
    Svc_metrics.note_rejected t.metrics `Overload;
    Error (Overloaded { depth; capacity = Request_queue.capacity t.queue })
  | `Closed ->
    reject_trace ();
    Svc_metrics.note_rejected t.metrics `Shutdown;
    Error Shutting_down

let run_sync t ?label ?priority ?engine ?params ?deadline_ms ?trace query =
  match submit t ?label ?priority ?engine ?params ?deadline_ms ?trace query with
  | Error _ as e -> e
  | Ok fut -> Ok (Future.await fut)

let shutdown ?(drain = true) t =
  if not (Atomic.exchange t.stopped true) then begin
    Request_queue.close t.queue;
    if not drain then
      (* Shed whatever the workers haven't picked up: each pending
         future resolves with a typed [Shed] outcome and lands in the
         shed accounting bucket — never a silent drop. *)
      List.iter
        (fun ((req, fut) : job) ->
          let picked = now () in
          seal_trace req;
          let resp =
            {
              Request.request_id = req.Request.id;
              label = req.Request.label;
              outcome = Request.Shed { reason = "service shutdown" };
              queue_ms = picked -. req.Request.enqueued_ms;
              exec_ms = 0.0;
              total_ms = picked -. req.Request.enqueued_ms;
              trace = req.Request.trace;
            }
          in
          Svc_metrics.note_outcome t.metrics resp;
          ignore (Future.fulfil fut resp))
        (Request_queue.drain t.queue);
    (* Join until the worker list stays empty: a worker that crashes
       while we join registers its replacement before it exits, so a
       fresh snapshot picks the replacement up. *)
    let rec join_all () =
      match
        Mutex.protect t.mu (fun () ->
            let ws = t.workers in
            t.workers <- [];
            ws)
      with
      | [] -> ()
      | ws ->
        List.iter Domain.join ws;
        join_all ()
    in
    join_all ()
  end

let report t =
  let breakers = breakers_report t in
  Svc_metrics.report t.metrics
  ^ (if breakers = "" then "" else breakers)
  ^ "\n" ^ Provider.report t.provider
