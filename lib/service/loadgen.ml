module Histogram = Lq_metrics.Histogram
module Prng = Lq_exec.Prng

type item = {
  label : string;
  query : Lq_expr.Ast.query;
  engine : Lq_catalog.Engine_intf.t option;
  params_of : int -> (string * Lq_value.Value.t) list;
  priority : Request.priority;
}

let item ?engine ?(priority = Request.Batch) ?(params_of = fun _ -> []) label query =
  { label; query; engine; params_of; priority }

type arrival =
  | Closed of {
      clients : int;
      requests_per_client : int;
    }
  | Open of {
      rate_per_s : float;
      total : int;
    }

type report = {
  wall_ms : float;
  submitted : int;
  rejected : int;
  completed : int;
  degraded : int;
  timed_out : int;
  shed : int;
  failed : int;
  throughput_per_s : float;
  latency : Histogram.t;
  max_lateness_ms : float;
}

let conserved r =
  r.submitted = r.completed + r.rejected + r.shed + r.timed_out + r.failed

type tallies = {
  submitted_n : int Atomic.t;
  rejected_n : int Atomic.t;
  completed_n : int Atomic.t;
  degraded_n : int Atomic.t;
  timed_out_n : int Atomic.t;
  shed_n : int Atomic.t;
  failed_n : int Atomic.t;
  lat : Histogram.t;
}

let tallies () =
  {
    submitted_n = Atomic.make 0;
    rejected_n = Atomic.make 0;
    completed_n = Atomic.make 0;
    degraded_n = Atomic.make 0;
    timed_out_n = Atomic.make 0;
    shed_n = Atomic.make 0;
    failed_n = Atomic.make 0;
    lat = Histogram.create ();
  }

(* [late_ms]: how long after its due time the request was handed to the
   service. Latency runs from the due time, so a submitter that falls
   behind its schedule cannot hide the delay. *)
let record ts ~late_ms (resp : Request.response) =
  (match resp.Request.outcome with
  | Request.Completed { degraded; _ } ->
    Atomic.incr ts.completed_n;
    if degraded then Atomic.incr ts.degraded_n
  | Request.Timed_out _ -> Atomic.incr ts.timed_out_n
  | Request.Shed _ -> Atomic.incr ts.shed_n
  | Request.Failed _ -> Atomic.incr ts.failed_n);
  Histogram.observe ts.lat (late_ms +. resp.Request.total_ms)

let run ?(seed = 42) ?deadline_ms ~workload arrival svc =
  if Array.length workload = 0 then invalid_arg "Loadgen.run: empty workload";
  let n_items = Array.length workload in
  (* Per-item submission counters drive [params_of], so each item cycles
     its own parameter vectors no matter how arrivals interleave. *)
  let item_counts = Array.init n_items (fun _ -> Atomic.make 0) in
  let ts = tallies () in
  (* Returns the future and the instant the request reached the service. *)
  let submit_one i =
    let it = workload.(i mod n_items) in
    let k = Atomic.fetch_and_add item_counts.(i mod n_items) 1 in
    Atomic.incr ts.submitted_n;
    let params = it.params_of k in
    let sent_ms = Lq_metrics.Profile.now_ms () in
    match
      Service.submit svc ~label:it.label ~priority:it.priority ?engine:it.engine ~params
        ?deadline_ms it.query
    with
    | Ok fut -> Some (fut, sent_ms)
    | Error _ ->
      Atomic.incr ts.rejected_n;
      None
  in
  let max_lateness_ms = ref 0.0 in
  let t0 = Lq_metrics.Profile.now_ms () in
  (match arrival with
  | Closed { clients; requests_per_client } ->
    if clients <= 0 || requests_per_client <= 0 then
      invalid_arg "Loadgen.run: Closed needs positive clients and requests";
    let client c =
      for j = 0 to requests_per_client - 1 do
        (* interleave item rotation across clients *)
        match submit_one ((j * clients) + c) with
        | Some (fut, _) -> record ts ~late_ms:0.0 (Future.await fut)
        | None -> ()
      done
    in
    List.init clients (fun c -> Domain.spawn (fun () -> client c))
    |> List.iter Domain.join
  | Open { rate_per_s; total } ->
    if rate_per_s <= 0.0 || total <= 0 then
      invalid_arg "Loadgen.run: Open needs positive rate and total";
    let rng = Prng.create seed in
    let pending = ref [] in
    let due = ref (Lq_metrics.Profile.now_ms ()) in
    for i = 0 to total - 1 do
      let now = Lq_metrics.Profile.now_ms () in
      if now < !due then Unix.sleepf ((!due -. now) /. 1000.0);
      (match submit_one i with
      | Some (fut, sent_ms) ->
        let late_ms = Float.max 0.0 (sent_ms -. !due) in
        max_lateness_ms := Float.max !max_lateness_ms late_ms;
        pending := (fut, late_ms) :: !pending
      | None -> ());
      (* Poisson process: exponential inter-arrival gaps. If the
         submitter falls behind schedule it submits immediately — the
         backlog is the service's problem, which is the point — and the
         delay counts in that request's latency. *)
      let u = Prng.float rng 1.0 in
      let gap_ms = -.Float.log (1.0 -. u) /. rate_per_s *. 1000.0 in
      due := !due +. gap_ms
    done;
    List.iter (fun (fut, late_ms) -> record ts ~late_ms (Future.await fut)) !pending);
  let wall_ms = Lq_metrics.Profile.now_ms () -. t0 in
  let completed = Atomic.get ts.completed_n in
  {
    wall_ms;
    submitted = Atomic.get ts.submitted_n;
    rejected = Atomic.get ts.rejected_n;
    completed;
    degraded = Atomic.get ts.degraded_n;
    timed_out = Atomic.get ts.timed_out_n;
    shed = Atomic.get ts.shed_n;
    failed = Atomic.get ts.failed_n;
    throughput_per_s = (if wall_ms > 0.0 then float_of_int completed /. (wall_ms /. 1000.0) else 0.0);
    latency = ts.lat;
    max_lateness_ms = !max_lateness_ms;
  }

let to_string r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "wall time: %.1f ms, throughput: %.1f completed/s\n" r.wall_ms
       r.throughput_per_s);
  Buffer.add_string buf
    (Printf.sprintf
       "requests: submitted %d | completed %d (%d degraded) | rejected %d | shed %d | \
        timed-out %d | failed %d  [%s]\n"
       r.submitted r.completed r.degraded r.rejected r.shed r.timed_out r.failed
       (if conserved r then "conserved" else "NOT CONSERVED"));
  Buffer.add_string buf (Printf.sprintf "client latency ms: %s\n" (Histogram.summary r.latency));
  (if r.completed > 0 then
     let q = Histogram.quantile r.latency in
     Buffer.add_string buf
       (Printf.sprintf "  p50 %.2f  p90 %.2f  p95 %.2f  p99 %.2f  max %.2f\n" (q 0.5)
          (q 0.9) (q 0.95) (q 0.99) (Histogram.max_value r.latency)));
  Buffer.add_string buf
    (Printf.sprintf "max submitter lateness: %.2f ms\n" r.max_lateness_ms);
  Buffer.contents buf
