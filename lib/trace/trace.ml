(* Per-request span trees.

   One [t] is the journey of one request: a root span opened at
   submission, child spans for every pipeline stage it crosses
   (queue wait, cache lookups, optimize, lower, codegen, execute,
   hybrid staging vs. native op, retry attempts, fallback hops,
   breaker events), each with a monotonic start and duration plus
   structured attributes.

   Spans are recorded through an *ambient* context carried in
   Domain-local storage — the same pattern as [Lq_fault.Governor] —
   so the provider and the engines need no signature changes: a span
   point inside [Provider.run] attaches to whatever request installed
   a trace on this Domain, and is a no-op otherwise. Each Domain that
   records into a trace gets its own append-only buffer (registered
   once under the trace mutex, then written lock-free by its owner),
   so a parallel-engine query can attribute partition spans to the
   right request without contending on a shared list; buffers are
   merged when the finished trace is read.

   Cost when idle: every span point starts with a single atomic load
   of the global live-trace count — with no trace in flight anywhere
   in the process, tracing is one predictable branch. *)

type kind =
  | Request
  | Queue
  | Cache_lookup
  | Optimize
  | Lower
  | Codegen
  | Execute
  | Staging
  | Native_op
  | Return_result
  | Retry_attempt
  | Fallback_hop
  | Breaker_event
  | Partition
  | Morsel
  | Jit_compile
  | Jit_validate

let kind_to_string = function
  | Request -> "request"
  | Queue -> "queue"
  | Cache_lookup -> "cache-lookup"
  | Optimize -> "optimize"
  | Lower -> "lower"
  | Codegen -> "codegen"
  | Execute -> "execute"
  | Staging -> "staging"
  | Native_op -> "native-op"
  | Return_result -> "return-result"
  | Retry_attempt -> "retry-attempt"
  | Fallback_hop -> "fallback-hop"
  | Breaker_event -> "breaker-event"
  | Partition -> "partition"
  | Morsel -> "morsel"
  | Jit_compile -> "jit-compile"
  | Jit_validate -> "jit-validate"

let all_kinds =
  [
    Request; Queue; Cache_lookup; Optimize; Lower; Codegen; Execute; Staging;
    Native_op; Return_result; Retry_attempt; Fallback_hop; Breaker_event; Partition;
    Morsel; Jit_compile; Jit_validate;
  ]

type span = {
  id : int;  (** unique within the trace, allocation-ordered *)
  parent : int;  (** 0 for the root *)
  kind : kind;
  name : string;
  start_ms : float;
  mutable dur_ms : float;  (** negative while the span is open *)
  mutable attrs : (string * string) list;  (** reversed insertion order *)
  domain : int;
}

(* One Domain's append-only slice of a trace. Only the owning Domain
   writes [items]; readers synchronize through request completion
   (Domain.join / the response future's mutex). *)
type buffer = {
  owner : int;
  mutable items : span list;
}

type t = {
  trace_id : int;
  label : string;
  clock : unit -> float;
  mu : Mutex.t;  (** guards [buffers] and [finished] *)
  mutable buffers : buffer list;
  next_span : int Atomic.t;
  root : span;
  mutable finished : bool;
}

(* ------------------------------------------------------------------ *)
(* global fast gate + ambient context *)

let live = Atomic.make 0
let next_trace_id = Atomic.make 1

type frame = {
  trace : t;
  parent : span;
  buf : buffer;
}

type context = frame

let dls : frame option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let default_clock = Lq_metrics.Profile.now_ms

let self () = (Domain.self () :> int)

let start ?(clock = default_clock) ?(label = "request") () =
  let root =
    {
      id = 1;
      parent = 0;
      kind = Request;
      name = label;
      start_ms = clock ();
      dur_ms = -1.0;
      attrs = [];
      domain = self ();
    }
  in
  Atomic.incr live;
  {
    trace_id = Atomic.fetch_and_add next_trace_id 1;
    label;
    clock;
    mu = Mutex.create ();
    buffers = [];
    next_span = Atomic.make 2;
    root;
    finished = false;
  }

let label t = t.label
let trace_id t = t.trace_id
let is_finished t = Mutex.protect t.mu (fun () -> t.finished)

let finish t =
  let already =
    Mutex.protect t.mu (fun () ->
        let was = t.finished in
        t.finished <- true;
        was)
  in
  if not already then begin
    if t.root.dur_ms < 0.0 then
      t.root.dur_ms <- Float.max 0.0 (t.clock () -. t.root.start_ms);
    Atomic.decr live
  end

let duration_ms t = if t.root.dur_ms < 0.0 then 0.0 else t.root.dur_ms

let buffer_for t =
  let me = self () in
  Mutex.protect t.mu (fun () ->
      match List.find_opt (fun b -> b.owner = me) t.buffers with
      | Some b -> b
      | None ->
        let b = { owner = me; items = [] } in
        t.buffers <- b :: t.buffers;
        b)

let spans t =
  let bufs = Mutex.protect t.mu (fun () -> t.buffers) in
  let all = t.root :: List.concat_map (fun b -> List.rev b.items) bufs in
  List.sort
    (fun a b ->
      match compare a.start_ms b.start_ms with 0 -> compare a.id b.id | c -> c)
    all

(* ------------------------------------------------------------------ *)
(* span points *)

let current () = Domain.DLS.get dls

let with_frame fr f =
  let prev = Domain.DLS.get dls in
  Domain.DLS.set dls fr;
  Fun.protect ~finally:(fun () -> Domain.DLS.set dls prev) f

let with_trace t f = with_frame (Some { trace = t; parent = t.root; buf = buffer_for t }) f

(* Re-install a captured context on another Domain (the parallel engine
   hands [current ()] to its partition Domains). The child gets its own
   buffer, so partition spans never contend with the coordinator's. *)
let with_context ctx f =
  match ctx with
  | None -> f ()
  | Some fr -> with_frame (Some { fr with buf = buffer_for fr.trace }) f

let tracing () = Atomic.get live > 0 && Domain.DLS.get dls <> None

let record fr kind name attrs start_ms dur_ms =
  let sp =
    {
      id = Atomic.fetch_and_add fr.trace.next_span 1;
      parent = fr.parent.id;
      kind;
      name;
      start_ms;
      dur_ms;
      attrs = List.rev attrs;
      domain = (Domain.self () :> int);
    }
  in
  fr.buf.items <- sp :: fr.buf.items;
  sp

let with_span ?(attrs = []) kind name f =
  if Atomic.get live = 0 then f ()
  else
    match Domain.DLS.get dls with
    | None -> f ()
    | Some fr ->
      let sp = record fr kind name attrs (fr.trace.clock ()) (-1.0) in
      Domain.DLS.set dls (Some { fr with parent = sp });
      Fun.protect
        ~finally:(fun () ->
          (* close exactly once, even on exceptions *)
          if sp.dur_ms < 0.0 then
            sp.dur_ms <- Float.max 0.0 (fr.trace.clock () -. sp.start_ms);
          Domain.DLS.set dls (Some fr))
        f

let span_attr key value =
  if Atomic.get live > 0 then
    match Domain.DLS.get dls with
    | None -> ()
    | Some fr -> fr.parent.attrs <- (key, value) :: fr.parent.attrs

let event ?(attrs = []) kind name =
  if Atomic.get live > 0 then
    match Domain.DLS.get dls with
    | None -> ()
    | Some fr -> ignore (record fr kind name attrs (fr.trace.clock ()) 0.0)

let add_span ?(attrs = []) kind name ~start_ms ~dur_ms =
  if Atomic.get live > 0 then
    match Domain.DLS.get dls with
    | None -> ()
    | Some fr -> ignore (record fr kind name attrs start_ms (Float.max 0.0 dur_ms))

(* ------------------------------------------------------------------ *)
(* phase breakdown: the only place phase time is read from *)

let is_phase = function
  | Execute | Staging | Native_op | Return_result -> true
  | _ -> false

let phases ?under t =
  let all = spans t in
  let inside =
    match under with
    | None -> fun _ -> true
    | Some top ->
      (* A parent's id is smaller than its children's, so one pass in id
         order marks the whole subtree. *)
      let ids = Hashtbl.create 16 in
      Hashtbl.replace ids top.id ();
      List.iter
        (fun (sp : span) -> if Hashtbl.mem ids sp.parent then Hashtbl.replace ids sp.id ())
        (List.sort (fun a b -> compare a.id b.id) all);
      fun (sp : span) -> Hashtbl.mem ids sp.id
  in
  let order = ref [] in
  let totals = Hashtbl.create 8 in
  List.iter
    (fun sp ->
      if is_phase sp.kind && inside sp then begin
        let ms = Float.max 0.0 sp.dur_ms in
        match Hashtbl.find_opt totals sp.name with
        | Some cell -> cell := !cell +. ms
        | None ->
          Hashtbl.add totals sp.name (ref ms);
          order := sp.name :: !order
      end)
    all;
  List.rev_map (fun name -> (name, !(Hashtbl.find totals name))) !order

(* ------------------------------------------------------------------ *)
(* sampling *)

module Sampler = struct
  (* splitmix64: one atomic step per decision, deterministic from the
     seed, shared safely across submitting Domains. *)
  type t = {
    p : float;
    state : int Atomic.t;
  }

  let create ?(seed = 42) ~p () =
    { p = Float.max 0.0 (Float.min 1.0 p); state = Atomic.make seed }

  let probability t = t.p

  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let sample t =
    if t.p >= 1.0 then true
    else if t.p <= 0.0 then false
    else begin
      let s = Atomic.fetch_and_add t.state 0x9e3779b9 in
      let u =
        Int64.to_float (Int64.shift_right_logical (mix (Int64.of_int s)) 11)
        /. 9007199254740992.0
      in
      u < t.p
    end
end

(* ------------------------------------------------------------------ *)
(* slow-trace ring *)

module Ring = struct
  type trace = t

  type t = {
    mu : Mutex.t;
    capacity : int;
    mutable slowest : trace list;  (** sorted, slowest first *)
  }

  let create ?(capacity = 8) () =
    { mu = Mutex.create (); capacity = max 1 capacity; slowest = [] }

  let capacity r = r.capacity

  let note r tr =
    Mutex.protect r.mu (fun () ->
        let rec insert = function
          | [] -> [ tr ]
          | x :: _ as rest when duration_ms tr >= duration_ms x -> tr :: rest
          | x :: rest -> x :: insert rest
        in
        let rec take n = function
          | [] -> []
          | _ when n = 0 -> []
          | x :: rest -> x :: take (n - 1) rest
        in
        r.slowest <- take r.capacity (insert r.slowest))

  let slowest r = Mutex.protect r.mu (fun () -> r.slowest)
  let clear r = Mutex.protect r.mu (fun () -> r.slowest <- [])

  let report r =
    match slowest r with
    | [] -> ""
    | traces ->
      let buf = Buffer.create 128 in
      Buffer.add_string buf "slow queries (traced):\n";
      List.iter
        (fun tr ->
          Buffer.add_string buf
            (Printf.sprintf "  %-20s %10.3f ms  (%d spans)\n" (label tr)
               (duration_ms tr)
               (List.length (spans tr))))
        traces;
      Buffer.contents buf
end

(* The process-global slow-query log: the service (and [lqcg trace])
   note every finished sampled trace here; [Provider.report] prints it. *)
let slow_log = Ring.create ~capacity:8 ()
