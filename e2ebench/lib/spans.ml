(* Benchmark-owned spans for the traced pass.

   The traced pass wraps each call it makes into a layer's public
   function in a span (request id, layer, start, duration, parent), so
   per-layer time is measured from outside the program and no span point
   inside it is needed. Spans stay in memory and are written out as one
   JSON array when the run ends. The recorder is single-Domain: the
   traced pass runs on one client. *)

type span = {
  id : int;
  parent : int;  (** 0 for a request's root span *)
  req : int;  (** schedule index of the request *)
  layer : string;
  start_ms : float;  (** since the recorder was created *)
  dur_ms : float;
}

type t = {
  origin : float;
  mutable next_id : int;
  mutable open_ids : int list;
  mutable spans : span list;  (** newest first *)
}

let now_ms = Lq_metrics.Profile.now_ms
let create () = { origin = now_ms (); next_id = 1; open_ids = []; spans = [] }

(* Runs [f] inside a span and returns its result with the span's
   duration. *)
let timed t ~req ~layer f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.open_ids with p :: _ -> p | [] -> 0 in
  t.open_ids <- id :: t.open_ids;
  let start = now_ms () in
  let close () =
    let dur_ms = now_ms () -. start in
    t.open_ids <- List.tl t.open_ids;
    t.spans <- { id; parent; req; layer; start_ms = start -. t.origin; dur_ms } :: t.spans;
    dur_ms
  in
  match f () with
  | v -> (v, close ())
  | exception e ->
    ignore (close ());
    raise e

let spans t = List.rev t.spans

let to_json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           {|{"id":%d,"parent":%d,"req":%d,"layer":"%s","start_ms":%.4f,"dur_ms":%.4f}|}
           s.id s.parent s.req s.layer s.start_ms s.dur_ms))
    (spans t);
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

let write t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_json t))
