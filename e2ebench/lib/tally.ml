(* Outcome accounting of the timed window.

   Every attempted operation lands in exactly one bucket, so

     attempted = ok + writes + failed + timed_out + rejected + shed + degraded

   holds by construction, and the error rate counts every read that did
   not come back as a plain answer from the engine it asked for: a
   degraded answer (served by the fallback engine) is an error here even
   though its rows may be right. Writes ([Catalog.replace]) cannot fail
   short of an exception, which aborts the run. *)

module Request = Lq_service.Request

type t = {
  mutable ok : int;
  mutable writes : int;
  mutable failed : int;
  mutable timed_out : int;
  mutable rejected : int;
  mutable shed : int;
  mutable degraded : int;
}

let create () =
  { ok = 0; writes = 0; failed = 0; timed_out = 0; rejected = 0; shed = 0; degraded = 0 }

let note t (r : (Request.response, Lq_service.Service.rejection) result) =
  match r with
  | Error _ -> t.rejected <- t.rejected + 1
  | Ok { Request.outcome; _ } -> (
    match outcome with
    | Request.Completed { degraded = false; _ } -> t.ok <- t.ok + 1
    | Request.Completed { degraded = true; _ } -> t.degraded <- t.degraded + 1
    | Request.Timed_out _ -> t.timed_out <- t.timed_out + 1
    | Request.Shed _ -> t.shed <- t.shed + 1
    | Request.Failed _ -> t.failed <- t.failed + 1)

let note_write t = t.writes <- t.writes + 1
let errors t = t.failed + t.timed_out + t.rejected + t.shed + t.degraded
let attempted t = t.ok + t.writes + errors t

let error_rate t =
  match attempted t with 0 -> 0. | n -> float_of_int (errors t) /. float_of_int n

let merge ts =
  let m = create () in
  List.iter
    (fun t ->
      m.ok <- m.ok + t.ok;
      m.writes <- m.writes + t.writes;
      m.failed <- m.failed + t.failed;
      m.timed_out <- m.timed_out + t.timed_out;
      m.rejected <- m.rejected + t.rejected;
      m.shed <- m.shed + t.shed;
      m.degraded <- m.degraded + t.degraded)
    ts;
  m
