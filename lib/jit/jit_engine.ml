module Engine_intf = Lq_catalog.Engine_intf
module Catalog = Lq_catalog.Catalog
module Value = Lq_value.Value
module Layout = Lq_storage.Layout
module Dict = Lq_storage.Dict
module Rowstore = Lq_storage.Rowstore
module Profile = Lq_metrics.Profile
module Counters = Lq_metrics.Counters
module Trace = Lq_trace.Trace
module Codegen_c = Lq_native.Codegen_c
module Loop = Lq_native.Loop
module Nplan = Lq_native.Nplan

let counters = Backend.counters

(* --- dictionary snapshot --------------------------------------------- *)

(* The generated code compares and decodes strings through a read-only
   snapshot of the shared dictionary: concatenated bytes plus (size + 1)
   int32 offsets. Built after parameter interning (which may grow the
   dictionary) and cached on the dictionary size — codes are append-only,
   so a same-size snapshot is current. *)
let snapshot cache dict =
  let n = Dict.size dict in
  match Atomic.get cache with
  | Some (sz, db, dofs) when sz = n -> (db, dofs)
  | _ ->
    let dofs = Bytes.create ((n + 1) * 4) in
    let total = ref 0 in
    for i = 0 to n - 1 do
      Bytes.set_int32_le dofs (i * 4) (Int32.of_int !total);
      total := !total + String.length (Dict.get dict i)
    done;
    Bytes.set_int32_le dofs (n * 4) (Int32.of_int !total);
    let db = Bytes.create !total in
    let pos = ref 0 in
    for i = 0 to n - 1 do
      let s = Dict.get dict i in
      Bytes.blit_string s 0 db !pos (String.length s);
      pos := !pos + String.length s
    done;
    Atomic.set cache (Some (n, db, dofs));
    (db, dofs)

(* --- the native call --------------------------------------------------- *)

(* What executing one compiled program needs, fixed at prepare. *)
type native = {
  ir : Loop.t;
  prog : Codegen_c.program;
  stores : Rowstore.t array;  (** behind [prog.scan_tables] *)
  out_layout : Layout.t;
  snap : (int * Bytes.t * Bytes.t) option Atomic.t;
}

(* Everything the entry point consumes, in one place: the in-process
   trampoline and the validation sandbox must see byte-identical inputs
   or the differential check would compare different executions. The
   registers are bound by the interpreter's own binding ([Loop.bind]). *)
let pack n dict ~params : Validate.input =
  let ip = Bytes.create (8 * Array.length n.ir.Loop.int_regs) in
  let fp = Bytes.create (8 * Array.length n.ir.Loop.float_regs) in
  Loop.bind n.ir dict params
    ~int:(fun k v -> Bytes.set_int64_le ip (k * 8) (Int64.of_int v))
    ~float:(fun k v -> Bytes.set_int64_le fp (k * 8) (Int64.bits_of_float v));
  (* Snapshot after binding, which interns: parameter strings must be in
     the snapshot. *)
  let db, dofs =
    if n.prog.Codegen_c.needs_dict then snapshot n.snap dict else (Bytes.empty, Bytes.empty)
  in
  (* Row pages re-fetched per execution: appends re-allocate the buffer. *)
  {
    Validate.srcs = Array.map Rowstore.data n.stores;
    nrows = Array.map Rowstore.length n.stores;
    ip;
    fp;
    db;
    dofs;
    width = Layout.row_width n.out_layout;
  }

(* The object returns the total row count even past [cap]: one retry
   with an exact-size buffer suffices (sources cannot change mid-call). *)
let call_native (art : Backend.artifact) (inp : Validate.input) =
  let width = inp.Validate.width in
  let rec call cap =
    let out = Bytes.create (max width (cap * width)) in
    let total =
      Dl.raw_call art.Backend.fn inp.Validate.srcs inp.Validate.nrows inp.Validate.ip
        inp.Validate.fp inp.Validate.db inp.Validate.dofs out cap
    in
    (* -2: a zero integer divisor, where the interpreted tier's (/) and
       (mod) raise — the same exception, so the same request fault. *)
    if total = -2 then raise Division_by_zero
    else if total < 0 then Engine_intf.execution_failed "jit: native arena out of memory"
    else if total > cap then call total
    else (out, total)
  in
  call 1024

let decode_rows n dict buf total =
  let width = Layout.row_width n.out_layout in
  let fields = Layout.fields n.out_layout in
  let rows = ref [] in
  for r = total - 1 downto 0 do
    let base = r * width in
    let v =
      if n.prog.Codegen_c.out_scalar then Rowstore.decode dict buf fields.(0) base
      else
        Value.Record
          (Array.map (fun f -> (f.Layout.name, Rowstore.decode dict buf f base)) fields)
    in
    rows := v :: !rows
  done;
  !rows

let short_digest d = if String.length d > 12 then String.sub d 0 12 else d

let run_jit art n dict ~params =
  let out, total = call_native art (pack n dict ~params) in
  decode_rows n dict out total

(* --- sandboxed validation ---------------------------------------------- *)

(* Row equality with a relative tolerance on floats (same policy as the
   differential tests): the sandbox runs the identical object on the
   identical bytes, but the *reference* is the interpreter, whose float
   folds may differ in the last bits. *)
let rec value_close a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
    x = y
    || Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
  | Value.Record fa, Value.Record fb ->
    Array.length fa = Array.length fb
    && Array.for_all2
         (fun (na, va) (nb, vb) -> String.equal na nb && value_close va vb)
         fa fb
  | Value.List xa, Value.List xb ->
    List.length xa = List.length xb && List.for_all2 value_close xa xb
  | _ -> Value.equal a b

let rows_close expected got =
  List.length expected = List.length got && List.for_all2 value_close expected got

(* The "jit/validate" chaos point simulates the three ways a bad artifact
   can fail its sandboxed first run; the armed fault's kind picks which:
   [internal] crashes the child (SIGSEGV), [transient] wedges it until
   the deadline kill, anything else simulates silently wrong rows. *)
let validation_chaos () =
  match Lq_fault.Inject.hit "jit/validate" with
  | () -> (Validate.No_chaos, false)
  | exception Lq_fault.Fault f -> (
    match f.Lq_fault.kind with
    | Lq_fault.Internal -> (Validate.Chaos_crash, false)
    | Lq_fault.Transient -> (Validate.Chaos_hang, false)
    | _ -> (Validate.No_chaos, true))

let poison_rows = function
  | [] -> [ Value.Int max_int ]
  | row :: rest -> Value.Int max_int :: row :: rest

(* One sandboxed validation of [art]: execute it in the runner child on
   the exact bytes an in-process call would see, diff the decoded rows
   against the interpreter. Returns [Ok oracle_rows] (promote; the rows
   double as this request's answer) or [Error (msg, oracle_rows)] (park
   at Failed; serve the rows interpreted). Never lets the artifact run
   in-process before it has passed. *)
let validate_artifact (art : Backend.artifact) n dict nplan ~params =
  let chaos, diverge = validation_chaos () in
  let oracle = Nplan.execute nplan ~params () in
  let inp = pack n dict ~params in
  Counters.incr counters "service/jit/validations";
  Trace.with_span Trace.Jit_validate ("validate " ^ short_digest art.Backend.digest)
    (fun () ->
      let fail outcome msg =
        Trace.span_attr "outcome" outcome;
        Counters.incr counters "service/jit/validation_failures";
        Error (msg, oracle)
      in
      match Validate.run ~so_path:art.Backend.so_path ~chaos inp with
      | Validate.Crashed signal ->
        fail "crashed"
          (Printf.sprintf "validation: artifact killed the sandbox (%s)" signal)
      | Validate.Timed_out ms ->
        fail "timeout" (Printf.sprintf "validation: artifact wedged; killed after %.0f ms" ms)
      | Validate.Child_failed msg -> fail "error" ("validation: " ^ msg)
      | Validate.Pass (buf, total) ->
        let rows = decode_rows n dict buf total in
        let rows = if diverge then poison_rows rows else rows in
        if rows_close oracle rows then begin
          Trace.span_attr "outcome" "passed";
          Counters.incr counters "service/jit/validations_passed";
          Ok oracle
        end
        else
          fail "divergent"
            (Printf.sprintf "validation: rows diverge from interpreter (%d vs %d rows)"
               (List.length rows) (List.length oracle)))

(* --- the engine -------------------------------------------------------- *)

let promoted art = if Tier.validate_enabled () then Tier.Pending art else Tier.Jit art

let schedule_compile mode slot (prog : Codegen_c.program) =
  let digest = Backend.digest_of_program prog in
  let name = "cc " ^ short_digest digest in
  Counters.incr counters "service/jit/queued";
  match mode with
  | `Sync ->
    if Backend.cc_available () then
      Trace.with_span Trace.Jit_compile name (fun () ->
        match Backend.get ~digest ~source:prog.Codegen_c.c_source with
        | Ok art -> Atomic.set slot (promoted art)
        | Error msg -> Engine_intf.codegen_failed "jit compile failed: %s" msg)
  | `Async ->
    Tier.submit (fun () ->
      if Backend.cc_available () then begin
        let tr = Trace.start ~label:("jit-compile " ^ short_digest digest) () in
        let outcome =
          Trace.with_trace tr (fun () ->
            Trace.with_span Trace.Jit_compile name (fun () ->
              match Backend.get ~digest ~source:prog.Codegen_c.c_source with
              | Ok art -> promoted art
              | Error msg -> Tier.Failed msg
              | exception exn ->
                Counters.incr counters "service/jit/compile_failures";
                Tier.Failed (Printexc.to_string exn)))
        in
        Trace.finish tr;
        Trace.Ring.note Trace.slow_log tr;
        Atomic.set slot outcome
      end)

let engine : Engine_intf.t =
  {
    Engine_intf.name = "compiled-c-jit";
    describe = "native JIT: emitted C compiled by cc, dlopened, tiered behind the interpreter";
    (* Same surface as the interpreted native backend: anything it can
       serve, this engine can serve (interpreted at worst). *)
    caps =
      {
        Engine_intf.caps_any with
        needs_flat_sources = true;
        supports_correlated = false;
        supports_group_no_selector = false;
      };
    prepare =
      (fun ?instr cat ~param_types plan ->
        let trace = Option.map (fun (i : Lq_catalog.Instr.t) -> i.Lq_catalog.Instr.trace) instr in
        let start = Profile.now_ms () in
        let ir, nplan =
          try
            let ir = Loop.lower cat ~params:param_types plan in
            (ir, Nplan.compile ?trace ir)
          with
          | Catalog.Not_flat table ->
            Engine_intf.unsupported
              "source %S is not an array of structs (flat schema required, §5)" table
          | Lq_expr.Typecheck.Type_error msg -> Engine_intf.unsupported "%s" msg
        in
        let native =
          match Codegen_c.emit_plan ir with
          | prog ->
            let store t = Catalog.store (Catalog.table cat t) in
            Some
              {
                ir;
                prog;
                stores = Array.of_list (List.map store prog.Codegen_c.scan_tables);
                out_layout = Layout.make prog.Codegen_c.out_fields;
                snap = Atomic.make None;
              }
          | exception Codegen_c.Unsupported_c _ ->
            Counters.incr counters "service/jit/unsupported";
            None
        in
        let mode = Tier.mode () in
        let slot = Atomic.make Tier.Interpreted in
        let dict = Catalog.dict cat in
        let source =
          match native with
          | Some n -> n.prog.Codegen_c.c_source
          | None -> Codegen_c.emit_lowered ir
        in
        (* Sync compiles here. Async compiles only a shape that recurs:
           the one execution that moves the count from 1 to 2 — exactly
           one, however Domains race — queues the cc run. Past that the
           count is only read. *)
        let note_execution =
          match native with
          | Some n when Tier.jit_enabled () -> (
            match mode with
            | `Sync ->
              schedule_compile mode slot n.prog;
              ignore
            | `Async ->
              let runs = Atomic.make 0 in
              fun () ->
                if Atomic.get runs < 2 && Atomic.fetch_and_add runs 1 = 1 then
                  schedule_compile mode slot n.prog)
          | _ -> ignore
        in
        let codegen_ms = Profile.now_ms () -. start in
        {
          Engine_intf.execute =
            (fun ~params () ->
              note_execution ();
              let serve_jit art n =
                Trace.span_attr "tier" "jit";
                Counters.incr counters "service/jit/exec_jit";
                run_jit art n dict ~params
              in
              let serve_interpreted () =
                Trace.span_attr "tier" "interpreted";
                Counters.incr counters "service/jit/exec_interpreted";
                Nplan.execute nplan ~params ()
              in
              match (Atomic.get slot, native) with
              | Tier.Jit art, Some n -> serve_jit art n
              | (Tier.Pending art as seen), Some n
                when Atomic.compare_and_set slot seen (Tier.Validating art) -> (
                (* This execution claimed the sandboxed validation. *)
                match mode with
                | `Sync -> (
                  match validate_artifact art n dict nplan ~params with
                  | Ok _ ->
                    Atomic.set slot (Tier.Jit art);
                    serve_jit art n
                  | Error (msg, oracle) ->
                    (* sticky: a bad artifact stays quarantined *)
                    Atomic.set slot (Tier.Failed msg);
                    Trace.span_attr "tier" "interpreted";
                    Counters.incr counters "service/jit/exec_interpreted";
                    oracle
                  | exception exn ->
                    (* The oracle itself failed — a request problem, not
                       the artifact's: surrender the claim so a later
                       execution revalidates, and fail this request the
                       way the interpreter would have. *)
                    Atomic.set slot (Tier.Pending art);
                    raise exn)
                | `Async ->
                  (* Validate on the worker Domain; this request (and any
                     until the verdict) serves interpreted. *)
                  Tier.submit (fun () ->
                    let tr =
                      Trace.start
                        ~label:("jit-validate " ^ short_digest art.Backend.digest)
                        ()
                    in
                    let outcome =
                      Trace.with_trace tr (fun () ->
                        match validate_artifact art n dict nplan ~params with
                        | Ok _ -> Tier.Jit art
                        | Error (msg, _) -> Tier.Failed msg
                        | exception exn ->
                          Counters.incr counters "service/jit/validation_failures";
                          Tier.Failed (Printexc.to_string exn))
                    in
                    Trace.finish tr;
                    Trace.Ring.note Trace.slow_log tr;
                    Atomic.set slot outcome);
                  serve_interpreted ())
              | _ -> serve_interpreted ());
          codegen_ms;
          source = Some source;
        });
  }
