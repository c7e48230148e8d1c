module Engine_intf = Lq_catalog.Engine_intf
module Catalog = Lq_catalog.Catalog
module Value = Lq_value.Value
module Vtype = Lq_value.Vtype
module Layout = Lq_storage.Layout
module Ftype = Lq_storage.Ftype
module Fbuf = Lq_storage.Fbuf
module Dict = Lq_storage.Dict
module Rowstore = Lq_storage.Rowstore
module Profile = Lq_metrics.Profile
module Counters = Lq_metrics.Counters
module Trace = Lq_trace.Trace
module Codegen_c = Lq_native.Codegen_c
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

(* --- register binding (mirrors Nexpr.bind_params) -------------------- *)

let lookup params name =
  match List.assoc_opt name params with
  | Some v -> v
  | None -> Engine_intf.execution_failed "unbound query parameter %S" name

let pack_int_params dict params (int_params : Codegen_c.cparam list) =
  let ip = Bytes.create (8 * List.length int_params) in
  List.iteri
    (fun i p ->
      let v =
        match p with
        | Codegen_c.Str_const s -> Dict.intern dict s
        | Codegen_c.Named name -> (
          match lookup params name with
          | Value.Int i -> i
          | Value.Date d -> d
          | Value.Bool b -> if b then 1 else 0
          | Value.Str s -> Dict.intern dict s
          | v ->
            Engine_intf.execution_failed "parameter %S: expected integer-like, got %s" name
              (Value.to_string v))
      in
      Bytes.set_int64_le ip (i * 8) (Int64.of_int v))
    int_params;
  ip

let pack_float_params params float_params =
  let fp = Bytes.create (8 * List.length float_params) in
  List.iteri
    (fun i name ->
      Bytes.set_int64_le fp (i * 8) (Int64.bits_of_float (Value.to_float (lookup params name))))
    float_params;
  fp

(* --- result decoding -------------------------------------------------- *)

let decode_field dict buf base (f : Layout.field) =
  let off = base + f.Layout.offset in
  let as_int () =
    match f.Layout.ftype with
    | Ftype.I64 -> Fbuf.get_i64 buf off
    | Ftype.I32 | Ftype.Date32 | Ftype.Str32 -> Fbuf.get_i32 buf off
    | Ftype.Bool8 -> if Fbuf.get_bool buf off then 1 else 0
    | Ftype.F64 -> Engine_intf.execution_failed "jit: float field decoded as int"
  in
  match f.Layout.vty with
  | Vtype.Float -> Value.Float (Fbuf.get_f64 buf off)
  | Vtype.Int -> Value.Int (as_int ())
  | Vtype.Date -> Value.Date (as_int ())
  | Vtype.Bool -> Value.Bool (as_int () <> 0)
  | Vtype.String -> Value.Str (Dict.get dict (as_int ()))
  | Vtype.Record _ | Vtype.List _ ->
    Engine_intf.execution_failed "jit: non-scalar result field"

let decode_rows ~out_scalar out_layout dict buf total =
  let width = Layout.row_width out_layout in
  let fields = Layout.fields out_layout in
  let rows = ref [] in
  for r = total - 1 downto 0 do
    let base = r * width in
    let v =
      if out_scalar then decode_field dict buf base fields.(0)
      else Value.Record (Array.map (fun f -> (f.Layout.name, decode_field dict buf base f)) fields)
    in
    rows := v :: !rows
  done;
  !rows

let short_digest d = if String.length d > 12 then String.sub d 0 12 else d

(* --- the native call --------------------------------------------------- *)

(* Everything the entry point consumes, in one place: the in-process
   trampoline and the validation sandbox must see byte-identical inputs
   or the differential check would compare different executions. *)
let pack (prog : Codegen_c.program) stores out_layout snap dict ~params : Validate.input =
  let ip = pack_int_params dict params prog.Codegen_c.int_params in
  let fp = pack_float_params params prog.Codegen_c.float_params in
  (* Snapshot after interning: parameter strings must be in the snapshot. *)
  let db, dofs =
    if prog.Codegen_c.needs_dict then snapshot snap dict else (Bytes.empty, Bytes.empty)
  in
  (* Row pages re-fetched per execution: appends re-allocate the buffer. *)
  {
    Validate.srcs = Array.map Rowstore.data stores;
    nrows = Array.map Rowstore.length stores;
    ip;
    fp;
    db;
    dofs;
    width = Layout.row_width out_layout;
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
    if total < 0 then Engine_intf.execution_failed "jit: native arena out of memory"
    else if total > cap then call total
    else (out, total)
  in
  call 1024

let run_jit (art : Backend.artifact) (prog : Codegen_c.program) stores out_layout snap dict
    ~params =
  let inp = pack prog stores out_layout snap dict ~params in
  let out, total = call_native art inp in
  decode_rows ~out_scalar:prog.Codegen_c.out_scalar out_layout dict out total

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
let validate_artifact (art : Backend.artifact) (prog : Codegen_c.program) stores out_layout
    snap dict nplan ~params =
  let chaos, diverge = validation_chaos () in
  let oracle = Nplan.execute nplan ~params () in
  let inp = pack prog stores out_layout snap dict ~params in
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
        let rows = decode_rows ~out_scalar:prog.Codegen_c.out_scalar out_layout dict buf total in
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

let schedule_compile slot (prog : Codegen_c.program) =
  let digest = Backend.digest_of_program prog in
  let name = "cc " ^ short_digest digest in
  match Tier.mode () with
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
      (fun ?instr cat query ->
        let trace = Option.map (fun (i : Lq_catalog.Instr.t) -> i.Lq_catalog.Instr.trace) instr in
        let start = Profile.now_ms () in
        let lowered, nplan =
          try
            let lowered = Lq_plan.Lower.lower cat query in
            (lowered, Nplan.compile_lowered ?trace cat lowered)
          with
          | Catalog.Not_flat table ->
            Engine_intf.unsupported
              "source %S is not an array of structs (flat schema required, §5)" table
          | Lq_expr.Typecheck.Type_error msg -> Engine_intf.unsupported "%s" msg
        in
        let prog =
          match Codegen_c.emit_plan cat lowered with
          | p -> Some p
          | exception Codegen_c.Unsupported_c _ ->
            Counters.incr counters "service/jit/unsupported";
            None
        in
        let slot = Atomic.make Tier.Interpreted in
        let dict = Catalog.dict cat in
        let jit_ctx =
          Option.map
            (fun (p : Codegen_c.program) ->
              let stores =
                Array.of_list
                  (List.map (fun t -> Catalog.store (Catalog.table cat t)) p.scan_tables)
              in
              let out_layout = Layout.make p.out_fields in
              let snap = Atomic.make None in
              (p, stores, out_layout, snap))
            prog
        in
        let source =
          match prog with
          | Some p -> p.Codegen_c.c_source
          | None -> Codegen_c.emit_lowered cat lowered
        in
        (match prog with
        | Some p when Tier.jit_enabled () -> schedule_compile slot p
        | _ -> ());
        let codegen_ms = Profile.now_ms () -. start in
        {
          Engine_intf.execute =
            (fun ~params () ->
              let serve_jit art (p, stores, out_layout, snap) =
                Trace.span_attr "tier" "jit";
                Counters.incr counters "service/jit/exec_jit";
                run_jit art p stores out_layout snap dict ~params
              in
              let serve_interpreted () =
                Trace.span_attr "tier" "interpreted";
                Counters.incr counters "service/jit/exec_interpreted";
                Nplan.execute nplan ~params ()
              in
              match (Atomic.get slot, jit_ctx) with
              | Tier.Jit art, Some ctx -> serve_jit art ctx
              | (Tier.Pending art as seen), Some ((p, stores, out_layout, snap) as ctx)
                when Atomic.compare_and_set slot seen (Tier.Validating art) -> (
                (* This execution claimed the sandboxed validation. *)
                match Tier.mode () with
                | `Sync -> (
                  match
                    validate_artifact art p stores out_layout snap dict nplan ~params
                  with
                  | Ok _ ->
                    Atomic.set slot (Tier.Jit art);
                    serve_jit art ctx
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
                        match
                          validate_artifact art p stores out_layout snap dict nplan
                            ~params
                        with
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
