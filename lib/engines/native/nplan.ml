open Lq_value
module Date = Lq_value.Date
module Dict = Lq_storage.Dict
module Layout = Lq_storage.Layout
module Ftype = Lq_storage.Ftype
module Fbuf = Lq_storage.Fbuf
module Rowstore = Lq_storage.Rowstore
module Catalog = Lq_catalog.Catalog
module Engine_intf = Lq_catalog.Engine_intf
module L = Loop

exception Enough

(* A position in a flat store: the segment loop writes [cell], compiled
   readers dereference it. *)
type cursor = { store : Rowstore.t; cell : int ref }

(* The per-plan float register file: float parameter registers, then
   sub-query cells, then literals and one destination slot per computed
   float node. Compilation numbers the slots and sizes the array last, so
   the closures reach it through this record. *)
type file = { mutable fr : float array }

(* An F64 field of a cursor's current row, read in place: the store's
   buffer is re-read per access because spill stores grow. *)
type field = { fstore : Rowstore.t; fcell : int ref; width : int; off : int }

(* Where a float value is read: a register-file slot, or a row field. *)
type fsrc = Slot of int | Field of field

(* A compiled float node. [pre], when present, stores the node's value for
   the current row into its slot; consumers run it, then read [src].
   Leaves (registers, cells, literals, untraced column reads) have none,
   so they are read where they are. No float crosses a closure boundary:
   a closure returning [float] would box it on every row. *)
type fnode = { pre : (unit -> unit) option; src : fsrc }

(* A compiled scalar: a monomorphic closure plus, for integer images, the
   host type it decodes to. *)
type v =
  | I of (unit -> int) * Vtype.t
  | F of fnode
  | B of (unit -> bool)

type t = {
  ir : L.t;
  dict : Dict.t;
  ints : int array;  (** integer registers *)
  file : file;
  cell_ints : int array;  (** per-execution integer sub-query cells *)
  cell_base : int;  (** register-file slot of float cell 0 *)
  run : (unit -> unit) -> unit;
  emit : unit -> Value.t;  (** boxes the current root element *)
  mu : Mutex.t;
      (** the plan's cursors, registers and accumulators are baked into
          the closures, so one execution at a time *)
}

let[@inline] fread file = function
  | Slot k -> Array.unsafe_get file.fr k
  | Field f ->
    Int64.float_of_bits
      (Bytes.get_int64_le (Rowstore.data f.fstore) ((!(f.fcell) * f.width) + f.off))

(* [body] after [pre]. *)
let after pre body =
  match pre with
  | None -> body
  | Some p ->
    fun () ->
      p ();
      body ()

(* [f] after [pre], for a consumer with one argument. *)
let after1 pre f =
  match pre with
  | None -> f
  | Some p ->
    fun x ->
      p ();
      f x

(* Both preparations, [first] first. *)
let both first second =
  match (first, second) with
  | None, p | p, None -> p
  | Some f, Some g ->
    Some
      (fun () ->
        f ();
        g ())

let as_int = function
  | I (f, _) -> f
  | B f -> fun () -> if f () then 1 else 0
  | F _ -> invalid_arg "Nplan: float in an integer position"

let as_float = function
  | F n -> n
  | I _ | B _ -> invalid_arg "Nplan: integer in a float position"

let as_bool = function
  | B f -> f
  | I _ | F _ -> invalid_arg "Nplan: value in a condition position"

let[@inline] float_of_key_parts ~hi ~lo =
  Int64.float_of_bits (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))

(* Hash-key images. A float's 64 bits do not fit one 63-bit OCaml int
   (truncation folds the sign bit away, conflating x and -x), so float
   keys contribute two parts. *)
let key_parts file = function
  | I (f, _) -> [ f ]
  | B f -> [ (fun () -> if f () then 1 else 0) ]
  | F { pre; src } ->
    [
      after pre (fun () ->
          Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float (fread file src)) 32));
      after pre (fun () ->
          Int64.to_int (Int64.logand (Int64.bits_of_float (fread file src)) 0xFFFFFFFFL));
    ]

(* A single integer image, for sort keys and index probes (integer-family
   values only; floats order through their own comparator). *)
let key_part file = function
  | F { pre; src } -> after pre (fun () -> Int64.to_int (Int64.bits_of_float (fread file src)))
  | v -> as_int v

let cmp_test (op : L.cmp) =
  match op with
  | L.Eq -> fun c -> c = 0
  | L.Ne -> fun c -> c <> 0
  | L.Lt -> fun c -> c < 0
  | L.Le -> fun c -> c <= 0
  | L.Gt -> fun c -> c > 0
  | L.Ge -> fun c -> c >= 0

(* Growable unboxed accumulator arrays. *)
let grow_i arr n =
  if n >= Array.length !arr then begin
    let a = Array.make (max 64 (2 * (n + 1))) 0 in
    Array.blit !arr 0 a 0 (Array.length !arr);
    arr := a
  end

let grow_f arr n =
  if n >= Array.length !arr then begin
    let a = Array.make (max 64 (2 * (n + 1))) 0.0 in
    Array.blit !arr 0 a 0 (Array.length !arr);
    arr := a
  end

let compile ?trace ?drive (ir : L.t) : t =
  let dict = Catalog.dict ir.L.cat in
  (* String literals are interned on the preparing Domain, as their reads
     compile (and the rest at the end), so per-execution binding only
     ever reads the dictionary for them. *)
  let intern_literal k =
    match ir.L.int_regs.(k) with
    | L.Str_const s -> ignore (Dict.intern dict s : int)
    | L.Named _ -> ()
  in
  let ints = Array.make (Array.length ir.L.int_regs) 0 in
  let cell_ints = Array.make (Array.length ir.L.cells) 0 in
  let cell_base = Array.length ir.L.float_regs in
  let file = { fr = [||] } in
  let nslots = ref (cell_base + Array.length ir.L.cells) in
  let literals = ref [] in
  let new_slot () =
    let d = !nslots in
    incr nslots;
    d
  in
  (* A computed float: [body d] stores the node's value into slot [d]. *)
  let computed body =
    let d = new_slot () in
    F { pre = Some (body d); src = Slot d }
  in
  let[@inline] set d x = Array.unsafe_set file.fr d x in
  let cursors = Hashtbl.create 8 in
  let groups = Hashtbl.create 4 in
  let new_cursor rel store =
    let cursor = { store; cell = ref 0 } in
    Hashtbl.replace cursors rel cursor;
    cursor
  in
  let reader cursor col =
    let f = Layout.field_at (Rowstore.layout cursor.store) col in
    let cell = cursor.cell in
    match (f.Layout.ftype, trace) with
    | Ftype.F64, None ->
      let width = Layout.row_width (Rowstore.layout cursor.store) in
      let field = { fstore = cursor.store; fcell = cell; width; off = f.Layout.offset } in
      F { pre = None; src = Field field }
    | Ftype.F64, Some _ ->
      (* Traced reads keep the store's reader: same addresses, same order. *)
      let r = Rowstore.float_reader ?trace cursor.store col in
      computed (fun d () -> set d (r !cell))
    | _ ->
      let r = Rowstore.int_reader ?trace cursor.store col in
      I ((fun () -> r !cell), f.Layout.vty)
  in
  let ity (e : L.expr) =
    match e.L.ty with
    | L.I ty -> ty
    | L.F | L.B -> invalid_arg "Nplan: untyped integer node"
  in
  let string_of v =
    let f = as_int v in
    fun () -> Dict.get dict (f ())
  in
  (* Stores a float node's value into slot [d] (an [If] branch). *)
  let store_into d { pre; src } = after pre (fun () -> set d (fread file src)) in
  let rec expr (e : L.expr) : v =
    match e.L.node with
    | L.Int_lit i -> I ((fun () -> i), ity e)
    | L.Bool_lit b -> B (fun () -> b)
    | L.Float_lit f ->
      let d = new_slot () in
      literals := (d, f) :: !literals;
      F { pre = None; src = Slot d }
    | L.Reg k -> (
      match e.L.ty with
      | L.F -> F { pre = None; src = Slot k }
      | L.I ty ->
        intern_literal k;
        I ((fun () -> ints.(k)), ty)
      | L.B -> B (fun () -> ints.(k) <> 0))
    | L.Cell k -> (
      match e.L.ty with
      | L.F -> F { pre = None; src = Slot (cell_base + k) }
      | _ -> I ((fun () -> cell_ints.(k)), ity e))
    | L.Col (rel, col) -> reader (Hashtbl.find cursors rel) col
    | L.Key (g, i) -> (fst (Hashtbl.find groups g)).(i)
    | L.Acc (g, i) -> (snd (Hashtbl.find groups g)).(i)
    | L.To_float a ->
      let f = as_int (expr a) in
      computed (fun d () -> set d (float_of_int (f ())))
    | L.To_bool a ->
      let f = as_int (expr a) in
      B (fun () -> f () <> 0)
    | L.Neg a -> (
      match expr a with
      | F { pre; src } -> computed (fun d -> after pre (fun () -> set d (-.fread file src)))
      | v ->
        let f = as_int v in
        I ((fun () -> -f ()), Vtype.Int))
    | L.Not a ->
      let f = as_bool (expr a) in
      B (fun () -> not (f ()))
    | L.And (a, b) ->
      let fa = as_bool (expr a) in
      let fb = as_bool (expr b) in
      B (fun () -> fa () && fb ())
    | L.Or (a, b) ->
      let fa = as_bool (expr a) in
      let fb = as_bool (expr b) in
      B (fun () -> fa () || fb ())
    | L.Arith (op, a, b) -> (
      match e.L.ty with
      | L.F ->
        let fa = as_float (expr a) and fb = as_float (expr b) in
        let sa = fa.src and sb = fb.src in
        (* One closure per operator and node, operands read in place: a
           field or a register on either side needs no copy. The right
           operand is prepared first, so traced column reads keep the
           order the cache-model traces are recorded in. *)
        let pre = both fb.pre fa.pre in
        computed (fun d ->
            after pre
              (match op with
              | L.Add -> fun () -> set d (fread file sa +. fread file sb)
              | L.Sub -> fun () -> set d (fread file sa -. fread file sb)
              | L.Mul -> fun () -> set d (fread file sa *. fread file sb)
              | L.Div -> fun () -> set d (fread file sa /. fread file sb)
              | L.Mod -> fun () -> set d (Float.rem (fread file sa) (fread file sb))))
      | _ -> (
        let fa = as_int (expr a) and fb = as_int (expr b) in
        let op : int -> int -> int =
          match op with
          | L.Add -> ( + )
          | L.Sub -> ( - )
          | L.Mul -> ( * )
          | L.Div -> ( / )
          | L.Mod -> ( mod )
        in
        I ((fun () -> op (fa ()) (fb ())), Vtype.Int)))
    | L.Cmp (op, order, a, b) -> (
      let test = cmp_test op in
      match order with
      | L.By_string -> (
        let fa = as_int (expr a) and fb = as_int (expr b) in
        match op with
        | L.Eq -> B (fun () -> fa () = fb ())
        | L.Ne -> B (fun () -> fa () <> fb ())
        | _ -> B (fun () -> test (String.compare (Dict.get dict (fa ())) (Dict.get dict (fb ())))))
      | L.By_int ->
        let fa = as_int (expr a) and fb = as_int (expr b) in
        B (fun () -> test (Int.compare (fa ()) (fb ())))
      | L.By_float ->
        let fa = as_float (expr a) and fb = as_float (expr b) in
        let sa = fa.src and sb = fb.src in
        (* [Float.compare]'s total order (NaN equal to itself, below every
           number), specialized per operator. *)
        B
          (after (both fb.pre fa.pre)
             (match op with
             | L.Eq -> fun () -> Float.compare (fread file sa) (fread file sb) = 0
             | L.Ne -> fun () -> Float.compare (fread file sa) (fread file sb) <> 0
             | L.Lt -> fun () -> Float.compare (fread file sa) (fread file sb) < 0
             | L.Le -> fun () -> Float.compare (fread file sa) (fread file sb) <= 0
             | L.Gt -> fun () -> Float.compare (fread file sa) (fread file sb) > 0
             | L.Ge -> fun () -> Float.compare (fread file sa) (fread file sb) >= 0))
      | L.By_bool ->
        let fa = as_bool (expr a) and fb = as_bool (expr b) in
        B (fun () -> test (Bool.compare (fa ()) (fb ()))))
    | L.If (c, t, f) -> (
      let fc = as_bool (expr c) in
      match e.L.ty with
      | L.F ->
        let f1 = as_float (expr t) and f2 = as_float (expr f) in
        computed (fun d ->
            let s1 = store_into d f1 and s2 = store_into d f2 in
            fun () -> if fc () then s1 () else s2 ())
      | L.B ->
        let f1 = as_bool (expr t) and f2 = as_bool (expr f) in
        B (fun () -> if fc () then f1 () else f2 ())
      | L.I ty ->
        let f1 = as_int (expr t) and f2 = as_int (expr f) in
        I ((fun () -> if fc () then f1 () else f2 ()), ty))
    | L.Like (s, pattern) ->
      let fs = string_of (expr s) in
      B (fun () -> Lq_expr.Scalar.like_match ~pattern (fs ()))
    | L.Like_param { subject; pattern; lead; trail } ->
      let fs = string_of (expr subject) in
      let code = as_int (expr pattern) in
      (* The pattern is fixed per execution: affix it when its code
         changes, not on every row. *)
      let last = ref (-1) and affixed = ref "" in
      B
        (fun () ->
          let s = fs () in
          let c = code () in
          if c <> !last then begin
            affixed := (if lead then "%" else "") ^ Dict.get dict c ^ if trail then "%" else "";
            last := c
          end;
          Lq_expr.Scalar.like_match ~pattern:!affixed s)
    | L.Case (case, a) ->
      let fs = string_of (expr a) in
      let convert =
        match case with `Lower -> String.lowercase_ascii | `Upper -> String.uppercase_ascii
      in
      I ((fun () -> Dict.intern dict (convert (fs ()))), Vtype.String)
    | L.Length a ->
      let fs = string_of (expr a) in
      I ((fun () -> String.length (fs ())), Vtype.Int)
    | L.Abs a -> (
      match expr a with
      | F { pre; src } ->
        computed (fun d -> after pre (fun () -> set d (Float.abs (fread file src))))
      | v ->
        let f = as_int v in
        I ((fun () -> abs (f ())), Vtype.Int))
    | L.Year a ->
      let f = as_int (expr a) in
      I ((fun () -> Date.year (f ())), Vtype.Int)
    | L.Add_days (d, n) ->
      let fd = as_int (expr d) and fn = as_int (expr n) in
      I ((fun () -> fd () + fn ()), Vtype.Date)
  in
  let to_value = function
    | I (f, Vtype.Int) -> fun () -> Value.Int (f ())
    | I (f, Vtype.Date) -> fun () -> Value.Date (f ())
    | I (f, Vtype.Bool) -> fun () -> Value.Bool (f () <> 0)
    | I (f, Vtype.String) -> fun () -> Value.Str (Dict.get dict (f ()))
    | I (f, _) -> fun () -> Value.Int (f ())
    | F { pre; src } -> after pre (fun () -> Value.Float (fread file src))
    | B f -> fun () -> Value.Bool (f ())
  in
  let key_closures keys =
    Array.of_list (List.concat_map (fun e -> key_parts file (expr e)) keys)
  in
  (* Materialize the spilled columns into a fresh flat intermediate store,
     one monomorphic writer per column with offsets resolved once;
     [alloc_row] has grown the buffer before any write runs. *)
  let spill ({ rel; cols } : L.spill) =
    let layout = ir.L.rels.(rel) in
    let store = Rowstore.create ~layout ~dict () in
    let width = Layout.row_width layout in
    let writers =
      List.mapi
        (fun col e ->
          let f = Layout.field_at layout col in
          let off = f.Layout.offset in
          match (expr e, f.Layout.ftype) with
          | F { pre; src }, _ ->
            after1 pre (fun row ->
                Bytes.set_int64_le (Rowstore.data store) ((row * width) + off)
                  (Int64.bits_of_float (fread file src)))
          | v, Ftype.I64 ->
            let g = as_int v in
            fun row -> Fbuf.set_i64 (Rowstore.data store) ((row * width) + off) (g ())
          | v, (Ftype.I32 | Ftype.Date32 | Ftype.Str32) ->
            let g = as_int v in
            fun row -> Fbuf.set_i32 (Rowstore.data store) ((row * width) + off) (g ())
          | v, Ftype.Bool8 ->
            let g = as_int v in
            fun row -> Fbuf.set_bool (Rowstore.data store) ((row * width) + off) (g () <> 0)
          | _, Ftype.F64 -> assert false)
        cols
    in
    let writers = Array.of_list writers in
    let nwriters = Array.length writers in
    let write_current () =
      let row = Rowstore.alloc_row store in
      for w = 0 to nwriters - 1 do
        (Array.unsafe_get writers w) row
      done;
      row
    in
    (store, write_current, new_cursor rel store)
  in
  (* Conjuncts arrive cheapest-first; wrapping in list order runs the
     cheapest test first. *)
  let filters run preds =
    List.fold_left
      (fun run pred ->
        let p = as_bool (expr pred) in
        fun sink -> run (fun () -> if p () then sink ()))
      run preds
  in
  let rec loop (l : L.loop) : (unit -> unit) -> unit =
    match l with
    | L.Scan { rel; table; store; staged } ->
      let cell = (new_cursor rel store).cell in
      if staged then begin
        let drive =
          match drive with
          | Some drive -> drive table
          | None -> invalid_arg ("Nplan.compile: no driver for staged source " ^ table)
        in
        fun sink ->
          drive (fun row ->
              cell := row;
              sink ())
      end
      else fun sink ->
        for i = 0 to Rowstore.length store - 1 do
          cell := i;
          sink ()
        done
    | L.Filter { input = L.Scan { rel; store; _ }; preds; probe = Some { index; conjunct; key } } ->
      (* The index yields ascending row numbers: scan order is kept. *)
      let key_image = key_part file (expr key) in
      let cell = (new_cursor rel store).cell in
      let run sink =
        Lq_exec.Int_table.Multi.iter_matches index (key_image ()) (fun row ->
            cell := row;
            sink ())
      in
      filters run (List.filteri (fun i _ -> i <> conjunct) preds)
    | L.Filter { input; preds; _ } -> filters (loop input) preds
    | L.Join { left; right; lkey; rkey; build } ->
      let lrun = loop left in
      let rrun = loop right in
      (* Build side: spill the right input, key it in a flat hash table. *)
      let rkey_closures = key_closures rkey in
      let nparts = Array.length rkey_closures in
      let rstore, rwrite, rcursor = spill build in
      let tbl = Ht.create ?trace ~nparts ~hint:1024 () in
      let lkey_closures = key_closures lkey in
      let scratch = Array.make nparts 0 in
      let rcell = rcursor.cell in
      fun sink ->
        Ht.clear tbl;
        Rowstore.clear rstore;
        (try
           rrun (fun () ->
               for p = 0 to nparts - 1 do
                 scratch.(p) <- rkey_closures.(p) ()
               done;
               let slot = Ht.lookup_or_insert tbl scratch in
               Ht.attach tbl ~slot (rwrite ()))
         with Enough -> ());
        let matched row =
          rcell := row;
          sink ()
        in
        lrun (fun () ->
            for p = 0 to nparts - 1 do
              scratch.(p) <- lkey_closures.(p) ()
            done;
            let slot = Ht.find tbl scratch in
            if slot >= 0 then Ht.iter_attached tbl ~slot matched)
    | L.Group { id; input; key; accs } -> group id input key accs
    | L.Sort { input; spill = sp; keys; limit } -> sort input sp keys limit
    | L.Limit (input, n) ->
      let run = loop input in
      let limit = as_int (expr n) in
      fun sink ->
        let lim = limit () in
        if lim > 0 then begin
          let emitted = ref 0 in
          try
            run (fun () ->
                sink ();
                incr emitted;
                if !emitted >= lim then raise Enough)
          with Enough -> ()
        end
    | L.Offset (input, n) ->
      let run = loop input in
      let offset = as_int (expr n) in
      fun sink ->
        let off = offset () in
        let seen = ref 0 in
        run (fun () ->
            incr seen;
            if !seen > off then sink ())
    | L.Distinct (input, keys) ->
      let run = loop input in
      let closures = key_closures keys in
      let nparts = Array.length closures in
      let scratch = Array.make nparts 0 in
      fun sink ->
        let tbl = Ht.create ?trace ~nparts ~hint:256 () in
        run (fun () ->
            for p = 0 to nparts - 1 do
              scratch.(p) <- closures.(p) ()
            done;
            let before = Ht.count tbl in
            let (_ : int) = Ht.lookup_or_insert tbl scratch in
            if Ht.count tbl > before then sink ())
  and group id input key accs =
    let run = loop input in
    let key_vs = List.map expr key in
    (* Each key field occupies one or two flattened hash-key parts (floats
       need two); remember the offsets for the output phase. *)
    let _, offsets =
      List.fold_left_map (fun off v -> (off + List.length (key_parts file v), off)) 0 key_vs
    in
    let key_closures = Array.of_list (List.concat_map (key_parts file) key_vs) in
    let nparts = Array.length key_closures in
    let tbl = Ht.create ?trace ~nparts ~hint:256 () in
    let cur_slot = ref 0 in
    (* Shared per-slot element count (Count/Avg read it; Min/Max use it to
       detect first-touch) — computed once, the §2.3 "overlap" fix. *)
    let counts = ref (Array.make 64 0) in
    (* Key readers for the output phase, typed like the key expressions. *)
    let key_reader part (v : v) =
      match v with
      | F _ ->
        computed (fun d () ->
            set d
              (float_of_key_parts
                 ~hi:(Ht.key_part tbl ~slot:!cur_slot ~part)
                 ~lo:(Ht.key_part tbl ~slot:!cur_slot ~part:(part + 1))))
      | B _ -> B (fun () -> Ht.key_part tbl ~slot:!cur_slot ~part <> 0)
      | I (_, ty) -> I ((fun () -> Ht.key_part tbl ~slot:!cur_slot ~part), ty)
    in
    (* A float accumulator's update, after its argument's preparation. *)
    let prepared pre (update : slot:int -> fresh:bool -> unit) =
      match pre with
      | None -> update
      | Some p ->
        fun ~slot ~fresh ->
          p ();
          update ~slot ~fresh
    in
    let make_acc (acc : L.acc) : (slot:int -> fresh:bool -> unit) * v =
      match acc with
      | L.Count -> ((fun ~slot:_ ~fresh:_ -> ()), I ((fun () -> !counts.(!cur_slot)), Vtype.Int))
      | L.Sum e -> (
        match expr e with
        | F { pre; src } ->
          let sums = ref (Array.make 64 0.0) in
          ( prepared pre (fun ~slot ~fresh ->
                grow_f sums slot;
                let x = fread file src in
                if fresh then !sums.(slot) <- x else !sums.(slot) <- !sums.(slot) +. x),
            computed (fun d () -> set d !sums.(!cur_slot)) )
        | v ->
          let f = as_int v in
          let sums = ref (Array.make 64 0) in
          ( (fun ~slot ~fresh ->
              grow_i sums slot;
              if fresh then !sums.(slot) <- f () else !sums.(slot) <- !sums.(slot) + f ()),
            I ((fun () -> !sums.(!cur_slot)), Vtype.Int) ))
      | L.Avg e ->
        let { pre; src } = as_float (expr e) in
        let sums = ref (Array.make 64 0.0) in
        ( prepared pre (fun ~slot ~fresh ->
              grow_f sums slot;
              let x = fread file src in
              if fresh then !sums.(slot) <- x else !sums.(slot) <- !sums.(slot) +. x),
          computed (fun d () -> set d (!sums.(!cur_slot) /. float_of_int !counts.(!cur_slot))) )
      | L.Min_max { max; arg; order } -> (
        let keep_left cmp = if max then cmp > 0 else cmp < 0 in
        match (order, expr arg) with
        | L.By_float, v ->
          let { pre; src } = as_float v in
          let best = ref (Array.make 64 0.0) in
          ( prepared pre (fun ~slot ~fresh ->
                grow_f best slot;
                let x = fread file src in
                if fresh || keep_left (Float.compare x !best.(slot)) then !best.(slot) <- x),
            computed (fun d () -> set d !best.(!cur_slot)) )
        | L.By_string, v ->
          let f = as_int v in
          let best = ref (Array.make 64 0) in
          ( (fun ~slot ~fresh ->
              grow_i best slot;
              let v = f () in
              if
                fresh
                || keep_left (String.compare (Dict.get dict v) (Dict.get dict !best.(slot)))
              then !best.(slot) <- v),
            I ((fun () -> !best.(!cur_slot)), Vtype.String) )
        | _, v ->
          let f = as_int v in
          let best = ref (Array.make 64 0) in
          ( (fun ~slot ~fresh ->
              grow_i best slot;
              let v = f () in
              if fresh || keep_left (Int.compare v !best.(slot)) then !best.(slot) <- v),
            I ((fun () -> !best.(!cur_slot)), ity arg) ))
    in
    let accs = Array.map make_acc accs in
    Hashtbl.replace groups id
      (Array.of_list (List.map2 key_reader offsets key_vs), Array.map snd accs);
    let scratch = Array.make nparts 0 in
    let update_arr = Array.map fst accs in
    fun sink ->
      Ht.clear tbl;
      Array.fill !counts 0 (Array.length !counts) 0;
      (try
         run (fun () ->
             for p = 0 to nparts - 1 do
               scratch.(p) <- key_closures.(p) ()
             done;
             let before = Ht.count tbl in
             let slot = Ht.lookup_or_insert tbl scratch in
             let fresh = Ht.count tbl > before in
             grow_i counts slot;
             for a = 0 to Array.length update_arr - 1 do
               update_arr.(a) ~slot ~fresh
             done;
             !counts.(slot) <- !counts.(slot) + 1)
       with Enough -> ());
      for slot = 0 to Ht.count tbl - 1 do
        cur_slot := slot;
        sink ()
      done
  and sort input sp keys limit =
    let run = loop input in
    let store, write, cursor = spill sp in
    (* Per-key extraction columns, typed; strings decode at compare. *)
    let extractors =
      List.map
        (fun ({ by; order; desc } : L.sort_key) ->
          let sign = if desc then -1 else 1 in
          match (order, expr by) with
          | L.By_float, v ->
            let { pre; src } = as_float v in
            let col = ref (Array.make 1024 0.0) in
            ( after1 pre (fun row ->
                  grow_f col row;
                  !col.(row) <- fread file src),
              fun i j -> sign * Float.compare !col.(i) !col.(j) )
          | L.By_string, v ->
            let f = as_int v in
            let col = ref (Array.make 1024 0) in
            ( (fun row ->
                grow_i col row;
                !col.(row) <- f ()),
              fun i j ->
                sign * String.compare (Dict.get dict !col.(i)) (Dict.get dict !col.(j)) )
          | _, v ->
            let f = key_part file v in
            let col = ref (Array.make 1024 0) in
            ( (fun row ->
                grow_i col row;
                !col.(row) <- f ()),
              fun i j -> sign * Int.compare !col.(i) !col.(j) ))
        keys
    in
    let limit = Option.map (fun e -> as_int (expr e)) limit in
    let extract = Array.of_list (List.map fst extractors) in
    let comparators = Array.of_list (List.map snd extractors) in
    let nkeys = Array.length comparators in
    let rec cmp_from k i j =
      if k = nkeys then Int.compare i j
      else
        let r = comparators.(k) i j in
        if r <> 0 then r else cmp_from (k + 1) i j
    in
    let cmp i j = cmp_from 0 i j in
    let cell = cursor.cell in
    fun sink ->
      Rowstore.clear store;
      let count = ref 0 in
      (try
         run (fun () ->
             let row = write () in
             for k = 0 to nkeys - 1 do
               extract.(k) row
             done;
             incr count)
       with Enough -> ());
      let n = !count in
      let emit idx =
        Array.iter
          (fun i ->
            cell := i;
            sink ())
          idx
      in
      match limit with
      | None ->
        let idx = Array.init n Fun.id in
        Lq_exec.Quicksort.indices_by ~cmp idx;
        emit idx
      | Some limit ->
        let k = limit () in
        let heap = Lq_exec.Topk.create ~cmp ~k in
        for i = 0 to n - 1 do
          Lq_exec.Topk.push heap i
        done;
        emit (Array.of_list (Lq_exec.Topk.to_sorted_list heap))
  in
  let run = loop ir.L.root in
  let emit =
    match ir.L.out with
    | L.Scalar e -> to_value (expr e)
    | L.Fields fields ->
      let names = Array.of_list (List.map fst fields) in
      let boxed = Array.of_list (List.map (fun (_, e) -> to_value (expr e)) fields) in
      fun () -> Value.Record (Array.mapi (fun i f -> (names.(i), f ())) boxed)
    | L.Row rel ->
      (* Per-column readers with offsets resolved once (the §5.1 "return
         a pointer and decode in the caller" boundary). *)
      let cursor = Hashtbl.find cursors rel in
      let cell = cursor.cell in
      let fields = Layout.fields (Rowstore.layout cursor.store) in
      let names = Array.map (fun (f : Layout.field) -> f.Layout.name) fields in
      let readers = Array.mapi (fun col _ -> Rowstore.value_reader cursor.store col) fields in
      fun () -> Value.Record (Array.mapi (fun i r -> (names.(i), r !cell)) readers)
  in
  Array.iteri (fun k _ -> intern_literal k) ir.L.int_regs;
  file.fr <- Array.make !nslots 0.0;
  List.iter (fun (d, x) -> file.fr.(d) <- x) !literals;
  { ir; dict; ints; file; cell_ints; cell_base; run; emit; mu = Mutex.create () }

(* A compiled plan is a bundle of closures over shared cursors, registers
   and accumulator arrays — one execution at a time. The cache hands the
   same plan to every Domain, so executions of the *same* plan serialize
   here; distinct plans still run in parallel. *)
let execute t ~params () =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      L.bind t.ir t.dict params ~int:(Array.set t.ints) ~float:(Array.set t.file.fr);
      if Array.length t.ir.L.cells > 0 then begin
        let ectx = Catalog.eval_ctx t.ir.L.cat ~params in
        Array.iteri
          (fun k (cell : L.cell) ->
            let v = cell.L.eval ectx in
            match cell.L.cell_ty with
            | L.F -> t.file.fr.(t.cell_base + k) <- Value.to_float v
            | L.I _ | L.B -> (
              match L.int_image t.dict v with
              | Some i -> t.cell_ints.(k) <- i
              | None -> Engine_intf.execution_failed "sub-query produced %s" (Value.to_string v)))
          t.ir.L.cells
      end;
      let acc = ref [] in
      t.run (fun () -> acc := t.emit () :: !acc);
      List.rev !acc)
