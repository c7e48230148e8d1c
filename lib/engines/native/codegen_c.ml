(* The JIT tier's C printer (§5.1, closed loop).

   [emit_plan] prints a loop IR program ([Loop.t]) as a self-contained C
   translation unit with one entry point:

     int64_t lq_query(const unsigned char **srcs, const int64_t *nrows,
                      const int64_t *ip, const double *fp,
                      const unsigned char *db, const int32_t *dofs,
                      unsigned char *out, int64_t cap);

   - [srcs]/[nrows]: one raw row page (Rowstore data) + row count per
     entry of [program.scan_tables], in emission order;
   - [ip]/[fp]: the IR's integer and float registers, bound by
     [Loop.bind]. String constants and parameters arrive as dictionary
     codes — codes are process state and are never baked into the object;
   - [db]/[dofs]: a read-only dictionary snapshot (concatenated bytes +
     int32 offsets) for ordering, LIKE and Length, taken after binding;
   - [out]: a caller-owned result buffer of [cap] rows, packed with the
     [Layout.make program.out_fields] offsets. The function returns the
     TOTAL row count; rows past [cap] are counted but not written, so the
     caller grows the buffer and re-invokes.

   The IR fixed every type; the printer only chooses C spellings. Hash
   slots are dense in first-touch insertion order and join chains keep
   attach order, like the interpreter's [Ht]; sort comparators end with
   the index tiebreak; limits are stop flags. An IR node with no C form
   raises [Unsupported_c] and the JIT keeps serving the shape from the
   interpreted tier. Allocation failures longjmp to a single exit that
   frees the per-call arena and returns -1; a zero integer divisor
   returns -2 the same way. *)

open Lq_value
module L = Loop
module Layout = Lq_storage.Layout
module Ftype = Lq_storage.Ftype

exception Unsupported_c of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported_c s)) fmt
let spf = Printf.sprintf

(* The entry-point contract above; bump when it changes so cached .so
   files from older emitters are never dlopened. *)
let abi_version = 2

type program = {
  c_source : string;
  scan_tables : string list;
  int_params : L.reg list;
  float_params : string list;
  out_fields : (string * Vtype.t) list;
  out_scalar : bool;
  needs_dict : bool;
}

(* Where the current row of a relation lives: a row-page pointer, or the
   column arrays of a spill indexed by a row variable. *)
type view = Page of string | Spilled of string * string

type ctx = {
  ir : L.t;
  body : Buffer.t;
  aux : Buffer.t;  (** per-operator comparator functions, before lq_query *)
  mutable indent : int;
  mutable freshc : int;
  mutable scans : string list;  (** reversed *)
  mutable needs_dict : bool;
  views : (int, view) Hashtbl.t;
  groups : (int, string * int * L.acc array) Hashtbl.t;
      (** prefix, key part count, accumulators *)
}

let fresh c p =
  c.freshc <- c.freshc + 1;
  spf "%s%d" p c.freshc

let line c fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string c.body (String.make (2 * c.indent) ' ');
      Buffer.add_string c.body s;
      Buffer.add_char c.body '\n')
    fmt

let push c = c.indent <- c.indent + 1
let pop c = c.indent <- c.indent - 1

let scan_index c table =
  let k = List.length c.scans in
  c.scans <- table :: c.scans;
  k

let c_string_lit s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | ch when Char.code ch < 32 || Char.code ch > 126 ->
        Buffer.add_string b (spf "\\%03o" (Char.code ch))
      | ch -> Buffer.add_char b ch)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* --- expressions -------------------------------------------------- *)

let read_field base (f : Layout.field) =
  match f.Layout.ftype with
  | Ftype.F64 -> spf "rd_f64(%s + %d)" base f.Layout.offset
  | Ftype.I64 -> spf "rd_i64(%s + %d)" base f.Layout.offset
  | Ftype.I32 | Ftype.Date32 | Ftype.Str32 -> spf "rd_i32(%s + %d)" base f.Layout.offset
  | Ftype.Bool8 -> spf "((int64_t)%s[%d])" base f.Layout.offset

let arith_op = function
  | L.Add -> "+"
  | L.Sub -> "-"
  | L.Mul -> "*"
  | L.Div -> "/"
  | L.Mod -> "%"

let cmp_op = function
  | L.Eq -> "=="
  | L.Ne -> "!="
  | L.Lt -> "<"
  | L.Le -> "<="
  | L.Gt -> ">"
  | L.Ge -> ">="

(* C conditions are int 0/1, so a [B] value is already its integer image
   wherever an int64 is expected. *)
let rec code c (e : L.expr) =
  match e.L.node with
  | L.Int_lit i -> spf "INT64_C(%d)" i
  | L.Bool_lit b -> if b then "1" else "0"
  | L.Float_lit f ->
    if not (Float.is_finite f) then unsupported "non-finite float constant (C)";
    spf "%h" f
  | L.Reg k -> (
    match e.L.ty with
    | L.F -> spf "fp[%d]" k
    | L.B -> spf "(ip[%d] != 0)" k
    | L.I _ -> spf "ip[%d]" k)
  | L.Cell _ -> unsupported "sub-query evaluated per execution (C backend)"
  | L.Col (rel, col) -> (
    match Hashtbl.find c.views rel with
    | Page base -> read_field base (Layout.field_at c.ir.L.rels.(rel) col)
    | Spilled (pfx, row) -> spf "%s_c%d[%s]" pfx col row)
  | L.Key (g, i) -> (
    let pfx, np, _ = Hashtbl.find c.groups g in
    let part = spf "%s_h.keys[%s_s * %d + %d]" pfx pfx np i in
    match e.L.ty with
    | L.F -> spf "lq_keyf(%s)" part
    | L.B -> spf "(%s != 0)" part
    | L.I _ -> part)
  | L.Acc (g, i) -> (
    let pfx, _, accs = Hashtbl.find c.groups g in
    match accs.(i) with
    | L.Count -> spf "%s_cnt[%s_s]" pfx pfx
    | L.Avg _ -> spf "(%s_a%d[%s_s] / (double)%s_cnt[%s_s])" pfx i pfx pfx pfx
    | L.Sum _ | L.Min_max _ -> spf "%s_a%d[%s_s]" pfx i pfx)
  | L.To_float a -> spf "((double)%s)" (code c a)
  | L.To_bool a -> spf "(%s != 0)" (code c a)
  | L.Neg a -> spf "(-%s)" (code c a)
  | L.Not a -> spf "(!%s)" (code c a)
  | L.And (a, b) -> spf "(%s && %s)" (code c a) (code c b)
  | L.Or (a, b) -> spf "(%s || %s)" (code c a) (code c b)
  | L.Arith (op, a, b) -> (
    match (e.L.ty, op) with
    (* C99 [/] and [%] truncate toward zero like OCaml's (/) and (mod);
       the helpers trap a zero divisor, which OCaml raises on. *)
    | L.I _, L.Div -> spf "lq_idiv(&A, %s, %s)" (code c a) (code c b)
    | L.I _, L.Mod -> spf "lq_imod(&A, %s, %s)" (code c a) (code c b)
    | L.F, L.Mod -> spf "fmod(%s, %s)" (code c a) (code c b) (* = OCaml Float.rem *)
    | _ -> spf "(%s %s %s)" (code c a) (arith_op op) (code c b))
  | L.Cmp (op, L.By_string, a, b) when op <> L.Eq && op <> L.Ne ->
    c.needs_dict <- true;
    spf "(lq_strcmp(db, dofs, %s, %s) %s 0)" (code c a) (code c b) (cmp_op op)
  (* NaN-free data: IEEE compare agrees with OCaml Float.compare. *)
  | L.Cmp (op, _, a, b) -> spf "(%s %s %s)" (code c a) (cmp_op op) (code c b)
  | L.If (cond, a, b) -> spf "(%s ? %s : %s)" (code c cond) (code c a) (code c b)
  | L.Like (s, pattern) ->
    c.needs_dict <- true;
    spf "lq_like_code(db, dofs, %s, %d, 0, 0, %s)" (c_string_lit pattern)
      (String.length pattern) (code c s)
  | L.Like_param { subject; pattern; lead; trail } ->
    c.needs_dict <- true;
    spf "lq_like_dyn(db, dofs, %s, %d, %d, %s)" (code c pattern) (Bool.to_int lead)
      (Bool.to_int trail) (code c subject)
  | L.Case _ -> unsupported "string interning call (the C dictionary is read-only)"
  | L.Length a ->
    c.needs_dict <- true;
    let s = code c a in
    spf "((int64_t)(dofs[%s + 1] - dofs[%s]))" s s
  | L.Abs a -> (
    match e.L.ty with
    | L.F -> spf "fabs(%s)" (code c a)
    | _ -> spf "lq_iabs(%s)" (code c a))
  | L.Year a -> spf "lq_year(%s)" (code c a)
  | L.Add_days (d, n) -> spf "(%s + %s)" (code c d) (code c n)

(* One int64 hash part per field: float bits fit a whole part here
   (unlike the OCaml backend's two 63-bit halves); equality on the bit
   image matches Ht's two-part equality exactly. *)
let key_part c (e : L.expr) =
  match e.L.ty with
  | L.I _ -> code c e
  | L.B -> spf "((int64_t)%s)" (code c e)
  | L.F -> spf "lq_fkey(%s)" (code c e)

let c_type (e : L.expr) = if e.L.ty = L.F then "double" else "int64_t"

(* --- loops --------------------------------------------------------- *)

let stops_cond stops = String.concat "" (List.map (fun s -> " && !" ^ s) stops)

(* Spilled columns are typed arrays [<pfx>_c<i>]; a condition lands as
   int64 0/1 and reads back typed Bool — the interpreter's Rowstore
   round-trip, where a condition never survives a spill. *)
let declare_spill c pfx (sp : L.spill) =
  List.iteri
    (fun i e ->
      let var = spf "%s_c%d" pfx i in
      line c "%s *%s = NULL; int64_t %s_cap = 0;" (c_type e) var var)
    sp.L.cols

let write_spill c pfx (sp : L.spill) ~at =
  List.iteri
    (fun i (e : L.expr) ->
      let var = spf "%s_c%d" pfx i and ty = c_type e in
      line c "%s = (%s *)lq_grow(&A, %s, &%s_cap, %s, sizeof(%s));" var ty var var at ty;
      line c "%s[%s] = %s;" var at (if e.L.ty = L.F then code c e else key_part c e))
    sp.L.cols

let rec gen c (l : L.loop) ~stops : (unit -> unit) -> unit =
  match l with
  | L.Scan { staged = true; table; _ } ->
    unsupported "externally staged source %S (filled per execution by the managed side)" table
  | L.Scan { rel; table; store; staged = false } ->
    let width = Layout.row_width (Lq_storage.Rowstore.layout store) in
    let k = scan_index c table in
    let iv = fresh c "i" and rv = fresh c "r" in
    Hashtbl.replace c.views rel (Page rv);
    fun body ->
      line c "for (int64_t %s = 0; %s < nrows[%d]%s; %s++) {" iv iv k (stops_cond stops) iv;
      push c;
      line c "const unsigned char *%s = srcs[%d] + %s * %d;" rv k iv width;
      body ();
      pop c;
      line c "}"
  | L.Filter { input; preds; _ } -> (
    (* An index probe prints as the equality filter it replaced. *)
    let run = gen c input ~stops in
    fun body ->
      run (fun () ->
          (* Conjuncts arrive cheapest-first; && keeps that order. *)
          match List.map (code c) preds with
          | [] -> body ()
          | conds ->
            line c "if (%s) {" (String.concat " && " conds);
            push c;
            body ();
            pop c;
            line c "}"))
  | L.Join { left; right; lkey; rkey; build } -> gen_join c left right lkey rkey build ~stops
  | L.Group { id; input; key; accs } -> gen_group c id input key accs ~stops
  | L.Sort { input; spill; keys; limit } -> gen_sort c input spill keys limit ~stops
  | L.Limit (input, n) ->
    let flag = fresh c "st" in
    let run = gen c input ~stops:(stops @ [ flag ]) in
    let limv = fresh c "lim" and emv = fresh c "em" in
    fun body ->
      line c "int %s = 0;" flag;
      line c "int64_t %s = 0;" emv;
      line c "int64_t %s = %s;" limv (code c n);
      line c "if (%s > 0) {" limv;
      push c;
      run (fun () ->
          body ();
          line c "%s++;" emv;
          line c "if (%s >= %s) %s = 1;" emv limv flag);
      pop c;
      line c "}"
  | L.Offset (input, n) ->
    let run = gen c input ~stops in
    let offv = fresh c "off" and seenv = fresh c "seen" in
    fun body ->
      line c "int64_t %s = %s;" offv (code c n);
      line c "int64_t %s = 0;" seenv;
      run (fun () ->
          line c "%s++;" seenv;
          line c "if (%s > %s) {" seenv offv;
          push c;
          body ();
          pop c;
          line c "}")
  | L.Distinct (input, keys) ->
    let run = gen c input ~stops in
    let np = List.length keys in
    let pfx = fresh c "d" in
    fun body ->
      line c "lq_ht %s_h;" pfx;
      line c "lq_ht_init(&%s_h, &A, %d, 256);" pfx np;
      run (fun () ->
          line c "int64_t %s_kp[%d];" pfx np;
          List.iteri (fun i e -> line c "%s_kp[%d] = %s;" pfx i (key_part c e)) keys;
          line c "int64_t %s_b = %s_h.count;" pfx pfx;
          line c "(void)lq_ht_insert(&%s_h, %s_kp);" pfx pfx;
          line c "if (%s_h.count > %s_b) {" pfx pfx;
          push c;
          body ();
          pop c;
          line c "}")

(* Build the right side into attach-order chains, probe from the left.
   Chain cells store row+1; 0 marks empty, so lq_grow's zero-fill
   initializes them. *)
and gen_join c left right lkey rkey (build : L.spill) ~stops =
  let lrun = gen c left ~stops in
  let rrun = gen c right ~stops in
  let pfx = fresh c "j" in
  let np = List.length rkey in
  let rcur = spf "%s_r" pfx in
  Hashtbl.replace c.views build.L.rel (Spilled (pfx, rcur));
  fun body ->
    line c "lq_ht %s_h;" pfx;
    line c "lq_ht_init(&%s_h, &A, %d, 1024);" pfx np;
    declare_spill c pfx build;
    line c "int64_t %s_n = 0;" pfx;
    line c "int64_t *%s_head = NULL; int64_t %s_head_cap = 0;" pfx pfx;
    line c "int64_t *%s_tail = NULL; int64_t %s_tail_cap = 0;" pfx pfx;
    line c "int64_t *%s_next = NULL; int64_t %s_next_cap = 0;" pfx pfx;
    rrun (fun () ->
        line c "int64_t %s_kp[%d];" pfx np;
        List.iteri (fun i e -> line c "%s_kp[%d] = %s;" pfx i (key_part c e)) rkey;
        write_spill c pfx build ~at:(spf "%s_n" pfx);
        line c "int64_t %s_s = lq_ht_insert(&%s_h, %s_kp);" pfx pfx pfx;
        List.iter
          (fun (arr, idx) ->
            line c
              "%s_%s = (int64_t *)lq_grow(&A, %s_%s, &%s_%s_cap, %s_%s, sizeof(int64_t));"
              pfx arr pfx arr pfx arr pfx idx)
          [ ("head", "s"); ("tail", "s"); ("next", "n") ];
        line c "if (%s_head[%s_s] == 0) %s_head[%s_s] = %s_n + 1;" pfx pfx pfx pfx pfx;
        line c "else %s_next[%s_tail[%s_s] - 1] = %s_n + 1;" pfx pfx pfx pfx;
        line c "%s_tail[%s_s] = %s_n + 1;" pfx pfx pfx;
        line c "%s_next[%s_n] = 0;" pfx pfx;
        line c "%s_n++;" pfx);
    lrun (fun () ->
        line c "int64_t %s_lkp[%d];" pfx np;
        List.iteri (fun i e -> line c "%s_lkp[%d] = %s;" pfx i (key_part c e)) lkey;
        line c "int64_t %s_fs = lq_ht_find(&%s_h, %s_lkp);" pfx pfx pfx;
        line c "if (%s_fs >= 0) {" pfx;
        push c;
        line c
          "for (int64_t %s_ch = %s_head[%s_fs]; %s_ch != 0%s; %s_ch = %s_next[%s_ch - 1]) {"
          pfx pfx pfx pfx (stops_cond stops) pfx pfx pfx;
        push c;
        line c "const int64_t %s = %s_ch - 1;" rcur pfx;
        body ();
        pop c;
        line c "}";
        pop c;
        line c "}")

(* Accumulator [i] is the array [<pfx>_a<i>], folded at slot [<pfx>_us]
   per input row and read at [<pfx>_s] during output; counts are shared
   in [<pfx>_cnt]. *)
and gen_group c id input key accs ~stops =
  let run_in = gen c input ~stops in
  let pfx = fresh c "g" in
  let np = List.length key in
  Hashtbl.replace c.groups id (pfx, np, accs);
  let slotv = spf "%s_s" pfx and usv = spf "%s_us" pfx and freshv = spf "%s_fresh" pfx in
  let counts = spf "%s_cnt" pfx in
  let state i (acc : L.acc) =
    match acc with
    | L.Count -> None
    | L.Sum e | L.Avg e | L.Min_max { arg = e; _ } -> Some (spf "%s_a%d" pfx i, c_type e, e)
  in
  let update i (av, ty, e) =
    line c "%s = (%s *)lq_grow(&A, %s, &%s_cap, %s, sizeof(%s));" av ty av av usv ty;
    match accs.(i) with
    | L.Count -> ()
    | L.Sum _ | L.Avg _ ->
      let v = code c e in
      line c "if (%s) %s[%s] = %s; else %s[%s] += %s;" freshv av usv v av usv v
    | L.Min_max { max; order; _ } ->
      let tv = spf "%s_v%d" pfx i and keep = if max then ">" else "<" in
      line c "%s %s = %s;" ty tv (code c e);
      let better =
        match order with
        | L.By_float -> spf "lq_fcmp(%s, %s[%s]) %s 0" tv av usv keep
        | L.By_string ->
          c.needs_dict <- true;
          spf "lq_strcmp(db, dofs, %s, %s[%s]) %s 0" tv av usv keep
        | L.By_int | L.By_bool -> spf "%s %s %s[%s]" tv keep av usv
      in
      line c "if (%s || %s) %s[%s] = %s;" freshv better av usv tv
  in
  fun body ->
    line c "lq_ht %s_h;" pfx;
    line c "lq_ht_init(&%s_h, &A, %d, 256);" pfx np;
    line c "int64_t *%s = NULL; int64_t %s_cap = 0;" counts counts;
    Array.iteri
      (fun i acc ->
        Option.iter
          (fun (av, ty, _) -> line c "%s *%s = NULL; int64_t %s_cap = 0;" ty av av)
          (state i acc))
      accs;
    run_in (fun () ->
        line c "int64_t %s_kp[%d];" pfx np;
        List.iteri (fun i e -> line c "%s_kp[%d] = %s;" pfx i (key_part c e)) key;
        line c "int64_t %s_b = %s_h.count;" pfx pfx;
        line c "int64_t %s = lq_ht_insert(&%s_h, %s_kp);" usv pfx pfx;
        line c "int %s = %s_h.count > %s_b;" freshv pfx pfx;
        line c "%s = (int64_t *)lq_grow(&A, %s, &%s_cap, %s, sizeof(int64_t));" counts counts
          counts usv;
        Array.iteri (fun i acc -> Option.iter (update i) (state i acc)) accs;
        line c "%s[%s] += 1;" counts usv);
    line c "for (int64_t %s = 0; %s < %s_h.count%s; %s++) {" slotv slotv pfx (stops_cond stops)
      slotv;
    push c;
    body ();
    pop c;
    line c "}"

(* Key [i] is extracted into [<pfx>_k<i>] beside the spilled columns; the
   comparator — float three-way / dict-decoded string compare /
   integer-image compare, direction sign, then the row-index tiebreak for
   a total order — is a function over an explicit context struct, so the
   generated object stays reentrant across Domains. *)
and gen_sort c input (sp : L.spill) keys limit ~stops =
  let run_in = gen c input ~stops in
  let pfx = fresh c "s" in
  let rcur = spf "%s_r" pfx in
  Hashtbl.replace c.views sp.L.rel (Spilled (pfx, rcur));
  let keycols = List.mapi (fun i (k : L.sort_key) -> (spf "%s_k%d" pfx i, k)) keys in
  let sctx = spf "lq_sctx_%s" pfx and scmp = spf "lq_scmp_%s" pfx in
  let aux = Buffer.create 256 in
  Buffer.add_string aux (spf "struct %s {\n" sctx);
  Buffer.add_string aux "  const unsigned char *db;\n  const int32_t *dofs;\n";
  List.iter
    (fun (var, (k : L.sort_key)) ->
      Buffer.add_string aux (spf "  const %s *%s;\n" (c_type k.L.by) var))
    keycols;
  Buffer.add_string aux "};\n";
  Buffer.add_string aux (spf "static int %s(void *v, int64_t i, int64_t j) {\n" scmp);
  Buffer.add_string aux (spf "  const struct %s *c = (const struct %s *)v;\n  int r;\n" sctx sctx);
  List.iter
    (fun (var, (k : L.sort_key)) ->
      let cmp =
        match k.L.order with
        | L.By_float -> spf "lq_fcmp(c->%s[i], c->%s[j])" var var
        | L.By_string ->
          c.needs_dict <- true;
          spf "lq_strcmp(c->db, c->dofs, c->%s[i], c->%s[j])" var var
        | L.By_int | L.By_bool -> spf "lq_icmp(c->%s[i], c->%s[j])" var var
      in
      Buffer.add_string aux
        (spf "  r = %s; if (r) return %s;\n" cmp (if k.L.desc then "-r" else "r")))
    keycols;
  Buffer.add_string aux "  return lq_icmp(i, j);\n}\n";
  Buffer.add_buffer c.aux aux;
  fun body ->
    declare_spill c pfx sp;
    List.iter
      (fun (var, (k : L.sort_key)) ->
        line c "%s *%s = NULL; int64_t %s_cap = 0;" (c_type k.L.by) var var)
      keycols;
    line c "int64_t %s_n = 0;" pfx;
    run_in (fun () ->
        write_spill c pfx sp ~at:(spf "%s_n" pfx);
        List.iter
          (fun (var, (k : L.sort_key)) ->
            let ty = c_type k.L.by in
            line c "%s = (%s *)lq_grow(&A, %s, &%s_cap, %s_n, sizeof(%s));" var ty var var pfx
              ty;
            line c "%s[%s_n] = %s;" var pfx
              (if k.L.order = L.By_int then key_part c k.L.by else code c k.L.by))
          keycols;
        line c "%s_n++;" pfx);
    (* Fill the context struct only now: lq_grow moves column bases. *)
    line c "struct %s %s_ctx;" sctx pfx;
    line c "%s_ctx.db = db; %s_ctx.dofs = dofs;" pfx pfx;
    List.iter (fun (var, _) -> line c "%s_ctx.%s = %s;" pfx var var) keycols;
    line c
      "int64_t *%s_idx = (int64_t *)lq_alloc(&A, (%s_n ? %s_n : 1) * (int64_t)sizeof(int64_t));"
      pfx pfx pfx;
    line c "for (int64_t %s_i = 0; %s_i < %s_n; %s_i++) %s_idx[%s_i] = %s_i;" pfx pfx pfx pfx pfx
      pfx pfx;
    line c "lq_sort_idx(&A, %s_idx, %s_n, %s, &%s_ctx);" pfx pfx scmp pfx;
    (match limit with
    | None -> line c "int64_t %s_out = %s_n;" pfx pfx
    | Some lim ->
      (* Bounded heap ≡ full sort + take k under a total order. *)
      line c "int64_t %s_k = %s;" pfx (code c lim);
      line c "if (%s_k < 0) %s_k = 0;" pfx pfx;
      line c "int64_t %s_out = %s_k < %s_n ? %s_k : %s_n;" pfx pfx pfx pfx pfx);
    line c "for (int64_t %s_o = 0; %s_o < %s_out%s; %s_o++) {" pfx pfx pfx (stops_cond stops) pfx;
    push c;
    line c "const int64_t %s = %s_idx[%s_o];" rcur pfx pfx;
    body ();
    pop c;
    line c "}"

(* --- the fixed C runtime prelude ------------------------------------ *)

let prelude =
  {|#include <stdint.h>
#include <stddef.h>
#include <string.h>
#include <stdlib.h>
#include <setjmp.h>
#include <math.h>

#if defined(__BYTE_ORDER__) && (__BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__)
#error "lq_query: row pages are little-endian (Fbuf); big-endian hosts unsupported"
#endif

/* Unaligned little-endian row-page accessors: layouts are packed, so no
   field is guaranteed aligned — memcpy is the portable unaligned read. */
static inline int64_t rd_i32(const unsigned char *p) { int32_t v; memcpy(&v, p, 4); return (int64_t)v; }
static inline int64_t rd_i64(const unsigned char *p) { int64_t v; memcpy(&v, p, 8); return v; }
static inline double rd_f64(const unsigned char *p) { double v; memcpy(&v, p, 8); return v; }
static inline void wr_i32(unsigned char *p, int64_t v) { int32_t x = (int32_t)v; memcpy(p, &x, 4); }
static inline void wr_i64(unsigned char *p, int64_t v) { memcpy(p, &v, 8); }
static inline void wr_f64(unsigned char *p, double v) { memcpy(p, &v, 8); }

static inline int64_t lq_fkey(double x) { int64_t v; memcpy(&v, &x, 8); return v; }
static inline double lq_keyf(int64_t v) { double x; memcpy(&x, &v, 8); return x; }
/* IEEE three-way compare = OCaml Float.compare on NaN-free data. */
static inline int lq_fcmp(double a, double b) { return a < b ? -1 : (a > b ? 1 : 0); }
static inline int lq_icmp(int64_t a, int64_t b) { return a < b ? -1 : (a > b ? 1 : 0); }
static inline int64_t lq_iabs(int64_t x) { return x < 0 ? -x : x; }

/* Per-call arena: every allocation is tracked and freed at the single
   exit; malloc failure longjmps there and the call returns -1. */
typedef struct { void **ptrs; int64_t n, cap; jmp_buf env; } lq_arena;

static void *lq_alloc(lq_arena *A, int64_t sz) {
  if (sz < 1) sz = 1;
  if (A->n >= A->cap) {
    int64_t nc = A->cap ? A->cap * 2 : 64;
    void **np = (void **)realloc(A->ptrs, (size_t)nc * sizeof(void *));
    if (!np) longjmp(A->env, 1);
    A->ptrs = np; A->cap = nc;
  }
  void *p = malloc((size_t)sz);
  if (!p) longjmp(A->env, 1);
  A->ptrs[A->n++] = p;
  return p;
}

/* Grow a typed array to hold index [need]; fresh space is zeroed (the
   join chain heads rely on that). The old buffer stays in the arena
   until the exit free. */
static void *lq_grow(lq_arena *A, void *arr, int64_t *cap, int64_t need, int64_t esz) {
  if (need < *cap) return arr;
  int64_t nc = *cap ? *cap : 512;
  while (nc <= need) nc *= 2;
  void *p = lq_alloc(A, nc * esz);
  if (arr) memcpy(p, arr, (size_t)(*cap * esz));
  memset((char *)p + *cap * esz, 0, (size_t)((nc - *cap) * esz));
  *cap = nc;
  return p;
}

static void lq_arena_free(lq_arena *A) {
  for (int64_t i = 0; i < A->n; i++) free(A->ptrs[i]);
  free(A->ptrs);
  A->ptrs = NULL; A->n = 0; A->cap = 0;
}

/* Integer division and modulo: a zero divisor unwinds to the single
   exit, which returns -2 (OCaml's (/) and (mod) raise there); a -1
   divisor is spelled out, as INT64_MIN / -1 traps too. */
static inline int64_t lq_idiv(lq_arena *A, int64_t a, int64_t b) {
  if (b == 0) longjmp(A->env, 2);
  return b == -1 ? (int64_t)(0 - (uint64_t)a) : a / b;
}
static inline int64_t lq_imod(lq_arena *A, int64_t a, int64_t b) {
  if (b == 0) longjmp(A->env, 2);
  return b == -1 ? 0 : a % b;
}

/* Byte-lexicographic dictionary-code compare = OCaml String.compare. */
static int lq_strcmp(const unsigned char *db, const int32_t *dofs, int64_t a, int64_t b) {
  if (a == b) return 0;
  int32_t a0 = dofs[a], a1 = dofs[a + 1], b0 = dofs[b], b1 = dofs[b + 1];
  int64_t la = a1 - a0, lb = b1 - b0, m = la < lb ? la : lb;
  int r = memcmp(db + a0, db + b0, (size_t)m);
  if (r) return r < 0 ? -1 : 1;
  return la < lb ? -1 : (la > lb ? 1 : 0);
}

/* Scalar.like_match, verbatim semantics: % any run, _ one char,
   backtracking. [trail] treats pattern end as an implicit trailing %;
   [lead] tries every start offset — the StartsWith/EndsWith/Contains
   affixes without runtime pattern concatenation. */
static int lq_like_go(const char *p, int64_t np, const char *s, int64_t ns,
                      int64_t pi, int64_t si, int trail) {
  if (pi == np) return trail ? 1 : si == ns;
  char ch = p[pi];
  if (ch == '%') {
    for (int64_t j = si; j <= ns; j++)
      if (lq_like_go(p, np, s, ns, pi + 1, j, trail)) return 1;
    return 0;
  }
  if (si >= ns) return 0;
  if (ch == '_' || ch == s[si]) return lq_like_go(p, np, s, ns, pi + 1, si + 1, trail);
  return 0;
}

static int lq_like(const char *p, int64_t np, int lead, int trail,
                   const char *s, int64_t ns) {
  if (lead) {
    for (int64_t j = 0; j <= ns; j++)
      if (lq_like_go(p, np, s + j, ns - j, 0, 0, trail)) return 1;
    return 0;
  }
  return lq_like_go(p, np, s, ns, 0, 0, trail);
}

static int lq_like_code(const unsigned char *db, const int32_t *dofs,
                        const char *p, int64_t np, int lead, int trail, int64_t sc) {
  int32_t a = dofs[sc], b = dofs[sc + 1];
  return lq_like(p, np, lead, trail, (const char *)db + a, (int64_t)(b - a));
}

static int lq_like_dyn(const unsigned char *db, const int32_t *dofs,
                       int64_t pc, int lead, int trail, int64_t sc) {
  int32_t a = dofs[pc], b = dofs[pc + 1];
  return lq_like_code(db, dofs, (const char *)db + a, (int64_t)(b - a), lead, trail, sc);
}

/* Date.year: Hinnant civil-from-days, year component only. */
static int64_t lq_year(int64_t z) {
  z += 719468;
  int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  int64_t doe = z - era * 146097;
  int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  int64_t y = yoe + era * 400;
  int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  int64_t mp = (5 * doy + 2) / 153;
  int64_t m = mp < 10 ? mp + 3 : mp - 9;
  return m <= 2 ? y + 1 : y;
}

/* Flat open-addressing hash table on composite int64 keys — dense slots
   0,1,2,... in first-touch insertion order, exactly like the OCaml Ht,
   so grouped/joined/distinct output order is identical regardless of
   the hash function. Buckets hold slot+1; 0 is empty. */
typedef struct {
  lq_arena *A;
  int np;
  int64_t cap, count, kcap;
  int64_t *tab;   /* cap buckets */
  int64_t *keys;  /* kcap * np dense key parts */
} lq_ht;

static uint64_t lq_ht_hash(const int64_t *parts, int np) {
  uint64_t h = 1469598103934665603ULL;
  for (int i = 0; i < np; i++) {
    h ^= (uint64_t)parts[i];
    h *= 1099511628211ULL;
    h ^= h >> 29;
  }
  return h;
}

static void lq_ht_init(lq_ht *h, lq_arena *A, int np, int64_t hint) {
  int64_t cap = 16;
  while (cap < hint * 2) cap <<= 1;
  h->A = A; h->np = np; h->cap = cap; h->count = 0; h->kcap = 0;
  h->tab = (int64_t *)lq_alloc(A, cap * (int64_t)sizeof(int64_t));
  memset(h->tab, 0, (size_t)cap * sizeof(int64_t));
  h->keys = NULL;
}

static int lq_ht_eq(const lq_ht *h, int64_t slot, const int64_t *parts) {
  const int64_t *k = h->keys + slot * h->np;
  for (int i = 0; i < h->np; i++)
    if (k[i] != parts[i]) return 0;
  return 1;
}

static int64_t lq_ht_find(const lq_ht *h, const int64_t *parts) {
  uint64_t mask = (uint64_t)h->cap - 1;
  uint64_t b = lq_ht_hash(parts, h->np) & mask;
  for (;;) {
    int64_t v = h->tab[b];
    if (v == 0) return -1;
    if (lq_ht_eq(h, v - 1, parts)) return v - 1;
    b = (b + 1) & mask;
  }
}

static void lq_ht_rehash(lq_ht *h) {
  int64_t ncap = h->cap * 2;
  int64_t *nt = (int64_t *)lq_alloc(h->A, ncap * (int64_t)sizeof(int64_t));
  memset(nt, 0, (size_t)ncap * sizeof(int64_t));
  uint64_t mask = (uint64_t)ncap - 1;
  for (int64_t s = 0; s < h->count; s++) {
    uint64_t b = lq_ht_hash(h->keys + s * h->np, h->np) & mask;
    while (nt[b] != 0) b = (b + 1) & mask;
    nt[b] = s + 1;
  }
  h->tab = nt; /* the old bucket array stays in the arena */
  h->cap = ncap;
}

static int64_t lq_ht_insert(lq_ht *h, const int64_t *parts) {
  int64_t f = lq_ht_find(h, parts);
  if (f >= 0) return f;
  if ((h->count + 1) * 2 > h->cap) lq_ht_rehash(h);
  if (h->count >= h->kcap) {
    int64_t nk = h->kcap ? h->kcap * 2 : 256;
    int64_t *nkeys = (int64_t *)lq_alloc(h->A, nk * h->np * (int64_t)sizeof(int64_t));
    if (h->keys) memcpy(nkeys, h->keys, (size_t)(h->count * h->np) * sizeof(int64_t));
    h->keys = nkeys; h->kcap = nk;
  }
  memcpy(h->keys + h->count * h->np, parts, (size_t)h->np * sizeof(int64_t));
  uint64_t mask = (uint64_t)h->cap - 1;
  uint64_t b = lq_ht_hash(parts, h->np) & mask;
  while (h->tab[b] != 0) b = (b + 1) & mask;
  h->tab[b] = h->count + 1;
  return h->count++;
}

/* Merge sort over an index array; the comparators end with the index
   tiebreak, so the order is total and stability is moot. */
typedef int (*lq_cmp_fn)(void *, int64_t, int64_t);

static void lq_msort(int64_t *a, int64_t *t, int64_t lo, int64_t hi,
                     lq_cmp_fn cmp, void *ctx) {
  if (hi - lo < 2) return;
  int64_t mid = lo + (hi - lo) / 2;
  lq_msort(a, t, lo, mid, cmp, ctx);
  lq_msort(a, t, mid, hi, cmp, ctx);
  int64_t i = lo, j = mid, k = lo;
  while (i < mid && j < hi) t[k++] = cmp(ctx, a[i], a[j]) <= 0 ? a[i++] : a[j++];
  while (i < mid) t[k++] = a[i++];
  while (j < hi) t[k++] = a[j++];
  memcpy(a + lo, t + lo, (size_t)(hi - lo) * sizeof(int64_t));
}

static void lq_sort_idx(lq_arena *A, int64_t *idx, int64_t n, lq_cmp_fn cmp, void *ctx) {
  if (n < 2) return;
  int64_t *t = (int64_t *)lq_alloc(A, n * (int64_t)sizeof(int64_t));
  lq_msort(idx, t, 0, n, cmp, ctx);
}

|}

let header =
  {|int64_t lq_query(const unsigned char **srcs, const int64_t *nrows,
                 const int64_t *ip, const double *fp,
                 const unsigned char *db, const int32_t *dofs,
                 unsigned char *out, int64_t cap)
{
  lq_arena A; A.ptrs = NULL; A.n = 0; A.cap = 0;
  int64_t lq_total = 0;
  switch (setjmp(A.env)) {
  case 0: break;
  case 2: lq_arena_free(&A); return -2;
  default: lq_arena_free(&A); return -1;
  }
  (void)srcs; (void)nrows; (void)ip; (void)fp; (void)db; (void)dofs;
|}

let footer = {|  lq_arena_free(&A);
  return lq_total;
}
|}

(* --- entry points ---------------------------------------------------- *)

let emit_plan (ir : L.t) : program =
  let c =
    {
      ir;
      body = Buffer.create 4096;
      aux = Buffer.create 256;
      indent = 1;
      freshc = 0;
      scans = [];
      needs_dict = false;
      views = Hashtbl.create 8;
      groups = Hashtbl.create 4;
    }
  in
  let run = gen c ir.L.root ~stops:[] in
  let out_exprs = L.fields ir ir.L.out in
  let out_fields = List.map (fun (n, (e : L.expr)) -> (n, L.vty e.L.ty)) out_exprs in
  let out_layout =
    try Layout.make out_fields with Invalid_argument msg -> unsupported "result layout: %s" msg
  in
  let width = Layout.row_width out_layout in
  run (fun () ->
      line c "if (lq_total < cap) {";
      push c;
      line c "unsigned char *lq_o = out + lq_total * %d;" width;
      List.iteri
        (fun i (_, e) ->
          let f = Layout.field_at out_layout i in
          match f.Layout.ftype with
          | Ftype.F64 -> line c "wr_f64(lq_o + %d, %s);" f.Layout.offset (code c e)
          | Ftype.I64 -> line c "wr_i64(lq_o + %d, %s);" f.Layout.offset (code c e)
          | Ftype.I32 | Ftype.Date32 | Ftype.Str32 ->
            line c "wr_i32(lq_o + %d, %s);" f.Layout.offset (code c e)
          | Ftype.Bool8 -> line c "lq_o[%d] = (unsigned char)(%s != 0);" f.Layout.offset (code c e))
        out_exprs;
      pop c;
      line c "}";
      line c "lq_total++;");
  let scan_tables = List.rev c.scans in
  let src = Buffer.create (Buffer.length c.body + 8192) in
  Buffer.add_string src
    (spf "/* generated by lqcg (ABI v%d): scans [%s], %d int registers, %d float registers */\n"
       abi_version (String.concat "; " scan_tables) (Array.length ir.L.int_regs)
       (Array.length ir.L.float_regs));
  Buffer.add_string src prelude;
  Buffer.add_buffer src c.aux;
  Buffer.add_char src '\n';
  Buffer.add_string src header;
  Buffer.add_buffer src c.body;
  Buffer.add_string src footer;
  {
    c_source = Buffer.contents src;
    scan_tables;
    int_params = Array.to_list ir.L.int_regs;
    float_params = Array.to_list ir.L.float_regs;
    out_fields;
    out_scalar = (match ir.L.out with L.Scalar _ -> true | _ -> false);
    needs_dict = c.needs_dict;
  }

let emit_lowered ir =
  match emit_plan ir with
  | p -> p.c_source
  | exception Unsupported_c reason ->
    spf
      "/* lq_query: no native C form for this plan.\n\
      \   reason: %s\n\
      \   The interpreted native program serves this shape. */\n\
       typedef int lq_unused;\n"
      reason
