type t = {
  nparts : int;
  trace : (int -> unit) option;
  base_addr : int;
  mutable buckets : int array;  (** dense slot + 1; 0 = empty *)
  mutable mask : int;
  (* Dense key storage: parts.(p).(slot) *)
  mutable parts : int array array;
  mutable nkeys : int;
  (* Attached row chains, stored newest-first with recursion to restore
     insertion order (same trick as Int_table.Multi). *)
  mutable heads : int array;  (** per slot; -1 = none *)
  mutable chain_rows : int array;
  mutable chain_next : int array;
  mutable nchain : int;
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 16

let create ?trace ~nparts ~hint () =
  let cap = next_pow2 (max 16 (hint * 2)) in
  {
    nparts;
    trace;
    base_addr = Lq_storage.Addr_space.alloc (1 lsl 28);
    buckets = Array.make cap 0;
    mask = cap - 1;
    parts = Array.init (max nparts 1) (fun _ -> Array.make (max 16 hint) 0);
    nkeys = 0;
    heads = Array.make (max 16 hint) (-1);
    chain_rows = Array.make 16 0;
    chain_next = Array.make 16 (-1);
    nchain = 0;
  }

let hash_key t (key : int array) =
  let h = ref 0x811C9DC5 in
  for p = 0 to t.nparts - 1 do
    h := (!h lxor key.(p)) * 0x01000193
  done;
  !h land max_int

let rec key_matches t slot (key : int array) p =
  p = t.nparts || (t.parts.(p).(slot) = key.(p) && key_matches t slot key (p + 1))

(* Each bucket probe models one random read into the table's memory. *)
let note_probe t bucket =
  match t.trace with
  | None -> ()
  | Some trace -> trace (t.base_addr + (bucket * 16))

(* The key's slot, or [-1 - b] for the empty bucket [b] it would take:
   one immediate, so a probe allocates nothing. *)
let rec probe t key h =
  let b = h land t.mask in
  note_probe t b;
  let v = t.buckets.(b) in
  if v = 0 then -1 - b
  else if key_matches t (v - 1) key 0 then v - 1
  else probe t key (h + 1)

let find t key = max (-1) (probe t key (hash_key t key))

let grow_dense t =
  let cap = Array.length t.heads * 2 in
  t.parts <-
    Array.map
      (fun old ->
        let arr = Array.make cap 0 in
        Array.blit old 0 arr 0 t.nkeys;
        arr)
      t.parts;
  let heads = Array.make cap (-1) in
  Array.blit t.heads 0 heads 0 t.nkeys;
  t.heads <- heads

let grow_buckets t =
  let cap = Array.length t.buckets * 2 in
  t.buckets <- Array.make cap 0;
  t.mask <- cap - 1;
  for slot = 0 to t.nkeys - 1 do
    let key = Array.init t.nparts (fun p -> t.parts.(p).(slot)) in
    let rec place h =
      let b = h land t.mask in
      if t.buckets.(b) = 0 then t.buckets.(b) <- slot + 1 else place (h + 1)
    in
    place (hash_key t key)
  done

let lookup_or_insert t key =
  let found = probe t key (hash_key t key) in
  if found >= 0 then found
  else begin
    let b = -1 - found in
    if t.nkeys = Array.length t.heads then grow_dense t;
    let slot = t.nkeys in
    for p = 0 to t.nparts - 1 do
      t.parts.(p).(slot) <- key.(p)
    done;
    t.heads.(slot) <- -1;
    t.buckets.(b) <- slot + 1;
    t.nkeys <- slot + 1;
    if t.nkeys * 10 > Array.length t.buckets * 7 then grow_buckets t;
    slot
  end

let count t = t.nkeys
let key_part t ~slot ~part = t.parts.(part).(slot)

let attach t ~slot row =
  if t.nchain = Array.length t.chain_rows then begin
    let cap = t.nchain * 2 in
    let rows = Array.make cap 0 and next = Array.make cap (-1) in
    Array.blit t.chain_rows 0 rows 0 t.nchain;
    Array.blit t.chain_next 0 next 0 t.nchain;
    t.chain_rows <- rows;
    t.chain_next <- next
  end;
  let cell = t.nchain in
  t.chain_rows.(cell) <- row;
  t.chain_next.(cell) <- t.heads.(slot);
  t.heads.(slot) <- cell;
  t.nchain <- cell + 1

(* Chains are newest-first; recurse to visit in insertion order. *)
let rec iter_chain t f cell =
  if cell >= 0 then begin
    iter_chain t f t.chain_next.(cell);
    (match t.trace with
    | None -> ()
    | Some trace -> trace (t.base_addr + (1 lsl 20) + (cell * 8)));
    f t.chain_rows.(cell)
  end

let iter_attached t ~slot f = iter_chain t f t.heads.(slot)

let rec chain_length t cell n = if cell < 0 then n else chain_length t t.chain_next.(cell) (n + 1)
let attached_count t ~slot = chain_length t t.heads.(slot) 0

let memory_bytes t =
  (Array.length t.buckets * 8)
  + (t.nparts * Array.length t.heads * 8)
  + (Array.length t.heads * 8)
  + (Array.length t.chain_rows * 16)

let clear t =
  Array.fill t.buckets 0 (Array.length t.buckets) 0;
  Array.fill t.heads 0 (Array.length t.heads) (-1);
  t.nkeys <- 0;
  t.nchain <- 0
