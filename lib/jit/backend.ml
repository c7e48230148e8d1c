module Lru = Lq_lru.Lru
module Counters = Lq_metrics.Counters
module Profile = Lq_metrics.Profile
module Codegen_c = Lq_native.Codegen_c

let counters = Counters.create ()
let cc () =
  match Sys.getenv_opt "LQ_CC" with
  | Some c when String.trim c <> "" -> c
  | _ -> "cc"

(* Memoized per command name so tests can point LQ_CC elsewhere. *)
let cc_probe : (string * bool) option Atomic.t = Atomic.make None

let cc_available () =
  let name = cc () in
  match Atomic.get cc_probe with
  | Some (probed, ok) when String.equal probed name -> ok
  | _ ->
    let ok =
      Sys.command (Printf.sprintf "command -v %s >/dev/null 2>&1" (Filename.quote name)) = 0
    in
    Atomic.set cc_probe (Some (name, ok));
    ok

let digest_of_program (p : Codegen_c.program) =
  let b = Buffer.create 4096 in
  Buffer.add_string b (string_of_int Codegen_c.abi_version);
  List.iter (fun t -> Buffer.add_string b ("\x01" ^ t)) p.scan_tables;
  List.iter
    (function
      | Lq_native.Loop.Named n -> Buffer.add_string b ("\x02" ^ n)
      | Lq_native.Loop.Str_const s -> Buffer.add_string b ("\x03" ^ s))
    p.int_params;
  List.iter (fun n -> Buffer.add_string b ("\x04" ^ n)) p.float_params;
  List.iter
    (fun (n, vt) -> Buffer.add_string b ("\x05" ^ n ^ ":" ^ Lq_value.Vtype.to_string vt))
    p.out_fields;
  Buffer.add_string b (if p.out_scalar then "\x06s" else "\x06r");
  Buffer.add_string b p.c_source;
  Digest.to_hex (Digest.string (Buffer.contents b))

type artifact = {
  digest : string;
  so_path : string;
  handle : Dl.handle;
  fn : Dl.symbol;
}

type state = {
  dir : string;
  disk : string Lru.t;
      (* key = digest, value = .so basename, weight = file size in bytes.
         Basenames carry a per-build stamp (lqjit-<digest>.<stamp>.so):
         the dynamic loader dedups loaded objects by *path*, so a
         recompile of an evicted or corrupted digest must land at a path
         that has never been dlopened — reusing the canonical name would
         silently resolve to the stale (possibly damaged) mapping. *)
  mem : artifact Lru.t;  (* key = digest *)
  mutable graveyard : Dl.handle list;
}

let mu = Mutex.create ()
let st : state option ref = ref None
let seq = Atomic.make 0
let graveyard_hooked = ref false

let env_int name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> ( match int_of_string_opt (String.trim s) with Some n -> n | None -> default)

let cc_timeout_ms () = float_of_int (env_int "LQ_JIT_CC_TIMEOUT_MS" 60_000)
let cc_rlimit_mb () = env_int "LQ_JIT_CC_RLIMIT_MB" 4096

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rm_f path = try Sys.remove path with Sys_error _ -> ()

let is_so name =
  String.length name > 9
  && String.sub name 0 6 = "lqjit-"
  && Filename.check_suffix name ".so"

(* Both the stamped (lqjit-<digest>.<stamp>.so) and the legacy unstamped
   (lqjit-<digest>.so) forms parse: the digest is everything between the
   prefix and the first dot. *)
let digest_of_so name =
  if not (is_so name) then None
  else
    let core = String.sub name 6 (String.length name - 6) in
    match String.index_opt core '.' with
    | Some i when i > 0 -> Some (String.sub core 0 i)
    | _ -> None

let is_manifest name =
  String.length name > 6
  && String.sub name 0 6 = "lqjit-"
  && Filename.check_suffix name ".so.manifest"

let is_dropping name =
  List.exists (Filename.check_suffix name) [ ".c"; ".o"; ".err"; ".tmp" ]

(* --- integrity manifests ---------------------------------------------- *)

let manifest_path so_path = so_path ^ ".manifest"

(* One line: "v1 md5=<hex> size=<bytes> abi=<n>". Written tmp + rename
   after the object itself lands, so a crash can only leave a manifestless
   object — which the hit path treats as corrupt and recompiles. *)
let write_manifest so_path =
  let size = (Unix.stat so_path).Unix.st_size in
  let line =
    Printf.sprintf "v1 md5=%s size=%d abi=%d\n"
      (Digest.to_hex (Digest.file so_path))
      size Codegen_c.abi_version
  in
  let tmp = manifest_path so_path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc line;
  close_out oc;
  Sys.rename tmp (manifest_path so_path)

let verify_artifact so_path =
  let mpath = manifest_path so_path in
  match open_in_bin mpath with
  | exception Sys_error _ -> Error "no integrity manifest"
  | ic -> (
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    match Scanf.sscanf_opt line "v1 md5=%s@ size=%d abi=%d" (fun m s a -> (m, s, a)) with
    | None -> Error "unparseable integrity manifest"
    | Some (_, _, abi) when abi <> Codegen_c.abi_version ->
      Error (Printf.sprintf "manifest ABI %d, expected %d" abi Codegen_c.abi_version)
    | Some (md5, size, _) -> (
      match Unix.stat so_path with
      | exception Unix.Unix_error _ -> Error "artifact vanished"
      | stat ->
        if stat.Unix.st_size <> size then
          Error
            (Printf.sprintf "size %d, manifest says %d (torn write?)" stat.Unix.st_size size)
        else if not (String.equal (Digest.to_hex (Digest.file so_path)) md5) then
          Error "content digest mismatch (cache poisoning or bit rot)"
        else Ok ()))

(* The "jit/cache" chaos point simulates cache poisoning for real: when
   it fires, the cached object is replaced by its own truncated half and
   the integrity check downstream must discover, evict and recompile it.
   Corruption goes through rename (a fresh inode), never ftruncate in
   place: a mapped .so whose backing inode shrinks SIGBUSes its users —
   including exit-time finalization — which no recovery code can catch. *)
let chaos_corrupt so_path =
  match Lq_fault.Inject.hit "jit/cache" with
  | () -> ()
  | exception Lq_fault.Fault _ -> (
    match Unix.stat so_path with
    | exception Unix.Unix_error _ -> ()
    | stat ->
      let keep = stat.Unix.st_size / 2 in
      let ic = open_in_bin so_path in
      let half = really_input_string ic keep in
      close_in ic;
      let tmp = so_path ^ ".chaos.tmp" in
      let oc = open_out_bin tmp in
      output_string oc half;
      close_out oc;
      Sys.rename tmp so_path)

(* Startup sweep: seed the disk LRU with surviving objects (oldest first,
   so they are first in line for eviction; a duplicated digest keeps only
   its newest build), drop orphaned manifests, and clear stale build
   droppings another process may have left behind. *)
let sweep dir (disk : string Lru.t) =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | entries ->
    let now = Unix.gettimeofday () in
    let sos = ref [] in
    Array.iter
      (fun name ->
        let path = Filename.concat dir name in
        match Unix.stat path with
        | exception Unix.Unix_error _ -> ()
        | stat ->
          if stat.Unix.st_kind <> Unix.S_REG then ()
          else if is_manifest name then ()
          else if is_so name then sos := (stat.Unix.st_mtime, name, stat.Unix.st_size) :: !sos
          else if is_dropping name && now -. stat.Unix.st_mtime > 600. then rm_f path)
      entries;
    let drop base =
      rm_f (Filename.concat dir base);
      rm_f (manifest_path (Filename.concat dir base))
    in
    List.iter
      (fun (_, name, size) ->
        match digest_of_so name with
        | None -> drop name
        | Some digest -> (
          (match Lru.remove disk digest with
          | Some older when not (String.equal older name) -> drop older
          | _ -> ());
          match Lru.add disk ~key:digest ~weight:size name with
          | Some evicted -> List.iter (fun (_, base) -> drop base) evicted
          | None -> drop name))
      (List.sort compare !sos);
    (* manifests whose object is gone are dead weight *)
    Array.iter
      (fun name ->
        if is_manifest name then begin
          let so = Filename.chop_suffix name ".manifest" in
          if not (Sys.file_exists (Filename.concat dir so)) then
            rm_f (Filename.concat dir name)
        end)
      entries

let init () =
  let dir =
    match Sys.getenv_opt "LQ_JIT_CACHE_DIR" with
    | Some d when d <> "" -> d
    | _ -> Filename.concat (Filename.get_temp_dir_name ()) "lq-jit-cache"
  in
  mkdir_p dir;
  let max_bytes =
    match Sys.getenv_opt "LQ_JIT_CACHE_BYTES" with
    | Some s when int_of_string_opt (String.trim s) <> None -> int_of_string (String.trim s)
    | _ -> env_int "LQ_JIT_CACHE_MB" 256 * 1024 * 1024
  in
  let disk = Lru.create ~max_weight:max_bytes () in
  sweep dir disk;
  let mem = Lru.create ~max_entries:(env_int "LQ_JIT_MEM_ENTRIES" 128) () in
  { dir; disk; mem; graveyard = [] }

let state () =
  Mutex.protect mu (fun () ->
    match !st with
    | Some s -> s
    | None ->
      let s = init () in
      st := Some s;
      if not !graveyard_hooked then begin
        graveyard_hooked := true;
        at_exit (fun () ->
          Mutex.protect mu (fun () ->
            match !st with
            | None -> ()
            | Some s ->
              List.iter (fun h -> try Dl.dlclose h with _ -> ()) s.graveyard;
              s.graveyard <- []))
      end;
      s)

let cache_dir () = (state ()).dir

let reset_for_tests () =
  Mutex.protect mu (fun () -> st := None);
  Atomic.set cc_probe None

let read_truncated path limit =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic ->
    let n = min limit (in_channel_length ic) in
    let s = really_input_string ic n in
    close_in ic;
    (if n < in_channel_length ic then s ^ "..." else s) |> String.trim

(* --- the guarded cc run ------------------------------------------------ *)

(* Shared with the validation runner build: one watchdogged compiler
   invocation, stderr+stdout captured to [err_file], the child killed and
   reaped on deadline overrun so the calling Domain is never wedged. *)
let run_cc args ~err_file =
  match
    Subproc.run ~timeout_ms:(cc_timeout_ms ()) ~rlimit_mb:(cc_rlimit_mb ())
      ~output_file:err_file (cc ()) args
  with
  | Subproc.Exited 0 -> Ok ()
  | Subproc.Exited 127 -> Error (Printf.sprintf "compiler %S not found" (cc ()))
  | Subproc.Exited rc ->
    Error (Printf.sprintf "%s exited %d: %s" (cc ()) rc (read_truncated err_file 2000))
  | Subproc.Signaled s -> Error (Printf.sprintf "%s killed by %s" (cc ()) s)
  | Subproc.Timed_out ms ->
    Counters.incr counters "service/jit/cc_timeouts";
    Error
      (Printf.sprintf "%s timed out after %.0f ms (LQ_JIT_CC_TIMEOUT_MS) and was killed"
         (cc ()) ms)

(* Compile [source] for [digest] at a never-before-used path. Droppings
   (.c, .err, orphan .so.tmp) are removed on every path — success,
   compiler failure, timeout, and any exception in between — not left
   for the startup sweep. *)
let compile_fresh s ~digest ~source =
  Lq_fault.Inject.hit "jit/compile";
  if not (cc_available ()) then Error (Printf.sprintf "no C compiler (%S not on PATH)" (cc ()))
  else begin
    let t0 = Profile.now_ms () in
    let stamp = Printf.sprintf "%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add seq 1) in
    let base = "lqjit-" ^ digest ^ "." ^ stamp ^ ".so" in
    let final = Filename.concat s.dir base in
    let c_file = Filename.concat s.dir ("lqjit-" ^ digest ^ "." ^ stamp ^ ".c") in
    let so_tmp = c_file ^ ".so.tmp" in
    let err_file = c_file ^ ".err" in
    Fun.protect
      ~finally:(fun () ->
        rm_f c_file;
        rm_f err_file;
        rm_f so_tmp)
      (fun () ->
        let oc = open_out_bin c_file in
        output_string oc source;
        close_out oc;
        match
          run_cc
            [ "-O2"; "-std=c11"; "-shared"; "-fPIC"; "-o"; so_tmp; c_file; "-lm" ]
            ~err_file
        with
        | Error _ as e -> e
        | Ok () ->
          let size = (Unix.stat so_tmp).Unix.st_size in
          Sys.rename so_tmp final;
          write_manifest final;
          Counters.incr counters "service/jit/compiles";
          Counters.add_ms counters "service/jit/compile_ms" (Profile.now_ms () -. t0);
          Mutex.protect mu (fun () ->
            let drop b =
              Counters.incr counters "service/jit/evictions_disk";
              rm_f (Filename.concat s.dir b);
              rm_f (manifest_path (Filename.concat s.dir b))
            in
            (* Lru.add replaces an existing key without reporting the old
               value as evicted — drop any previous build of this digest
               explicitly or its file would linger until the next sweep. *)
            (match Lru.remove s.disk digest with
            | Some older when not (String.equal older base) -> drop older
            | _ -> ());
            match Lru.add s.disk ~key:digest ~weight:size base with
            | Some evicted ->
              List.iter (fun (_, b) -> if not (String.equal b base) then drop b) evicted
            | None -> ());
          Ok final)
  end

(* Build (or find on disk) the shared object for [digest]. Disk hits are
   integrity-checked against the sidecar manifest before they are served:
   a truncated, poisoned or manifestless object is evicted and recompiled
   instead of reaching dlopen. *)
let build s ~digest ~source =
  let disk_hit =
    Mutex.protect mu (fun () ->
      match Lru.find s.disk digest with
      | Some base ->
        let path = Filename.concat s.dir base in
        if Sys.file_exists path then Some path else None
      | None -> None)
  in
  match disk_hit with
  | None -> compile_fresh s ~digest ~source
  | Some path -> (
    chaos_corrupt path;
    match verify_artifact path with
    | Ok () ->
      Counters.incr counters "service/jit/cache_hit_disk";
      Ok path
    | Error _why ->
      Counters.incr counters "service/jit/cache_corrupt";
      Mutex.protect mu (fun () ->
        ignore (Lru.remove s.disk digest);
        rm_f path;
        rm_f (manifest_path path));
      compile_fresh s ~digest ~source)

let load ~digest so_path =
  match Dl.dlopen so_path with
  | exception Failure msg -> Error ("dlopen: " ^ msg)
  | handle -> (
    match Dl.dlsym handle "lq_query" with
    | exception Failure msg ->
      (try Dl.dlclose handle with _ -> ());
      Error ("dlsym: " ^ msg)
    | fn -> Ok { digest; so_path; handle; fn })

(* --- per-digest serialization ------------------------------------------ *)

(* Two Domains racing the same digest through the miss path used to both
   dlopen the object; the loser's handle was replaced in the memory LRU
   without ever reaching the graveyard, leaking it for the process
   lifetime. The whole check → build → load → insert sequence now runs
   under a per-digest mutex (different digests still build in parallel);
   entries are refcounted so the table stays bounded by in-flight work. *)
let inflight : (string, Mutex.t * int ref) Hashtbl.t = Hashtbl.create 16

let with_digest_lock digest f =
  let dmu, refs =
    Mutex.protect mu (fun () ->
      match Hashtbl.find_opt inflight digest with
      | Some ((_, refs) as entry) ->
        incr refs;
        entry
      | None ->
        let entry = (Mutex.create (), ref 1) in
        Hashtbl.add inflight digest entry;
        entry)
  in
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect mu (fun () ->
        decr refs;
        if !refs = 0 then Hashtbl.remove inflight digest))
    (fun () -> Mutex.protect dmu f)

let get ~digest ~source =
  let s = state () in
  match Mutex.protect mu (fun () -> Lru.find s.mem digest) with
  | Some art ->
    Counters.incr counters "service/jit/cache_hit_mem";
    Ok art
  | None ->
    with_digest_lock digest (fun () ->
      (* re-check: the Domain we waited on may have just inserted it *)
      match Mutex.protect mu (fun () -> Lru.find s.mem digest) with
      | Some art ->
        Counters.incr counters "service/jit/cache_hit_mem";
        Ok art
      | None -> (
        match build s ~digest ~source with
        | Error _ as e ->
          Counters.incr counters "service/jit/compile_failures";
          e
        | Ok so_path -> (
          match load ~digest so_path with
          | Error _ as e ->
            Counters.incr counters "service/jit/compile_failures";
            e
          | Ok art ->
            Mutex.protect mu (fun () ->
              match Lru.add s.mem ~key:digest art with
              | Some evicted ->
                List.iter
                  (fun (_, (a : artifact)) -> s.graveyard <- a.handle :: s.graveyard)
                  evicted
              | None -> ());
            Ok art)))
