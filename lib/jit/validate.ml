(* Sandboxed first execution of a freshly compiled artifact.

   A new .so is never trusted in-process on faith: miscompilation or an
   emitter bug shows up as a SIGSEGV, a wedge, or silently wrong rows,
   and all three must be contained before the artifact is promoted to
   the serving tier. The guard executes the object exactly once in a
   dedicated child process — a tiny C runner that dlopens the artifact,
   replays the serialized inputs through the ABI-v2 entry point and
   writes the raw result rows to a file — and the parent diffs those
   rows against the interpreter's answer for the same execution.

   Design note: the paper-natural shape here is [Unix.fork] (share the
   packed pages copy-on-write, run the candidate, report over a pipe),
   but OCaml 5 forbids fork once any other Domain exists — and the
   compile worker and service workers are Domains. So the sandbox is a
   separate runner *process* spawned with [Unix.create_process]
   (posix_spawn, Domain-safe), fed through files. The isolation is
   strictly stronger — a fresh address space instead of a forked copy —
   at the cost of serializing the row pages once per validation, which
   happens once per digest promotion and stays off the hot path.

   The runner itself is compiled on demand (with the same watchdogged
   [cc] as the artifacts), content-addressed next to them in the cache
   directory, and reused for the process lifetime. *)

module Counters = Lq_metrics.Counters

let counters = Backend.counters

(* ABI here must match jit_stubs.c / Codegen_c.abi_version. *)
let runner_source =
  {|/* lqjit validation runner: dlopen a freshly compiled query object in an
 * isolated address space and execute it once against serialized inputs.
 * Crashes, wedges and wrong answers die here, not in the serving process.
 *
 * usage: runner SO IN OUT [chaos]
 *   IN:  "LQVJ0001" then u64-LE fields: nsrcs, per-src (nrows, len, bytes),
 *        ip (len, bytes), fp (len, bytes), db (len, bytes), dofs (len,
 *        bytes), width, cap.
 *   OUT: u64-LE total row count, then total*width result bytes.
 *   chaos: "crash" raises SIGSEGV, "hang" pauses forever (fault drills).
 *
 * exits: 0 ok, 64 bad input, 65 oom, 66 io, 67 dlopen/dlsym, 68 arena. */
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <signal.h>
#include <unistd.h>
#include <dlfcn.h>

typedef int64_t (*lq_query_fn)(const unsigned char **srcs, const int64_t *nrows,
                               const int64_t *ip, const double *fp,
                               const unsigned char *db, const int32_t *dofs,
                               unsigned char *out, int64_t cap);

static uint64_t rd_u64(FILE *f, int *ok) {
  unsigned char b[8];
  uint64_t v = 0;
  if (fread(b, 1, 8, f) != 8) { *ok = 0; return 0; }
  for (int i = 7; i >= 0; i--) v = (v << 8) | b[i];
  return v;
}

static unsigned char *rd_blob(FILE *f, uint64_t len, int *ok) {
  unsigned char *p = malloc(len ? (size_t)len : 1);
  if (!p) { *ok = 0; return NULL; }
  if (len && fread(p, 1, (size_t)len, f) != (size_t)len) { *ok = 0; return NULL; }
  return p;
}

int main(int argc, char **argv) {
  if (argc < 4) return 64;
  const char *chaos = argc > 4 ? argv[4] : "";
  if (strcmp(chaos, "crash") == 0) raise(SIGSEGV);
  if (strcmp(chaos, "hang") == 0) for (;;) pause();

  FILE *f = fopen(argv[2], "rb");
  if (!f) return 66;
  char magic[8];
  if (fread(magic, 1, 8, f) != 8 || memcmp(magic, "LQVJ0001", 8) != 0) return 64;
  int ok = 1;
  uint64_t nsrcs = rd_u64(f, &ok);
  if (!ok || nsrcs > 64) return 64;
  const unsigned char *srcs[64];
  int64_t nrows[64];
  for (uint64_t i = 0; i < nsrcs; i++) {
    nrows[i] = (int64_t)rd_u64(f, &ok);
    uint64_t len = rd_u64(f, &ok);
    srcs[i] = rd_blob(f, len, &ok);
    if (!ok) return 64;
  }
  uint64_t ip_len = rd_u64(f, &ok);
  unsigned char *ip = rd_blob(f, ip_len, &ok);
  uint64_t fp_len = rd_u64(f, &ok);
  unsigned char *fp = rd_blob(f, fp_len, &ok);
  uint64_t db_len = rd_u64(f, &ok);
  unsigned char *db = rd_blob(f, db_len, &ok);
  uint64_t dofs_len = rd_u64(f, &ok);
  unsigned char *dofs = rd_blob(f, dofs_len, &ok);
  uint64_t width = rd_u64(f, &ok);
  uint64_t cap = rd_u64(f, &ok);
  if (!ok || width == 0) return 64;
  fclose(f);

  void *h = dlopen(argv[1], RTLD_NOW | RTLD_LOCAL);
  if (!h) { fprintf(stderr, "dlopen: %s\n", dlerror()); return 67; }
  lq_query_fn fn = (lq_query_fn)dlsym(h, "lq_query");
  if (!fn) { fprintf(stderr, "dlsym: %s\n", dlerror()); return 67; }

  unsigned char *out = NULL;
  int64_t total;
  for (;;) {
    out = realloc(out, (size_t)(cap ? cap : 1) * width);
    if (!out) return 65;
    total = fn(srcs, nrows, (const int64_t *)ip, (const double *)fp,
               db, (const int32_t *)dofs, out, (int64_t)cap);
    if (total < 0) return 68;
    if ((uint64_t)total <= cap) break;
    cap = (uint64_t)total;
  }

  FILE *g = fopen(argv[3], "wb");
  if (!g) return 66;
  unsigned char b[8];
  uint64_t t = (uint64_t)total;
  for (int i = 0; i < 8; i++) { b[i] = (unsigned char)(t & 0xff); t >>= 8; }
  if (fwrite(b, 1, 8, g) != 8) return 66;
  if (total > 0 &&
      fwrite(out, 1, (size_t)total * width, g) != (size_t)total * width)
    return 66;
  if (fclose(g) != 0) return 66;
  return 0;
}
|}

let env_int name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> ( match int_of_string_opt (String.trim s) with Some n -> n | None -> default)

let timeout_ms () = float_of_int (env_int "LQ_JIT_VALIDATE_TIMEOUT_MS" 10_000)
let rlimit_mb () = env_int "LQ_JIT_VALIDATE_RLIMIT_MB" 4096

(* --- the runner executable -------------------------------------------- *)

(* Built once per cache directory with the watchdogged cc, then reused;
   content-addressed so a runner from an older ABI never survives an
   upgrade. Does not count as a [service/jit/compiles] — that counter
   means "query artifacts built". *)
let runner_mu = Mutex.create ()
let runner_memo : (string, (string, string) result) Hashtbl.t = Hashtbl.create 4

let runner_exe () =
  let dir = Backend.cache_dir () in
  Mutex.protect runner_mu (fun () ->
    match Hashtbl.find_opt runner_memo dir with
    | Some r -> r
    | None ->
      let digest =
        Digest.to_hex
          (Digest.string
             (string_of_int Lq_native.Codegen_c.abi_version ^ "\x00" ^ runner_source))
      in
      let exe = Filename.concat dir ("lqjit-runner-" ^ String.sub digest 0 16 ^ ".exe") in
      let r =
        if Sys.file_exists exe then Ok exe
        else begin
          let stamp = string_of_int (Unix.getpid ()) in
          let c_file = Filename.concat dir ("lqjit-runner-" ^ stamp ^ ".c") in
          let err_file = c_file ^ ".err" in
          let exe_tmp = c_file ^ ".exe.tmp" in
          let rm f = try Sys.remove f with Sys_error _ -> () in
          Fun.protect
            ~finally:(fun () ->
              rm c_file;
              rm err_file;
              rm exe_tmp)
            (fun () ->
              let oc = open_out_bin c_file in
              output_string oc runner_source;
              close_out oc;
              match
                Backend.run_cc
                  [ "-O2"; "-std=c11"; "-o"; exe_tmp; c_file; "-ldl" ]
                  ~err_file
              with
              | Error msg -> Error ("validation runner build failed: " ^ msg)
              | Ok () ->
                Unix.chmod exe_tmp 0o755;
                Sys.rename exe_tmp exe;
                Ok exe)
        end
      in
      Hashtbl.replace runner_memo dir r;
      r)

let reset_for_tests () = Mutex.protect runner_mu (fun () -> Hashtbl.reset runner_memo)

(* --- one validation ---------------------------------------------------- *)

(* Everything the native entry point consumes, packed exactly as the
   in-process trampoline would pass it (see Jit_engine.pack). *)
type input = {
  srcs : Bytes.t array;  (** row pages, one per scanned table *)
  nrows : int array;
  ip : Bytes.t;  (** packed int registers *)
  fp : Bytes.t;  (** packed float registers *)
  db : Bytes.t;  (** dictionary bytes snapshot *)
  dofs : Bytes.t;  (** dictionary offsets *)
  width : int;  (** output row width in bytes *)
}

type verdict =
  | Pass of Bytes.t * int  (** raw result buffer + row count, to be decoded *)
  | Crashed of string  (** the artifact killed the sandbox (signal name) *)
  | Timed_out of float  (** wedged; killed at the deadline (ms) *)
  | Child_failed of string  (** sandbox-level failure (dlopen, io, oom...) *)

type chaos = No_chaos | Chaos_crash | Chaos_hang

let add_u64 buf n =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int n);
  Buffer.add_bytes buf b

let add_blob buf b =
  add_u64 buf (Bytes.length b);
  Buffer.add_bytes buf b

let serialize (inp : input) =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "LQVJ0001";
  add_u64 buf (Array.length inp.srcs);
  Array.iteri
    (fun i page ->
      add_u64 buf inp.nrows.(i);
      add_blob buf page)
    inp.srcs;
  add_blob buf inp.ip;
  add_blob buf inp.fp;
  add_blob buf inp.db;
  add_blob buf inp.dofs;
  add_u64 buf inp.width;
  add_u64 buf 1024;
  (* initial cap; the runner grows it from the returned total *)
  buf

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let n = in_channel_length ic in
    let b = Bytes.create n in
    really_input ic b 0 n;
    close_in ic;
    Some b

let read_tail path limit =
  match read_file path with
  | None -> ""
  | Some b ->
    let s = Bytes.to_string b in
    (if String.length s > limit then String.sub s 0 limit ^ "..." else s) |> String.trim

let seq = Atomic.make 0

let run ~so_path ?(chaos = No_chaos) (inp : input) =
  match runner_exe () with
  | Error msg -> Child_failed msg
  | Ok exe ->
    let dir = Backend.cache_dir () in
    let stamp =
      Printf.sprintf "lqval-%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add seq 1)
    in
    let in_file = Filename.concat dir (stamp ^ ".in.tmp") in
    let out_file = Filename.concat dir (stamp ^ ".out.tmp") in
    let err_file = Filename.concat dir (stamp ^ ".err") in
    let rm f = try Sys.remove f with Sys_error _ -> () in
    Fun.protect
      ~finally:(fun () ->
        rm in_file;
        rm out_file;
        rm err_file)
      (fun () ->
        let oc = open_out_bin in_file in
        Buffer.output_buffer oc (serialize inp);
        close_out oc;
        let args =
          [ so_path; in_file; out_file ]
          @ (match chaos with No_chaos -> [] | Chaos_crash -> [ "crash" ] | Chaos_hang -> [ "hang" ])
        in
        match
          Subproc.run ~timeout_ms:(timeout_ms ()) ~rlimit_mb:(rlimit_mb ())
            ~output_file:err_file exe args
        with
        | Subproc.Signaled s -> Crashed s
        | Subproc.Timed_out ms ->
          Counters.incr counters "service/jit/validation_timeouts";
          Timed_out ms
        | Subproc.Exited 0 -> (
          match read_file out_file with
          | Some b when Bytes.length b >= 8 ->
            let total = Int64.to_int (Bytes.get_int64_le b 0) in
            if total < 0 || Bytes.length b <> 8 + (total * inp.width) then
              Child_failed
                (Printf.sprintf "result file malformed (%d bytes for %d rows of width %d)"
                   (Bytes.length b) total inp.width)
            else Pass (Bytes.sub b 8 (total * inp.width), total)
          | _ -> Child_failed "result file missing or truncated")
        | Subproc.Exited 127 -> Child_failed "runner executable vanished"
        | Subproc.Exited rc ->
          let why =
            match rc with
            | 64 -> "bad input frame"
            | 65 -> "out of memory (rlimit?)"
            | 66 -> "result io failed"
            | 67 -> "dlopen/dlsym failed"
            | 68 -> "native arena overflow"
            | _ -> "failed"
          in
          let tail = read_tail err_file 500 in
          Child_failed
            (Printf.sprintf "runner exited %d (%s)%s" rc why
               (if tail = "" then "" else ": " ^ tail)))
