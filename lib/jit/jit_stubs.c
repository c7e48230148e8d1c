/* dlopen/dlsym/dlclose wrappers and the lq_query trampoline.
 *
 * The trampoline holds the OCaml runtime lock for the whole native call:
 * the raw Bytes pointers it passes down (row pages, packed registers, the
 * dictionary snapshot, the output buffer) stay valid only while the GC
 * cannot move or reclaim them. The cost is that other Domains' minor
 * collections may have to wait out one query execution — acceptable at
 * the scale factors this engine serves, and documented in DESIGN.md §9.
 *
 * These wrappers only ever see artifacts that have already cleared the
 * guarded tiering pipeline: integrity-verified against their manifest
 * before dlopen, and executed once in an isolated child process before
 * the trampoline is allowed to call them in-process (DESIGN.md §11).
 */

#include <stdint.h>
#include <dlfcn.h>

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>

CAMLprim value lq_jit_dlopen(value vpath)
{
  CAMLparam1(vpath);
  void *h = dlopen(String_val(vpath), RTLD_NOW | RTLD_LOCAL);
  if (h == NULL) {
    const char *err = dlerror();
    caml_failwith(err == NULL ? "dlopen failed" : err);
  }
  CAMLreturn(caml_copy_nativeint((intnat)h));
}

CAMLprim value lq_jit_dlsym(value vhandle, value vname)
{
  CAMLparam2(vhandle, vname);
  void *h = (void *)Nativeint_val(vhandle);
  (void)dlerror(); /* clear any stale error */
  void *sym = dlsym(h, String_val(vname));
  if (sym == NULL) {
    const char *err = dlerror();
    caml_failwith(err == NULL ? "dlsym: symbol is NULL" : err);
  }
  CAMLreturn(caml_copy_nativeint((intnat)sym));
}

CAMLprim value lq_jit_dlclose(value vhandle)
{
  dlclose((void *)Nativeint_val(vhandle));
  return Val_unit;
}

/* Must match Codegen_c.abi_version = 2 (see codegen_c.mli). */
typedef int64_t (*lq_query_fn)(const unsigned char **srcs, const int64_t *nrows,
                               const int64_t *ip, const double *fp,
                               const unsigned char *db, const int32_t *dofs,
                               unsigned char *out, int64_t cap);

#define LQ_JIT_MAX_SCANS 64

CAMLprim value lq_jit_call_native(value vfn, value vsrcs, value vnrows,
                                  value vip, value vfp, value vdb, value vdofs,
                                  value vout, value vcap)
{
  const unsigned char *sp[LQ_JIT_MAX_SCANS];
  int64_t nr[LQ_JIT_MAX_SCANS];
  mlsize_t n = Wosize_val(vsrcs);
  if (n > LQ_JIT_MAX_SCANS)
    caml_invalid_argument("lq_jit_call: too many scans");
  /* No OCaml allocation below this point. */
  for (mlsize_t i = 0; i < n; i++) {
    sp[i] = Bytes_val(Field(vsrcs, i));
    nr[i] = (int64_t)Long_val(Field(vnrows, i));
  }
  lq_query_fn fn = (lq_query_fn)Nativeint_val(vfn);
  int64_t total = fn(sp, nr,
                     (const int64_t *)Bytes_val(vip),
                     (const double *)Bytes_val(vfp),
                     Bytes_val(vdb),
                     (const int32_t *)Bytes_val(vdofs),
                     Bytes_val(vout),
                     (int64_t)Long_val(vcap));
  return Val_long((intnat)total);
}

CAMLprim value lq_jit_call_bytecode(value *argv, int argn)
{
  (void)argn;
  return lq_jit_call_native(argv[0], argv[1], argv[2], argv[3], argv[4],
                            argv[5], argv[6], argv[7], argv[8]);
}
