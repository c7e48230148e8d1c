#!/bin/sh
# One-command verification: format check (when ocamlformat is available),
# then the @tier1 alias — full build + full test suite, exactly the gate
# CI runs. Run it before every commit.
#
#   sh devtools/verify.sh            # build + tests
#   sh devtools/verify.sh --force    # also re-run tests that already passed

set -eu

cd "$(dirname "$0")/.."

FORCE=""
if [ "${1:-}" = "--force" ]; then
  FORCE="--force"
fi

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune fmt (check) =="
  dune build @fmt
else
  echo "== dune fmt skipped (ocamlformat not installed) =="
fi

echo "== dune build @tier1 (build + runtest) =="
dune build @tier1 $FORCE

# EXPLAIN must be total: every query x engine either renders the lowered
# plan with a "supported" verdict or reports a typed capability miss —
# a non-zero exit (a crash) fails verification. A "supported" verdict is
# a promise: `lqcg run` of the same pair (JIT off) must not refuse it.
echo "== explain smoke (all queries x all engines, verdict = run outcome) =="
LQCG="_build/default/bin/lqcg.exe"
# The engine registry is the one engine list: `lqcg engines` prints one
# engine per line, name first. Names contain '[' and ',', so every loop
# reads them line by line (`read -r` from fd 3) and never lets the shell
# split or glob-expand them.
ENGINES=$("$LQCG" engines | cut -d' ' -f1)
NENGINES=$(printf '%s\n' "$ENGINES" | grep -c . || true)
if [ "$NENGINES" -eq 0 ]; then
  echo "lqcg engines listed no engine" >&2
  exit 1
fi
for q in Q1 Q2 Q2corr Q3 Q5 Q6 Q10 Q12 Q14; do
  while IFS= read -r e <&3; do
    if ! out=$("$LQCG" explain -e "$e" -q "$q" --sf 0.001 2>&1); then
      echo "explain crashed for $q on $e:" >&2
      echo "$out" >&2
      exit 1
    fi
    case "$out" in
      *"engine $e: supported"*)
        run_out=$(LQ_JIT=off "$LQCG" run -e "$e" -q "$q" --sf 0.001 2>&1) || true
        case "$run_out" in
          *"unsupported:"*)
            echo "explain said supported but run refused $q on $e:" >&2
            echo "$run_out" >&2
            exit 1
            ;;
        esac
        ;;
      *"engine $e: unsupported"*) ;;
      *)
        echo "explain gave no verdict for $q on $e:" >&2
        echo "$out" >&2
        exit 1
        ;;
    esac
  done 3<<EOF
$ENGINES
EOF
done
echo "   ok: 9 queries x $NENGINES engines, every verdict typed and kept by run"

# Decorrelation smoke: Q2 as naively written (correlated min sub-query)
# must run through the decorrelation pass and produce exactly the rows of
# the hand-decorrelated Q2 on every engine; an engine that refuses one
# for capability reasons must refuse both (refusal parity).
echo "== decorrelation smoke (Q2corr rows == Q2 rows on every engine) =="
while IFS= read -r e <&3; do
  out_q2=$("$LQCG" run -e "$e" -q Q2 --sf 0.002 2>&1) || true
  out_corr=$("$LQCG" run -e "$e" -q Q2corr --sf 0.002 2>&1) || true
  unsup_q2=no
  case "$out_q2" in *unsupported*) unsup_q2=yes ;; esac
  unsup_corr=no
  case "$out_corr" in *unsupported*) unsup_corr=yes ;; esac
  if [ "$unsup_q2" != "$unsup_corr" ]; then
    echo "refusal parity broken on $e (Q2 unsupported=$unsup_q2, Q2corr unsupported=$unsup_corr):" >&2
    echo "$out_corr" >&2
    exit 1
  fi
  if [ "$unsup_q2" = "no" ]; then
    rows_q2=$(printf '%s\n' "$out_q2" | grep '^{' || true)
    rows_corr=$(printf '%s\n' "$out_corr" | grep '^{' || true)
    if [ -z "$rows_q2" ] || [ "$rows_q2" != "$rows_corr" ]; then
      echo "decorrelated Q2corr rows diverge from Q2 on $e:" >&2
      echo "--- Q2 ---" >&2
      echo "$rows_q2" >&2
      echo "--- Q2corr ---" >&2
      echo "$rows_corr" >&2
      exit 1
    fi
  fi
done 3<<EOF
$ENGINES
EOF
echo "   ok: Q2corr differentially matches Q2 on all $NENGINES engines"

# Chaos smoke: a seeded fault-injection run through the service must
# terminate (no hung futures), keep request accounting exactly
# conserved, and surface every injected failure as a typed outcome.
echo "== chaos smoke (seeded fault injection through the service) =="
if ! out=$(LQ_FAULT_SPEC='seed=42;provider/prepare=0.05:codegen;provider/execute=0.08:internal;hybrid/staging=0.05:transient' \
    "$LQCG" serve --sf 0.001 --domains 4 -n 200 --clients 4 2>&1); then
  echo "chaos serve run failed:" >&2
  echo "$out" >&2
  exit 1
fi
case "$out" in
  *"NOT CONSERVED"*)
    echo "chaos run lost requests (accounting not conserved):" >&2
    echo "$out" >&2
    exit 1
    ;;
esac
case "$out" in
  *"[conserved]"*) ;;
  *)
    echo "chaos run printed no conservation verdict:" >&2
    echo "$out" >&2
    exit 1
    ;;
esac
case "$out" in
  *"fault injection armed"*) ;;
  *)
    echo "chaos run did not arm the fault spec:" >&2
    echo "$out" >&2
    exit 1
    ;;
esac
echo "   ok: chaos run terminated, accounting conserved, injection armed"

# End-to-end smoke: the four benchmark workloads through the service,
# untraced and traced, 2 s windows, every answer checked against the
# reference — a wrong answer on the service path fails verification.
echo "== end-to-end smoke (four workloads through the service, answers checked) =="
if ! out=$(dune build @e2ebench/bench-smoke 2>&1); then
  echo "end-to-end smoke failed:" >&2
  echo "$out" >&2
  exit 1
fi
echo "   ok: 4 workloads x untraced/traced, every answer correct"

# Morsel smoke: the parallel engine's shared-queue scheduler driven at a
# deliberately tiny morsel size — thousands of work units per query.
# Rows must be byte-identical across repeated runs (results reassemble
# in morsel order, so scheduling is invisible in the output) and the
# scheduler's counters must surface in the report.
echo "== morsel smoke (compiled-c-parallel at LQ_MORSEL_SIZE=7) =="
for q in Q1 Q6; do
  if ! out1=$(LQ_MORSEL_SIZE=7 "$LQCG" run -e compiled-c-parallel -q "$q" --sf 0.002 2>&1); then
    echo "morsel run failed for $q:" >&2
    echo "$out1" >&2
    exit 1
  fi
  case "$out1" in
    *"parallel/morsels"*) ;;
    *)
      echo "morsel run for $q surfaced no parallel/morsels counter:" >&2
      echo "$out1" >&2
      exit 1
      ;;
  esac
  out2=$(LQ_MORSEL_SIZE=7 "$LQCG" run -e compiled-c-parallel -q "$q" --sf 0.002 2>&1)
  rows1=$(printf '%s\n' "$out1" | grep '^{' || true)
  rows2=$(printf '%s\n' "$out2" | grep '^{' || true)
  if [ -z "$rows1" ] || [ "$rows1" != "$rows2" ]; then
    echo "tiny-morsel rows not deterministic for $q:" >&2
    echo "--- first ---" >&2
    echo "$rows1" >&2
    echo "--- second ---" >&2
    echo "$rows2" >&2
    exit 1
  fi
done
echo "   ok: tiny-morsel runs deterministic, scheduler counters live"

# Allocation smoke: the closure tier keeps floats in a per-plan register
# file and its hash probes return immediates, so a warm compiled-c Q6 at
# sf 0.01 (60k lineitem rows) allocates its request set-up (about 10k
# words, most of it the provider's front end), whatever the table size.
# One boxed float per row would cost 120k words; the budget below is far
# under that.
echo "== compiled-c allocation smoke (warm Q6 at sf 0.01) =="
ALLOC_BUDGET=16384
if ! out=$("$LQCG" run -e compiled-c -q Q6 --sf 0.01 2>&1); then
  echo "compiled-c Q6 run failed:" >&2
  echo "$out" >&2
  exit 1
fi
words=$(printf '%s\n' "$out" | sed -n 's/^alloc: \([0-9]*\) minor + \([0-9]*\) direct-major.*/\1 \2/p' \
  | awk '{ print $1 + $2 }')
if [ -z "$words" ]; then
  echo "lqcg run printed no alloc line:" >&2
  echo "$out" >&2
  exit 1
fi
if [ "$words" -gt "$ALLOC_BUDGET" ]; then
  echo "warm compiled-c Q6 allocated $words words per execution (budget $ALLOC_BUDGET):" >&2
  echo "$out" >&2
  exit 1
fi
echo "   ok: $words words per warm execution (budget $ALLOC_BUDGET)"

# Trace smoke: one traced query per engine, exported as Chrome JSON and
# re-validated by the standalone well-formedness checker — the span tree
# must hold for every engine's execute path, not just the ones the unit
# tests pick.
echo "== trace smoke (one traced query per engine, checked) =="
TRACE_CHECK="_build/default/devtools/trace_check.exe"
TRACE_OUT="$(mktemp /tmp/lqcg_trace.XXXXXX.json)"
trap 'rm -f "$TRACE_OUT"' EXIT
while IFS= read -r e <&3; do
  if ! out=$("$LQCG" trace Q1 -e "$e" --sf 0.001 --out "$TRACE_OUT" 2>&1); then
    echo "traced run failed for $e:" >&2
    echo "$out" >&2
    exit 1
  fi
  if ! check=$("$TRACE_CHECK" "$TRACE_OUT" 2>&1); then
    echo "exported trace ill-formed for $e:" >&2
    echo "$check" >&2
    exit 1
  fi
done 3<<EOF
$ENGINES
EOF
echo "   ok: $NENGINES engines traced, every export well-formed"

# Codegen smoke: every extended-TPC-H emission must be real C — pushed
# through `cc -fsyntax-only` (loud skip without a compiler; the stage
# below exercises the full compile+dlopen path).
echo "== codegen smoke (emitted C through cc -fsyntax-only) =="
_build/default/devtools/codegen_smoke.exe

# JIT smoke: one pair end to end through the real tiers — compile the
# emitted C with cc, dlopen it, and check the dlopened object's rows
# against the reference interpreter. Needs a C compiler on PATH; skipped
# loudly otherwise (LQ_BENCH_GATE=strict turns the skip into a failure).
if command -v "${LQ_CC:-cc}" >/dev/null 2>&1; then
  echo "== jit smoke (Q1 x compiled-c-jit vs linq-to-objects, sync cc) =="
  JIT_CACHE="$(mktemp -d /tmp/lqcg_jit.XXXXXX)"
  if ! jit_out=$(LQ_JIT_MODE=sync LQ_JIT_CACHE_DIR="$JIT_CACHE" \
      "$LQCG" run -e compiled-c-jit -q Q1 --sf 0.01 2>&1); then
    echo "jit run failed:" >&2
    echo "$jit_out" >&2
    rm -rf "$JIT_CACHE"
    exit 1
  fi
  if ! ref_out=$("$LQCG" run -e linq-to-objects -q Q1 --sf 0.01 2>&1); then
    echo "reference run failed:" >&2
    echo "$ref_out" >&2
    rm -rf "$JIT_CACHE"
    exit 1
  fi
  jit_rows=$(printf '%s\n' "$jit_out" | grep '^{' || true)
  ref_rows=$(printf '%s\n' "$ref_out" | grep '^{' || true)
  if [ -z "$jit_rows" ] || [ "$jit_rows" != "$ref_rows" ]; then
    echo "jit rows diverge from the reference interpreter:" >&2
    echo "--- jit ---" >&2
    echo "$jit_rows" >&2
    echo "--- reference ---" >&2
    echo "$ref_rows" >&2
    rm -rf "$JIT_CACHE"
    exit 1
  fi
  case "$jit_out" in
    *"service/jit/exec_jit"*) ;;
    *)
      echo "jit run never reached the jit tier (no service/jit/exec_jit counter):" >&2
      echo "$jit_out" >&2
      rm -rf "$JIT_CACHE"
      exit 1
      ;;
  esac
  rm -rf "$JIT_CACHE"
  echo "   ok: dlopened object served Q1 with reference-identical rows"

  # Async smoke: `lqcg run` executes its query twice (cold, then warm),
  # and an async prepare compiles nothing until its plan runs a second
  # time. The warm run must queue exactly one background compile, and
  # the rows must match the reference whichever tier served them.
  echo "== async jit smoke (second execution queues one compile) =="
  JIT_CACHE="$(mktemp -d /tmp/lqcg_jita.XXXXXX)"
  if ! async_out=$(LQ_JIT_MODE=async LQ_JIT_CACHE_DIR="$JIT_CACHE" \
      "$LQCG" run -e compiled-c-jit -q Q1 --sf 0.01 2>&1); then
    echo "async jit run failed:" >&2
    echo "$async_out" >&2
    rm -rf "$JIT_CACHE"
    exit 1
  fi
  rm -rf "$JIT_CACHE"
  async_rows=$(printf '%s\n' "$async_out" | grep '^{' || true)
  if [ -z "$async_rows" ] || [ "$async_rows" != "$ref_rows" ]; then
    echo "async jit rows diverge from the reference interpreter:" >&2
    echo "$async_out" >&2
    exit 1
  fi
  if ! printf '%s\n' "$async_out" | grep -Eq '^service/jit/queued +1$'; then
    echo "async jit run did not queue exactly one compile (want service/jit/queued 1):" >&2
    echo "$async_out" >&2
    exit 1
  fi
  echo "   ok: the warm run queued one compile, rows reference-identical"

  # Guarded-tiering smoke 1: arm the jit/validate chaos point so the
  # sandboxed first execution of the freshly compiled artifact crashes.
  # The service must stay up, answer Q1 with reference-identical rows
  # from the interpreted tier, and never promote the artifact.
  echo "== guarded jit smoke (chaos-crashed validation stays interpreted) =="
  JIT_CACHE="$(mktemp -d /tmp/lqcg_jitg.XXXXXX)"
  if ! chaos_out=$(LQ_JIT_MODE=sync LQ_JIT_CACHE_DIR="$JIT_CACHE" \
      LQ_FAULT_SPEC='seed=5;jit/validate=1:internal' \
      "$LQCG" run -e compiled-c-jit -q Q1 --sf 0.01 2>&1); then
    echo "chaos-validated jit run failed (service must survive a crashing artifact):" >&2
    echo "$chaos_out" >&2
    rm -rf "$JIT_CACHE"
    exit 1
  fi
  chaos_rows=$(printf '%s\n' "$chaos_out" | grep '^{' || true)
  if [ -z "$chaos_rows" ] || [ "$chaos_rows" != "$ref_rows" ]; then
    echo "interpreted fallback rows diverge from the reference under validation chaos:" >&2
    echo "$chaos_out" >&2
    rm -rf "$JIT_CACHE"
    exit 1
  fi
  case "$chaos_out" in
    *"service/jit/validation_failures"*) ;;
    *)
      echo "validation chaos armed but no service/jit/validation_failures counter:" >&2
      echo "$chaos_out" >&2
      rm -rf "$JIT_CACHE"
      exit 1
      ;;
  esac
  case "$chaos_out" in
    *"service/jit/exec_jit"*)
      echo "crashing artifact was promoted anyway (service/jit/exec_jit present):" >&2
      echo "$chaos_out" >&2
      rm -rf "$JIT_CACHE"
      exit 1
      ;;
    *) ;;
  esac
  rm -rf "$JIT_CACHE"
  echo "   ok: artifact crashed in the sandbox, query served interpreted"

  # Guarded-tiering smoke 2: corrupt the cached .so on disk between two
  # processes. The integrity manifest must catch it before dlopen, evict
  # the damaged artifact, recompile, and still serve correct rows.
  echo "== guarded jit smoke (corrupt cached artifact evicted + recompiled) =="
  JIT_CACHE="$(mktemp -d /tmp/lqcg_jitc.XXXXXX)"
  if ! warm_out=$(LQ_JIT_MODE=sync LQ_JIT_CACHE_DIR="$JIT_CACHE" \
      "$LQCG" run -e compiled-c-jit -q Q1 --sf 0.01 2>&1); then
    echo "cache-populating jit run failed:" >&2
    echo "$warm_out" >&2
    rm -rf "$JIT_CACHE"
    exit 1
  fi
  corrupted=0
  for so in "$JIT_CACHE"/lqjit-*.so; do
    [ -e "$so" ] || continue
    # Replace, never truncate in place: an in-place truncation of a
    # mapped .so SIGBUSes any process that still has it loaded.
    head -c 100 "$so" > "$so.trunc" && mv "$so.trunc" "$so"
    corrupted=$((corrupted + 1))
  done
  if [ "$corrupted" -eq 0 ]; then
    echo "no cached lqjit-*.so found to corrupt in $JIT_CACHE" >&2
    rm -rf "$JIT_CACHE"
    exit 1
  fi
  if ! repair_out=$(LQ_JIT_MODE=sync LQ_JIT_CACHE_DIR="$JIT_CACHE" \
      "$LQCG" run -e compiled-c-jit -q Q1 --sf 0.01 2>&1); then
    echo "jit run over a corrupted cache failed (must evict + recompile):" >&2
    echo "$repair_out" >&2
    rm -rf "$JIT_CACHE"
    exit 1
  fi
  repair_rows=$(printf '%s\n' "$repair_out" | grep '^{' || true)
  if [ -z "$repair_rows" ] || [ "$repair_rows" != "$ref_rows" ]; then
    echo "rows diverge after cache-corruption recovery:" >&2
    echo "$repair_out" >&2
    rm -rf "$JIT_CACHE"
    exit 1
  fi
  case "$repair_out" in
    *"service/jit/cache_corrupt"*) ;;
    *)
      echo "corrupt cached artifact not detected (no service/jit/cache_corrupt counter):" >&2
      echo "$repair_out" >&2
      rm -rf "$JIT_CACHE"
      exit 1
      ;;
  esac
  case "$repair_out" in
    *"service/jit/exec_jit"*) ;;
    *)
      echo "recompiled artifact never served (no service/jit/exec_jit after recovery):" >&2
      echo "$repair_out" >&2
      rm -rf "$JIT_CACHE"
      exit 1
      ;;
  esac
  rm -rf "$JIT_CACHE"
  echo "   ok: truncated .so caught by manifest, evicted, recompiled, rows correct"
else
  if [ "${LQ_BENCH_GATE:-}" = "strict" ]; then
    echo "== jit smoke: no C compiler on PATH and LQ_BENCH_GATE=strict — failing ==" >&2
    exit 1
  fi
  echo "== jit smoke SKIPPED: no C compiler on PATH =="
  echo "   *** the native JIT (compile + dlopen + tier swap) is UNVERIFIED on this machine ***"
  echo "   (install cc or set LQ_CC, or set LQ_BENCH_GATE=strict to make this fatal)"
fi

# Overhead guard: with no trace live, every span point must cost one
# atomic load — a mutex or allocation on the disabled path fails this.
echo "== trace overhead guard (disabled span points) =="
_build/default/devtools/trace_overhead.exe

# Perf regression gate: re-score the suite with the deterministic sim
# backend and compare against the committed BENCH_tpch.json. A >5%
# score regression on any (query, engine) pair — or a vanished pair —
# fails verification. If the cost is accepted, refresh the baseline
# with devtools/bench_refresh.sh and commit the diff.
echo "== perf gate (cachesim scores vs committed BENCH_tpch.json) =="
_build/default/devtools/bench_gate.exe --quiet

# Cachegrind smoke: the real-valgrind scoring path (child processes,
# out-file parsing, setup-cost subtraction) exercised end to end on one
# pair. Needs valgrind on PATH; skipped loudly otherwise
# (LQ_BENCH_GATE=strict turns the skip into a failure).
if command -v valgrind >/dev/null 2>&1; then
  echo "== cachegrind smoke (Q6 x compiled-c under valgrind) =="
  CG_OUT="$(mktemp /tmp/lqcg_bench.XXXXXX.json)"
  if ! _build/default/bench/perf_ci.exe --backend cachegrind \
      --query Q6 --engine compiled-c --sf 0.001 --out "$CG_OUT"; then
    echo "cachegrind smoke failed" >&2
    rm -f "$CG_OUT"
    exit 1
  fi
  case "$(cat "$CG_OUT")" in
    *'"backend": "cachegrind"'*) ;;
    *)
      echo "cachegrind smoke produced no cachegrind-backend record:" >&2
      cat "$CG_OUT" >&2
      rm -f "$CG_OUT"
      exit 1
      ;;
  esac
  rm -f "$CG_OUT"
  echo "   ok: valgrind path scored one pair end to end"
else
  if [ "${LQ_BENCH_GATE:-}" = "strict" ]; then
    echo "== cachegrind smoke: valgrind not on PATH and LQ_BENCH_GATE=strict — failing ==" >&2
    exit 1
  fi
  echo "== cachegrind smoke SKIPPED: valgrind not on PATH =="
  echo "   *** the real-cachegrind scoring path is UNVERIFIED on this machine ***"
  echo "   (install valgrind, or set LQ_BENCH_GATE=strict to make this fatal)"
fi

echo "== verify OK =="
