#!/usr/bin/env bash
# Local CI: configure, build, and run the test suite in four
# configurations — plain, Release (every target at -O3, whose extra
# warnings -Werror also turns into errors), ASan+UBSan (SPIRE_SANITIZE=ON),
# and TSan (SPIRE_SANITIZE=thread, concurrency tests only: the serving
# layer's queue/merger/serve suites). Any warning is an error in every
# configuration (-Werror is always on). After ctest, the plain and
# sanitized configurations replay the spire_fuzz seed corpus
# (tools/fuzz_seeds.txt) through the differential oracle battery
# (DESIGN.md §7); an oracle violation fails the build and leaves the
# minimized repro under <build-dir>/fuzz-repros/ (its path is printed on
# stdout). The plain configuration then runs the observability smoke step
# (DESIGN.md §9): a fuzz-seed `spire_cli run` with tracing + explain on,
# artifact validation via `spire_cli obscheck`, byte-identity of
# instrumented vs uninstrumented output, and the expt11_obs overhead
# bench (single-process arms reported; the dist leg's traced-overhead
# ratio gated at 1.15x against BENCH_obs.json). A CEP smoke step
# (DESIGN.md §11) then cross-checks the pattern library's two evaluators
# over a fuzz-seed trace and an archive replay via `spire_cli detect`.
# An archive codec smoke (DESIGN.md §6) round-trips a trace through both
# block codecs (including the v1 -> v2 compaction path) over the mmap and
# buffered transports — in the plain AND the sanitized configuration.
# A segment-direct query smoke (DESIGN.md §13) archives a fuzz-seed trace
# and serves a generated mixed-kind workload through `spire_cli
# queryserve` on 2 threads with the materialized-baseline identity check
# on and the query cache counters re-validated by obscheck — in the plain
# AND the TSan configuration (the shared block cache and concurrent
# decode paths are exactly what TSan is for).
# A distributed-serving smoke (DESIGN.md §12) runs a truck-transfer seed
# on 2 loopback nodes with the serial-reference byte-identity check on,
# validates the dist wire counters via `spire_cli obscheck`, and re-runs
# the workload on forked node processes (spawn mode must match loopback
# bit for bit) with the full fleet observability stack attached: per-node
# StatsReport frames aggregated into a fleet statusz and per-node traces
# merged onto one timeline, both re-validated by obscheck (DESIGN.md §9).
# The TSan leg repeats the loopback half only — fork with running threads
# is out of bounds under the sanitizer.
#
#   tools/ci.sh            # all four configurations
#   tools/ci.sh plain      # plain only
#   tools/ci.sh release    # Release build + ctest only
#   tools/ci.sh sanitize   # ASan+UBSan only
#   tools/ci.sh tsan       # ThreadSanitizer only (serve/queue/merger tests)
set -euo pipefail

cd "$(dirname "$0")/.."
mode="${1:-all}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

run_config() {
  local name="$1" dir="$2"
  shift 2
  echo "=== [$name] configure ==="
  cmake -B "$dir" -S . "$@"
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$jobs"
  echo "=== [$name] test ==="
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
  echo "=== [$name] fuzz (differential oracles) ==="
  "$dir/tools/spire_fuzz" --seeds tools/fuzz_seeds.txt --budget 30s \
    --out-dir "$dir/fuzz-repros"
}

# The Release leg builds every target with the optimizer's extra
# diagnostics (-O3 inlining exposes warnings the default -O2 build does
# not report) and runs the whole test suite on the optimized binaries.
run_release() {
  local dir="build-release"
  echo "=== [release] configure ==="
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release
  echo "=== [release] build ==="
  cmake --build "$dir" -j "$jobs"
  echo "=== [release] test ==="
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
}

# TSan watches the threaded code paths; the single-threaded suites add
# nothing but runtime, so only the serving-layer and obs-instrument tests
# run here.
run_tsan() {
  local dir="build-tsan"
  echo "=== [tsan] configure ==="
  cmake -B "$dir" -S . -DSPIRE_SANITIZE=thread
  echo "=== [tsan] build ==="
  cmake --build "$dir" -j "$jobs" \
    --target serve_test common_test obs_test dist_test query_test spire_cli
  echo "=== [tsan] test (concurrency suites) ==="
  ctest --test-dir "$dir" --output-on-failure -j "$jobs" \
    -R 'Serve|Queue|Merger|Log|Obs|Tracer|Dist|Cache'
  run_dist_smoke "$dir" loopback
  run_queryserve_smoke "$dir"
}

# Observability smoke: a fuzz-seed run with tracing and the explain channel
# on, the trace/metrics/explain artifacts re-validated by `spire_cli
# obscheck`, and a soft check that instruments-off vs instruments-on output
# is byte-identical (determinism with the obs layer in both states).
run_obs_smoke() {
  local dir="$1" tmp
  tmp="$(mktemp -d)"
  echo "=== [obs] smoke (run + statusz + obscheck) ==="
  "$dir/tools/spire_cli" run seed=7 out="$tmp/on.spev" \
    trace_out="$tmp/trace.json" explain_out="$tmp/run.spexp" \
    archive_out="$tmp/run.sparc"
  "$dir/tools/spire_cli" statusz seed=7 json=true > "$tmp/statusz.json"
  "$dir/tools/spire_cli" obscheck trace="$tmp/trace.json" \
    metrics="$tmp/statusz.json" explain="$tmp/run.spexp"
  "$dir/tools/spire_cli" serve sites=1 seed=7 shards=1 \
    out="$tmp/off.spev" > /dev/null
  if ! cmp -s "$tmp/on.spev" "$tmp/off.spev"; then
    echo "obs smoke: instrumented run diverged from uninstrumented run" >&2
    rm -rf "$tmp"
    exit 1
  fi
  echo "=== [obs] overhead bench (dist leg gated) ==="
  # The single-process arms stay soft — absolute wall-clock on shared CI
  # machines is too noisy. The dist leg's traced-over-disabled ratio is a
  # quotient of two interleaved same-machine runs, so it IS gated: the
  # fleet observability stack (per-epoch StatsReport frames + handoff
  # spans) must stay within 1.15x of the uninstrumented run. The binary
  # itself hard-fails if stats+tracing change the merged stream.
  SPIRE_BENCH_DIR="$tmp" "$dir/bench/expt11_obs" reps=3 | tail -n +4
  tools/bench_compare.py BENCH_obs.json "$tmp/BENCH_obs.json" \
    --hard --threshold 0.15
  rm -rf "$tmp"
}

# CEP detection smoke (DESIGN.md §11): the built-in pattern library over a
# fuzz-seed trace with both evaluators cross-checked (eval=check exits
# nonzero on any divergence or zero matches), the match explain channel
# re-validated by obscheck, and a registry-free pattern detected over an
# archive replay of the same seed.
run_cep_smoke() {
  local dir="$1" tmp
  tmp="$(mktemp -d)"
  echo "=== [cep] detect smoke (library + archive + explain) ==="
  "$dir/tools/spire_cli" detect patterns=library seed=33 eval=check \
    require_matches=true explain_out="$tmp/matches.spexp"
  "$dir/tools/spire_cli" obscheck explain="$tmp/matches.spexp"
  "$dir/tools/spire_cli" run seed=33 out="$tmp/run.spev" \
    archive_out="$tmp/run.sparc" > /dev/null
  "$dir/tools/spire_cli" detect 'pattern=Missing(x)' \
    archive="$tmp/run.sparc" eval=check require_matches=true
  rm -rf "$tmp"
}

# Archive codec smoke (DESIGN.md §6): a fuzz-seed trace archived with each
# codec (the v2 bitpack segment produced by compacting a v1 varint segment,
# so the upgrade path is exercised too), then scanned back over both
# transports. Every scan must reproduce the pipeline's event file
# byte-for-byte. Runs under the sanitized build as well, putting the
# word-at-a-time bitpack decode and the mmap zero-copy path in front of
# ASan/UBSan on every CI pass.
run_archive_smoke() {
  local dir="$1" tmp arc transport
  tmp="$(mktemp -d)"
  echo "=== [archive] codec smoke (varint + v1->v2 bitpack, mmap + buffered) ==="
  "$dir/tools/spire_cli" run seed=21 out="$tmp/run.spev" > /dev/null
  "$dir/tools/spire_cli" archive in="$tmp/run.spev" out="$tmp/varint.sparc" \
    codec=varint
  "$dir/tools/spire_cli" archive in="$tmp/run.spev" out="$tmp/v1.sparc" \
    format=1
  "$dir/tools/spire_cli" compact in="$tmp/v1.sparc" out="$tmp/bitpack.sparc"
  for arc in varint bitpack; do
    for transport in 1 0; do
      "$dir/tools/spire_cli" scan in="$tmp/$arc.sparc" mmap="$transport" \
        out="$tmp/scan.spev" > /dev/null
      if ! cmp -s "$tmp/run.spev" "$tmp/scan.spev"; then
        echo "archive smoke: $arc mmap=$transport scan diverged" >&2
        rm -rf "$tmp"
        exit 1
      fi
    done
  done
  rm -rf "$tmp"
}

# Segment-direct query smoke (DESIGN.md §13): a fuzz-seed trace archived
# with the bitpack codec and served by `spire_cli queryserve` — a
# generated mixed-kind workload on 2 threads through a shared block cache,
# two passes so the second is warm. check=1 answers every request through
# EventLog::FromArchive as well and exits nonzero on any divergence, and
# the binary itself fails if the cache counters don't reconcile
# (hits + misses == lookups, decodes <= misses); obscheck re-validates the
# exported query metrics.
run_queryserve_smoke() {
  local dir="$1" tmp
  tmp="$(mktemp -d)"
  echo "=== [query] queryserve smoke (segment-direct vs materialized) ==="
  "$dir/tools/spire_cli" run seed=21 out="$tmp/run.spev" > /dev/null
  "$dir/tools/spire_cli" archive in="$tmp/run.spev" out="$tmp/run.sparc" \
    codec=bitpack block=256
  "$dir/tools/spire_cli" queryserve in="$tmp/run.sparc" count=2000 seed=3 \
    threads=2 passes=2 cache_mb=4 check=1 stats_out="$tmp/query-metrics.json"
  "$dir/tools/spire_cli" obscheck metrics="$tmp/query-metrics.json"
  rm -rf "$tmp"
}

# Distributed serving smoke (DESIGN.md §12): a transfer-scenario seed on 2
# nodes. `check=1` replays the serial per-site reference and demands the
# distributed stream match it byte for byte (the CLI face of the
# distributed_equivalence oracle); the dist wire counters round-trip
# through obscheck. The optional second half re-runs the same workload
# with each node in a forked process over real socketpairs and compares
# the two output files — pass "loopback" as the second argument to skip
# it (TSan forbids fork once coordinator threads are up).
run_dist_smoke() {
  local dir="$1" spawn="${2:-spawn}" tmp
  tmp="$(mktemp -d)"
  echo "=== [dist] smoke (2-node loopback + obscheck) ==="
  "$dir/tools/spire_cli" dist seed=7 nodes=2 mode=loopback check=1 \
    out="$tmp/loopback.spev" stats_out="$tmp/dist-metrics.json"
  "$dir/tools/spire_cli" obscheck metrics="$tmp/dist-metrics.json"
  if [ "$spawn" = "spawn" ]; then
    echo "=== [dist] smoke (forked nodes + fleet statusz + merged trace) ==="
    # The fleet observability stack rides along: per-node registries
    # aggregated into stats_out, per-node traces merged into trace_out —
    # and the output must STILL match the uninstrumented loopback run.
    "$dir/tools/spire_cli" dist seed=7 nodes=2 mode=spawn check=1 \
      out="$tmp/spawn.spev" stats_every=8 \
      stats_out="$tmp/fleet-metrics.json" trace_out="$tmp/fleet-trace.json"
    "$dir/tools/spire_cli" obscheck metrics="$tmp/fleet-metrics.json" \
      trace="$tmp/fleet-trace.json" require=epoch,hop
    if ! cmp -s "$tmp/loopback.spev" "$tmp/spawn.spev"; then
      echo "dist smoke: spawn run diverged from loopback run" >&2
      rm -rf "$tmp"
      exit 1
    fi
  fi
  rm -rf "$tmp"
}

# Incremental-inference bench: a quick expt12 run (byte-identity of
# delta-driven vs full recomputation is checked inside the binary, so a
# divergence fails hard) compared against the committed
# BENCH_incremental.json baseline. The comparison itself is soft — same
# noisy-wall-clock policy as the expt11 check above.
run_bench_compare() {
  local dir="$1" tmp
  tmp="$(mktemp -d)"
  echo "=== [bench] expt12 incremental (byte-identity + soft compare) ==="
  # full=true matches the scale of the committed baseline (quick mode runs
  # a smaller graph where the stationary speedup is structurally lower).
  SPIRE_BENCH_DIR="$tmp" "$dir/bench/expt12_incremental" full=true | tail -n +4
  if [ -f BENCH_incremental.json ]; then
    tools/bench_compare.py BENCH_incremental.json \
      "$tmp/BENCH_incremental.json" || true
  fi
  echo "=== [bench] expt13 cep (match identity + soft compare) ==="
  # Match-set identity and the 2x interval-vs-naive floor are asserted
  # inside the binary; the wall-clock comparison stays soft.
  SPIRE_BENCH_DIR="$tmp" "$dir/bench/expt13_cep" | tail -n +4
  if [ -f BENCH_cep.json ]; then
    tools/bench_compare.py BENCH_cep.json "$tmp/BENCH_cep.json" || true
  fi
  echo "=== [bench] expt9 archive (5x epoch-scan floor + soft compare) ==="
  # The 5x bitpack/mmap-vs-buffered-varint epoch-scan floor is asserted
  # inside the binary; the wall-clock comparison stays soft.
  SPIRE_BENCH_DIR="$tmp" "$dir/bench/expt9_archive" | tail -n +4
  if [ -f BENCH_archive.json ]; then
    tools/bench_compare.py BENCH_archive.json "$tmp/BENCH_archive.json" || true
  fi
  echo "=== [bench] expt15 query (5x warm-serving floor + soft compare) ==="
  # Answer identity against the materialized EventLog, cache-counter
  # reconciliation, and the 5x warm-cache-vs-FromArchive-per-request floor
  # are asserted inside the binary; the wall-clock comparison stays soft.
  SPIRE_BENCH_DIR="$tmp" "$dir/bench/expt15_query" | tail -n +4
  if [ -f BENCH_query.json ]; then
    tools/bench_compare.py BENCH_query.json "$tmp/BENCH_query.json" || true
  fi
  echo "=== [bench] expt5 throughput (soft compare) ==="
  # Default scale (5k-40k objects), the scale of the committed baseline.
  SPIRE_BENCH_DIR="$tmp" "$dir/bench/expt5_throughput" | tail -n +4
  if [ -f BENCH_throughput.json ]; then
    tools/bench_compare.py BENCH_throughput.json \
      "$tmp/BENCH_throughput.json" || true
  fi
  echo "=== [bench] expt10 serve (byte-identity + soft compare) ==="
  # Every shard count's merged output is checked against the serial
  # reference inside the binary; the scaling columns stay soft.
  SPIRE_BENCH_DIR="$tmp" "$dir/bench/expt10_serve" | tail -n +4
  if [ -f BENCH_serve.json ]; then
    tools/bench_compare.py BENCH_serve.json "$tmp/BENCH_serve.json" || true
  fi
  echo "=== [bench] expt14 dist (byte-identity + soft compare) ==="
  # Byte-identity of every node count (loopback and forked processes)
  # against the serial reference is asserted inside the binary; the
  # throughput/speedup comparison stays soft — the scaling columns only
  # mean anything with more than one hardware thread.
  SPIRE_BENCH_DIR="$tmp" "$dir/bench/expt14_dist" | tail -n +4
  if [ -f BENCH_dist.json ]; then
    tools/bench_compare.py BENCH_dist.json "$tmp/BENCH_dist.json" || true
  fi
  rm -rf "$tmp"
}

case "$mode" in
  plain)
    run_config plain build
    run_obs_smoke build
    run_cep_smoke build
    run_archive_smoke build
    run_queryserve_smoke build
    run_dist_smoke build
    run_bench_compare build
    ;;
  release) run_release ;;
  sanitize)
    run_config sanitize build-sanitize -DSPIRE_SANITIZE=ON
    run_archive_smoke build-sanitize
    ;;
  tsan) run_tsan ;;
  all)
    run_config plain build
    run_obs_smoke build
    run_cep_smoke build
    run_archive_smoke build
    run_queryserve_smoke build
    run_dist_smoke build
    run_bench_compare build
    run_release
    run_config sanitize build-sanitize -DSPIRE_SANITIZE=ON
    run_archive_smoke build-sanitize
    run_tsan
    ;;
  *)
    echo "usage: tools/ci.sh [plain|release|sanitize|tsan|all]" >&2
    exit 2
    ;;
esac

echo "=== CI OK ($mode) ==="
