#!/usr/bin/env bash
# CI entry point: build Release + Debug, run the test suite in both,
# and run the throughput benchmarks, leaving BENCH_*.json in the repo
# root so the perf trajectory is tracked per commit. Benchmarks are
# gated against their committed baselines on deterministic work
# counters (SAT vars/clauses, cache hits, patched rewrites, found
# counts, LLM calls) first, and on same-run ratios otherwise.
set -euo pipefail

cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)

for config in Release Debug; do
    build_dir="build-${config,,}"
    echo "=== Configuring ${config} ==="
    cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE="${config}"
    echo "=== Building ${config} ==="
    cmake --build "${build_dir}" -j "${jobs}"
    echo "=== Testing ${config} ==="
    ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"
done

echo "=== Verifier fuzz: a long budget with a fresh seed ==="
# ctest runs a fixed-seed slice of 2,000 pairs; this run is ten times
# longer, draws multiplication and division at every width, and
# prints its seed, so a disagreement found here can be replayed with
# the same LPO_VERIFIER_FUZZ value.
fuzz_seed=$(date +%s)
echo "LPO_VERIFIER_FUZZ=20000,${fuzz_seed}"
LPO_VERIFIER_FUZZ="20000,${fuzz_seed}" ./build-release/test_verifier_fuzz

echo "=== Sanitize job: ASan+UBSan over concurrency and containment ==="
# Lifetime bugs hide in exactly two places: the work-stealing deques
# (racing thieves reading retired ring buffers, scope teardown vs
# worker handshake, cancellation drains, nested scopes) and the fault
# containment / rollback paths. Build those tests with
# -fsanitize=address,undefined and run them —
# test_task_graph's cancellation tests double as the zero-leaked-tasks
# check (a leaked task node is an ASan leak report). test_refine and
# test_exec_plan drive the verifier's concrete sweep on the task scope
# at 1/2/8 threads, and the i64 overflow predicates under UBSan.
# test_sat covers the solver's clause arena, watch-list rebuilds and
# learnt-clause reduction; test_bitblast, test_encoder,
# test_word_rules and test_functional_hashing cover the circuit
# builder's unique and signature tables, its window proofs, and the
# encoder's word-level term table and demanded widths, and
# test_verifier_fuzz drives all of them on fuzzed pairs. test_function
# prints cross-context clones after their source Context is gone, and
# test_pipeline runs every case on such a clone.
cmake -B build-sanitize -S . -DCMAKE_BUILD_TYPE=Debug -DLPO_SANITIZE=ON
cmake --build build-sanitize -j "${jobs}" \
    --target test_task_graph test_refine test_exec_plan test_chaos \
    test_sat test_bitblast test_encoder test_word_rules \
    test_functional_hashing test_function test_pipeline test_verifier_fuzz
./build-sanitize/test_sat
./build-sanitize/test_bitblast
./build-sanitize/test_encoder
./build-sanitize/test_word_rules
./build-sanitize/test_functional_hashing
./build-sanitize/test_task_graph
./build-sanitize/test_refine
./build-sanitize/test_exec_plan
./build-sanitize/test_chaos
./build-sanitize/test_function
./build-sanitize/test_pipeline
./build-sanitize/test_verifier_fuzz
# Repeat the failpoint sweep under the sanitizers (site list comes
# from the Release CLI; the sites themselves are build-independent).
for site in $(./build-release/lpo_cli failpoints | awk '{print $1}'); do
    LPO_FAILPOINTS="${site}=always" \
        ./build-sanitize/test_chaos --gtest_filter='ChaosEnvTest.*' \
        > /dev/null
    echo "sanitize chaos site ${site}: OK"
done

echo "=== ThreadSanitizer job: task scope and the pipeline's reorder drain ==="
# The task scope's owner/worker handshake, cancellation, exception
# capture and nested-scope slot hand-back, and the pipeline's in-order
# reorder drain (done flags, the single-committer handoff, stats
# folding and patch-back from whichever worker commits) run under
# -fsanitize=thread. A report makes the test binary exit nonzero.
# GCC does not instrument atomic_thread_fence under TSan (it warns at
# build time), so this job checks the scope and drain code, not the
# Chase-Lev deque's fences; the ASan job above stays for those.
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
cmake --build build-tsan -j "${jobs}" \
    --target test_task_graph test_exec_plan test_pipeline test_module_opt
./build-tsan/test_task_graph
./build-tsan/test_exec_plan --gtest_filter='DeterministicParallelism.*'
./build-tsan/test_pipeline
./build-tsan/test_module_opt

echo "=== Chaos sweep: every failpoint site, one at a time (Release) ==="
# Each site is forced to fire on every hit while the end-to-end module
# run (ChaosEnvTest) must still complete without crashing or patching
# invalid IR. The per-site degradation telemetry is collected into
# build-release/chaos_degradation.txt (a build artifact, not a tracked
# file) so the fault-handling trajectory is tracked per commit
# alongside the perf numbers. `failpoints` now prints live hit/fire
# counters after each site name, so take column one only.
: > build-release/chaos_degradation.txt
for site in $(./build-release/lpo_cli failpoints | awk '{print $1}'); do
    echo "--- chaos site: ${site} ---"
    LPO_FAILPOINTS="${site}=always" \
        ./build-release/test_chaos --gtest_filter='ChaosEnvTest.*' \
        | tee build-release/chaos_site.log
    {
        echo "site: ${site}"
        grep '^degradation:' build-release/chaos_site.log \
            || echo "degradation: none"
        grep '^store:' build-release/chaos_site.log || true
    } >> build-release/chaos_degradation.txt
done
echo "chaos_degradation.txt:"
cat build-release/chaos_degradation.txt

echo "=== Observability: traced module run (Release) ==="
# One end-to-end optimize-module run over a generated 48-function
# module with tracing, metrics, and the profile table on. The trace
# and metrics files must be valid JSON (json.tool is the arbiter),
# the trace must contain a span for every pipeline phase, the profile
# must carry the solver-work (sat:), circuit builder (circuit:) and
# degradation lines and the slowest-verify-calls table, and — the hard invariant — the emitted
# module must be byte-identical with and without observability,
# serial and threaded.
obs_dir=build-release/observability
rm -rf "${obs_dir}" && mkdir -p "${obs_dir}"
./build-release/lpo_cli gen-module > "${obs_dir}/module.ll"

./build-release/lpo_cli optimize-module "${obs_dir}/module.ll" \
    --proposer=hybrid --threads=1 --emit="${obs_dir}/plain_t1.ll"
./build-release/lpo_cli optimize-module "${obs_dir}/module.ll" \
    --proposer=hybrid --threads=1 --emit="${obs_dir}/traced_t1.ll" \
    --trace="${obs_dir}/trace.lpo.json" \
    --metrics="${obs_dir}/metrics.lpo.json" --profile \
    2> "${obs_dir}/profile_t1.txt"
./build-release/lpo_cli optimize-module "${obs_dir}/module.ll" \
    --proposer=hybrid --threads=8 --emit="${obs_dir}/plain_t8.ll"
./build-release/lpo_cli optimize-module "${obs_dir}/module.ll" \
    --proposer=hybrid --threads=8 --emit="${obs_dir}/traced_t8.ll" \
    --trace="${obs_dir}/trace_t8.lpo.json" \
    --metrics="${obs_dir}/metrics_t8.lpo.json" --profile \
    2> "${obs_dir}/profile_t8.txt"

for f in trace.lpo.json metrics.lpo.json trace_t8.lpo.json \
         metrics_t8.lpo.json; do
    python3 -m json.tool "${obs_dir}/${f}" > /dev/null
    echo "observability: ${f} is valid JSON"
done
# Patch-back streams inside the pipeline's reorder drain (timed via
# phase.patch_ns, attributed to the per-sequence spans), so the trace
# has no standalone "patch" phase span anymore.
for span in extract propose verify dce; do
    grep -q "\"${span}\"" "${obs_dir}/trace.lpo.json" || {
        echo "FAIL: trace is missing the ${span} phase span"
        exit 1
    }
done
grep -q '"module.latency_ns"' "${obs_dir}/metrics.lpo.json" || {
    echo "FAIL: metrics JSON is missing module.latency_ns"
    exit 1
}
for threads in 1 8; do
    cat "${obs_dir}/profile_t${threads}.txt"
    for line in sat circuit degradation; do
        grep -q "^${line}: " "${obs_dir}/profile_t${threads}.txt" || {
            echo "FAIL: --profile at ${threads} thread(s) is missing" \
                 "the ${line}: line"
            exit 1
        }
    done
    grep -q '^slowest verify calls:$' "${obs_dir}/profile_t${threads}.txt" || {
        echo "FAIL: --profile at ${threads} thread(s) is missing the" \
             "slowest verify calls table"
        exit 1
    }
done
echo "observability: --profile reports sat:, circuit:, degradation: and the slowest verify calls at 1 and 8 threads"
cmp "${obs_dir}/plain_t1.ll" "${obs_dir}/traced_t1.ll"
cmp "${obs_dir}/plain_t8.ll" "${obs_dir}/traced_t8.ll"
cmp "${obs_dir}/plain_t1.ll" "${obs_dir}/plain_t8.ll"
echo "observability: traced and untraced modules byte-identical at 1 and 8 threads"

echo "=== Scheduler skew determinism (Release) ==="
# A steal-heavy workload: many one-block functions means many cheap
# case tasks, all pushed onto the scope owner's deque, so threaded
# runs only make progress by stealing. The emitted module must be
# byte-identical to the serial reference at 2 and 8 workers, with the
# verify cache on and off — the in-order reorder drain, not scheduling
# luck, decides every byte.
skew_dir=build-release/skew
rm -rf "${skew_dir}" && mkdir -p "${skew_dir}"
./build-release/lpo_cli gen-module 7 96 1 > "${skew_dir}/skew.ll"
./build-release/lpo_cli optimize-module "${skew_dir}/skew.ll" \
    --proposer=hybrid --threads=1 --emit="${skew_dir}/ref.ll"
for threads in 2 8; do
    ./build-release/lpo_cli optimize-module "${skew_dir}/skew.ll" \
        --proposer=hybrid --threads="${threads}" \
        --emit="${skew_dir}/t${threads}.ll"
    cmp "${skew_dir}/ref.ll" "${skew_dir}/t${threads}.ll"
    ./build-release/lpo_cli optimize-module "${skew_dir}/skew.ll" \
        --proposer=hybrid --threads="${threads}" --no-verify-cache \
        --emit="${skew_dir}/t${threads}_nocache.ll"
    cmp "${skew_dir}/ref.ll" "${skew_dir}/t${threads}_nocache.ll"
done
echo "scheduler skew determinism: byte-identical at 1/2/8 threads x cache on/off"

echo "=== Interpreter throughput benchmark (Release) ==="
# The benchmark writes BENCH_interp.json into its working directory.
(cd build-release && ./bench_interp_throughput)
cp build-release/BENCH_interp.json .
echo "BENCH_interp.json:"
cat BENCH_interp.json

echo "=== Verification throughput benchmark (Release) ==="
# Exits nonzero itself if the cache never hits.
(cd build-release && ./bench_verify_throughput)
cp build-release/BENCH_verify.json .
echo "BENCH_verify.json:"
cat BENCH_verify.json

# Regression gates on deterministic counters against the committed
# baseline, per query: each SAT query's circuit (the builder's
# variables), the CNF the solver got (vars and clauses; none of the
# circuit when the miter folds to false) and the conflicts of solving
# it (the solver's search) must not grow past that query's baseline,
# so a change that shrinks nine queries cannot hide growth in a tenth
# behind the sums. The cache must hit at least as often.
python3 - bench/BENCH_verify.baseline.json BENCH_verify.json <<'EOF'
import json
import sys

baseline = {q["name"]: q for q in json.load(open(sys.argv[1]))["benchmarks"]}
current = json.load(open(sys.argv[2]))["benchmarks"]
failures = 0
for query in current:
    base = baseline.get(query["name"])
    if base is None:
        print("FAIL: verify query %s has no committed baseline"
              % query["name"])
        failures += 1
        continue
    for counter in ("circuit_nodes", "sat_vars", "sat_clauses",
                    "sat_conflicts"):
        if query[counter] > base[counter]:
            print("FAIL: verify query %s %s %d grew past the committed "
                  "baseline %d" % (query["name"], counter, query[counter],
                                   base[counter]))
            failures += 1
print("verify per-query gate: %d queries x 4 counters, %d failures"
      % (len(current), failures))
sys.exit(1 if failures else 0)
EOF
baseline=$(grep -o '"cache_hits": [0-9]*' \
    bench/BENCH_verify.baseline.json | awk '{print $2}')
current=$(grep -o '"cache_hits": [0-9]*' \
    BENCH_verify.json | awk '{print $2}')
awk -v c="$current" -v b="$baseline" 'BEGIN {
    if (c + 0 < b + 0) {
        printf "FAIL: verify cache hits %d fell below the committed " \
               "baseline %d\n", c, b
        exit 1
    }
    printf "verify cache hits %d vs baseline %d: OK\n", c, b
}'

echo "=== Module pipeline benchmark (Release) ==="
# Exits nonzero itself if nothing is patched, mca cycles fail to
# decrease, patched IR is invalid, or duplicate modules never hit the
# verification cache.
(cd build-release && ./bench_module_pipeline)
cp build-release/BENCH_module.json .
echo "BENCH_module.json:"
cat BENCH_module.json

# Regression gate: end-to-end sequences/sec against the committed
# baseline (>20% drop fails).
baseline=$(grep -o '"sequences_per_sec": [0-9.]*' \
    bench/BENCH_module.baseline.json | awk '{print $2}')
current=$(grep -o '"sequences_per_sec": [0-9.]*' \
    BENCH_module.json | awk '{print $2}')
awk -v c="$current" -v b="$baseline" 'BEGIN {
    if (c + 0 < 0.8 * b) {
        printf "FAIL: module pipeline %.0f sequences/sec regressed " \
               "more than 20%% against the committed baseline %.0f\n", \
               c, b
        exit 1
    }
    printf "module pipeline %.0f sequences/sec vs baseline %.0f: OK\n", \
           c, b
}'

# Deterministic counters (seeded generator and mock model,
# deterministic saturation, same results at any thread count): the
# unique sequences and patched rewrites must equal the committed
# baseline, and the patched modules' mca cycles must not exceed it.
for counter in unique_sequences patched_rewrites cycles_after; do
    baseline=$(grep -o "\"${counter}\": [0-9.]*" \
        bench/BENCH_module.baseline.json | awk '{print $2}')
    current=$(grep -o "\"${counter}\": [0-9.]*" \
        BENCH_module.json | awk '{print $2}')
    awk -v c="$current" -v b="$baseline" -v n="$counter" 'BEGIN {
        bad = c == "" || b == "" ||
              (n == "cycles_after" ? c + 0 > b + 0 : c + 0 != b + 0)
        if (bad) {
            printf "FAIL: module pipeline %s %s, the committed " \
                   "baseline is %s%s\n", n, c,
                   n == "cycles_after" ? "at most " : "exactly ", b
            exit 1
        }
        printf "module pipeline %s %s vs baseline %s: OK\n", n, c, b
    }'
done

echo "=== Proposer comparison benchmark (Release) ==="
# Exits nonzero itself if hybrid's findings are not a strict superset
# of the LLM backend's.
(cd build-release && ./bench_proposer_compare)
cp build-release/BENCH_proposer.json .
echo "BENCH_proposer.json:"
cat BENCH_proposer.json

# Regression gate: found-optimization counts are deterministic
# (seeded mock model, deterministic saturation), so any drop is a
# real regression; fail at >20%.
baseline=$(grep -o '"hybrid_found": [0-9]*' \
    bench/BENCH_proposer.baseline.json | awk '{print $2}')
current=$(grep -o '"hybrid_found": [0-9]*' \
    BENCH_proposer.json | awk '{print $2}')
awk -v c="$current" -v b="$baseline" 'BEGIN {
    if (c + 0 < 0.8 * b) {
        printf "FAIL: hybrid found %d optimizations, more than 20%% " \
               "below the committed baseline %d\n", c, b
        exit 1
    }
    printf "hybrid found %d vs baseline %d: OK\n", c, b
}'

echo "=== Persistent store benchmark (Release) ==="
# Cold run fills the store; warm run (fresh process-life) must replay
# every cataloged rewrite without an LLM call and serve every
# verification from the seeded cache. The binary exits nonzero itself
# on result divergence, a cold catalog, warm cache misses, or a warm
# run no faster than the cold one.
(cd build-release && rm -rf BENCH_persist.store && ./bench_persist)
cp build-release/BENCH_persist.json .
echo "BENCH_persist.json:"
cat BENCH_persist.json

# Regression gates on deterministic counters: the warm run serves
# every verification from the seeded cache, replays every finding from
# the catalog and every no-find case from its remembered miss, and
# pays no more LLM calls or e-graph consults than the committed
# baseline (both 0). (warm_speedup is printed, not gated: cold got fast
# enough that the ratio mostly measures process-life overheads.)
for rate in warm_cache_hit_rate catalog_hit_rate; do
    current=$(grep -o "\"${rate}\": [0-9.]*" \
        BENCH_persist.json | awk '{print $2}')
    awk -v c="$current" -v n="$rate" 'BEGIN {
        if (c + 0 < 1) {
            printf "FAIL: persistent-store %s %.3f is below 1\n", n, c
            exit 1
        }
        printf "persistent-store %s %.3f: OK\n", n, c
    }'
done
for counter in warm_llm_calls warm_egraph_consults; do
    baseline=$(grep -o "\"${counter}\": [0-9]*" \
        bench/BENCH_persist.baseline.json | awk '{print $2}')
    current=$(grep -o "\"${counter}\": [0-9]*" \
        BENCH_persist.json | awk '{print $2}')
    awk -v c="$current" -v b="$baseline" -v n="$counter" 'BEGIN {
        if (c == "" || b == "" || c + 0 > b + 0) {
            printf "FAIL: persistent-store %s %s exceeds the committed " \
                   "baseline %s\n", n, c, b
            exit 1
        }
        printf "persistent-store %s %d vs baseline %d: OK\n", n, c, b
    }'
done

echo "=== Durability sweep (Release) ==="
# End-to-end crash-safety drill against the real CLI: a cold and a
# warm run against one store must emit byte-identical modules, the
# warm run must replay from the catalog with zero LLM calls, and the
# store must pass an offline integrity check. Then the same contract
# under injected write faults (store faults may cost persistence,
# never results), and the fork+SIGKILL torn-write/snapshot-atomicity
# harness.
durability_dir=build-release/durability
rm -rf "${durability_dir}" && mkdir -p "${durability_dir}"
cat > "${durability_dir}/missed.ll" <<'EOF'
define i32 @f(i32 %x, i32 %y) {
  %a = and i32 %x, %y
  %o = or i32 %x, %y
  %r = add i32 %a, %o
  ret i32 %r
}
EOF

./build-release/lpo_cli optimize-module "${durability_dir}/missed.ll" \
    --proposer=hybrid --store="${durability_dir}/store" \
    --emit="${durability_dir}/cold.ll"
./build-release/lpo_cli optimize-module "${durability_dir}/missed.ll" \
    --proposer=hybrid --store="${durability_dir}/store" \
    --emit="${durability_dir}/warm.ll" 2>&1 | tee "${durability_dir}/warm.log"
cmp "${durability_dir}/cold.ll" "${durability_dir}/warm.ll"
grep -q 'llm-calls=0' "${durability_dir}/warm.log" || {
    echo "FAIL: warm run against a populated store paid LLM calls"
    exit 1
}
./build-release/lpo_cli store verify "${durability_dir}/store"

# Same round trip with one in five store writes failing: runs still
# succeed and agree byte-for-byte; only persistence may degrade.
rm -rf "${durability_dir}/store"
LPO_FAILPOINTS='store.write.fail=prob:0.2:7' \
    ./build-release/lpo_cli optimize-module \
    "${durability_dir}/missed.ll" --proposer=hybrid \
    --store="${durability_dir}/store" \
    --emit="${durability_dir}/faulty_cold.ll"
LPO_FAILPOINTS='store.write.fail=prob:0.2:7' \
    ./build-release/lpo_cli optimize-module \
    "${durability_dir}/missed.ll" --proposer=hybrid \
    --store="${durability_dir}/store" \
    --emit="${durability_dir}/faulty_warm.ll"
cmp "${durability_dir}/cold.ll" "${durability_dir}/faulty_cold.ll"
cmp "${durability_dir}/cold.ll" "${durability_dir}/faulty_warm.ll"
echo "durability sweep: faulty-write round trip byte-identical"

# kill -9 mid-append and mid-snapshot at a spread of byte offsets:
# reopen must recover the committed prefix, quarantine or truncate
# the rest, and never serve a torn record. ctest already runs these;
# rerunning them here keeps the sweep self-contained and loggable.
./build-release/test_persist --gtest_filter='KvStoreCrashTest.*'

echo "=== Serve throughput benchmark (Release) ==="
# 200-module request stream through the serve loop, cold store then
# warm store. The binary exits nonzero itself on any non-ok response,
# warm/cold response divergence, or a warm run that replayed nothing
# from the catalog.
(cd build-release && rm -rf BENCH_serve.store && ./bench_serve)
cp build-release/BENCH_serve.json .
echo "BENCH_serve.json:"
cat BENCH_serve.json

# Regression gate: sustained warm throughput against the committed
# baseline (>20% drop fails), plus the deterministic catalog hit rate.
baseline=$(grep -o '"sustained_modules_per_sec": [0-9.]*' \
    bench/BENCH_serve.baseline.json | awk '{print $2}')
current=$(grep -o '"sustained_modules_per_sec": [0-9.]*' \
    BENCH_serve.json | awk '{print $2}')
awk -v c="$current" -v b="$baseline" 'BEGIN {
    if (c + 0 < 0.8 * b) {
        printf "FAIL: serve sustained %.1f modules/sec regressed more " \
               "than 20%% against the committed baseline %.1f\n", c, b
        exit 1
    }
    printf "serve sustained %.1f modules/sec vs baseline %.1f: OK\n", c, b
}'
baseline=$(grep -o '"warm_catalog_hit_rate": [0-9.]*' \
    bench/BENCH_serve.baseline.json | awk '{print $2}')
current=$(grep -o '"warm_catalog_hit_rate": [0-9.]*' \
    BENCH_serve.json | awk '{print $2}')
awk -v c="$current" -v b="$baseline" 'BEGIN {
    if (c + 0 < 0.8 * b) {
        printf "FAIL: serve warm catalog hit rate %.3f fell more than " \
               "20%% below the committed baseline %.3f\n", c, b
        exit 1
    }
    printf "serve warm catalog hit rate %.3f vs baseline %.3f: OK\n", c, b
}'
# Deterministic (seeded model, remembered misses replayed): the warm
# pass must ask the model exactly as often as the baseline says.
baseline=$(grep -o '"warm_llm_calls": [0-9]*' \
    bench/BENCH_serve.baseline.json | awk '{print $2}')
current=$(grep -o '"warm_llm_calls": [0-9]*' \
    BENCH_serve.json | awk '{print $2}')
awk -v c="$current" -v b="$baseline" 'BEGIN {
    if (c == "" || b == "" || c + 0 != b + 0) {
        printf "FAIL: serve warm pass paid %s LLM calls, the committed " \
               "baseline is exactly %s\n", c, b
        exit 1
    }
    printf "serve warm LLM calls %d vs baseline %d: OK\n", c, b
}'

echo "=== Serve soak: kill -9 mid-stream, restart, byte-identity (Release) ==="
# The service acceptance drill: stream 50 modules through lpo_serve,
# kill -9 the daemon mid-stream, restart, and require every response
# to be byte-identical to a cold one-shot optimize-module run of the
# same module — at-least-once replay made safe by determinism. The
# shared store must pass an offline integrity check afterwards (its
# reopen already repaired any torn tail the kill left).
serve_dir=build-release/serve_soak
rm -rf "${serve_dir}"
mkdir -p "${serve_dir}/modules" "${serve_dir}/refs"
for i in $(seq 1 50); do
    ./build-release/lpo_cli gen-module "${i}" 2 1 \
        > "${serve_dir}/modules/m${i}.ll"
    ./build-release/lpo_cli optimize-module "${serve_dir}/modules/m${i}.ll" \
        --proposer=hybrid --emit="${serve_dir}/refs/m${i}.ll" > /dev/null
done

./build-release/lpo_serve run "${serve_dir}/spool" \
    --store="${serve_dir}/store" --poll-ms=10 &
serve_pid=$!
for i in $(seq 1 50); do
    ./build-release/lpo_serve submit "${serve_dir}/spool" "m${i}" \
        "${serve_dir}/modules/m${i}.ll"
done
# Block on the first few via the client verb, then let the daemon get
# a bit further before the kill.
for i in 1 2 3; do
    ./build-release/lpo_serve wait "${serve_dir}/spool" "m${i}" \
        --timeout-ms=60000 > /dev/null
done
while [ "$(ls "${serve_dir}/spool/outbox/" 2>/dev/null \
        | grep -c '\.ll$' || true)" -lt 10 ]; do
    sleep 0.1
done
kill -9 "${serve_pid}"
wait "${serve_pid}" 2>/dev/null || true
echo "serve soak: SIGKILLed the daemon after $(ls "${serve_dir}/spool/outbox/" \
    | grep -c '\.ll$') responses"

./build-release/lpo_serve run "${serve_dir}/spool" \
    --store="${serve_dir}/store" --once
for i in $(seq 1 50); do
    cmp "${serve_dir}/refs/m${i}.ll" "${serve_dir}/spool/outbox/m${i}.ll"
done
./build-release/lpo_cli store verify "${serve_dir}/store"
./build-release/lpo_serve status "${serve_dir}/spool" \
    | python3 -m json.tool > /dev/null
echo "serve soak: all 50 responses byte-identical to one-shot runs"

echo "=== Serve chaos: every failpoint site fired once mid-stream (Release) ==="
# Per site: a fresh spool+store, a 10-module stream, and the site
# armed nth:2 so it fires exactly once inside a request. The server
# must detect the fire, quarantine pending store state, rebuild the
# optimizer, and replay — every response still byte-identical to the
# fault-free one-shot reference. Sites off the serve path simply never
# fire, which degenerates to the fault-free contract.
for site in $(./build-release/lpo_cli failpoints | awk '{print $1}'); do
    spool="${serve_dir}/chaos_${site}"
    rm -rf "${spool}" "${spool}.store"
    for i in $(seq 1 10); do
        ./build-release/lpo_serve submit "${spool}" "m${i}" \
            "${serve_dir}/modules/m${i}.ll"
    done
    LPO_FAILPOINTS="${site}=nth:2" ./build-release/lpo_serve run \
        "${spool}" --store="${spool}.store" --once
    for i in $(seq 1 10); do
        cmp "${serve_dir}/refs/m${i}.ll" "${spool}/outbox/m${i}.ll" || {
            echo "FAIL: site ${site} changed the response for m${i}"
            exit 1
        }
    done
    echo "serve chaos site ${site}: 10/10 responses byte-identical"
done

# Probabilistic store-fault chaos with another kill -9 mid-stream:
# store faults may cost persistence, never results.
spool="${serve_dir}/chaos_prob"
rm -rf "${spool}" "${spool}.store"
LPO_FAILPOINTS='store.write.fail=prob:0.2:7;store.fsync.fail=prob:0.1:11' \
    ./build-release/lpo_serve run "${spool}" --store="${spool}.store" \
    --poll-ms=10 &
serve_pid=$!
for i in $(seq 1 50); do
    ./build-release/lpo_serve submit "${spool}" "m${i}" \
        "${serve_dir}/modules/m${i}.ll"
done
while [ "$(ls "${spool}/outbox/" 2>/dev/null \
        | grep -c '\.ll$' || true)" -lt 10 ]; do
    sleep 0.1
done
kill -9 "${serve_pid}"
wait "${serve_pid}" 2>/dev/null || true
LPO_FAILPOINTS='store.write.fail=prob:0.2:7;store.fsync.fail=prob:0.1:11' \
    ./build-release/lpo_serve run "${spool}" --store="${spool}.store" --once
for i in $(seq 1 50); do
    cmp "${serve_dir}/refs/m${i}.ll" "${spool}/outbox/m${i}.ll"
done
./build-release/lpo_cli store verify "${spool}.store"
echo "serve chaos: store-fault stream with kill -9 stayed byte-identical"

echo "=== SIGTERM flush: metrics and trace survive termination (Release) ==="
# lpo_cli with --metrics/--trace must leave valid artifacts behind
# when terminated mid-run (the signal handler flushes both before
# exiting), so an operator killing a stuck run keeps its telemetry.
./build-release/lpo_cli gen-module > "${serve_dir}/big.ll"
rm -f "${serve_dir}/sigterm_metrics.json" "${serve_dir}/sigterm_trace.json"
./build-release/lpo_cli optimize-module "${serve_dir}/big.ll" \
    --proposer=hybrid --threads=1 \
    --metrics="${serve_dir}/sigterm_metrics.json" \
    --trace="${serve_dir}/sigterm_trace.json" > /dev/null &
cli_pid=$!
sleep 1
kill -TERM "${cli_pid}" 2>/dev/null || true
wait "${cli_pid}" || true
python3 -m json.tool "${serve_dir}/sigterm_metrics.json" > /dev/null
python3 -m json.tool "${serve_dir}/sigterm_trace.json" > /dev/null
echo "sigterm flush: metrics and trace JSON valid after SIGTERM"
