#!/usr/bin/env bash
# The whole tier-1 gate in one command: configure, build, unit tests, and
# a smoke run of the bench pipeline (one real experiment at 2 runs plus
# its JSON artifact). Safe to run repeatedly; reuses the build directory.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD:-build}

cmake -S . -B "$BUILD" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD" -j "$(nproc)"
# --timeout caps each test so a hung replica fails loudly instead of
# stalling the whole gate (individual tests carry tighter properties).
ctest --test-dir "$BUILD" --output-on-failure --timeout 600

# Bench smoke: the registry lists, one experiment runs, and its artifact
# parses back (the test suite covers the schema; this covers the binary).
smoke_out=$(mktemp -d)
trap 'rm -rf "$smoke_out"' EXIT
"$BUILD/bench/rcsim_bench" --list > /dev/null
RCSIM_RUNS=2 "$BUILD/bench/rcsim_bench" --only=headline_table --out="$smoke_out" --progress=1 \
  > /dev/null
test -s "$smoke_out/headline_table.json"
# The artifact must carry the executor's sweep-profile metrics block
# (docs/observability.md): counters plus replica wall-time histogram.
grep -q '"metrics"' "$smoke_out/headline_table.json"
grep -q '"replica.wall_sec"' "$smoke_out/headline_table.json"
grep -q '"sim.events_executed"' "$smoke_out/headline_table.json"

# Observability smoke: the live stats walker and analyzer must agree with
# the offline replay of their own trace (rcsim-trace --selftest), and a
# recorded rcsim-trace-v1 file must read back cleanly.
"$BUILD/tools/rcsim-trace" protocol=RIP degree=4 seed=7 --selftest | grep -q 'selftest: OK'
"$BUILD/tools/rcsim-trace" protocol=BGP degree=4 seed=11 --selftest | grep -q 'selftest: OK'
"$BUILD/tools/rcsim-trace" protocol=RIP degree=4 seed=7 \
  --record="$smoke_out/smoke.trace.jsonl" > /dev/null
"$BUILD/tools/rcsim-trace" --trace="$smoke_out/smoke.trace.jsonl" --timeline --from=399 --to=401 \
  | grep -q 'corrupt=0'

# Episode smoke: the convergence-anatomy query must find at least one
# episode in the recorded trace, and two runs over the same file must agree
# byte-for-byte (the analyzer is deterministic, not sampled).
"$BUILD/tools/rcsim-trace" --trace="$smoke_out/smoke.trace.jsonl" --episodes \
  > "$smoke_out/episodes1.txt"
grep -q '^episode' "$smoke_out/episodes1.txt"
"$BUILD/tools/rcsim-trace" --trace="$smoke_out/smoke.trace.jsonl" --episodes \
  > "$smoke_out/episodes2.txt"
cmp "$smoke_out/episodes1.txt" "$smoke_out/episodes2.txt"
# Artifacts carry the convergence block (schema: the AnatomySummary field
# table in obs/anatomy.hpp) plus its digest pinning the serial == pooled fold.
grep -q '"convergence"' "$smoke_out/headline_table.json"
grep -q '"convergence_digest"' "$smoke_out/headline_table.json"
grep -q '"detection_sec_total"' "$smoke_out/headline_table.json"

# Topology layer smoke: the canonical rcsim-topo-v1 dump must be a fixed
# point (load -> dump -> load -> dump byte-identical), and the real-topology
# experiment must sweep every protocol over the loaded backbones cleanly
# with runtime invariant checking on.
"$BUILD/tools/rcsim-topo" --named abilene --dump > "$smoke_out/abilene.topo"
"$BUILD/tools/rcsim-topo" --file "$smoke_out/abilene.topo" --dump > "$smoke_out/abilene2.topo"
cmp "$smoke_out/abilene.topo" "$smoke_out/abilene2.topo"
RCSIM_RUNS=1 RCSIM_CHECK_INVARIANTS=1 "$BUILD/bench/rcsim_bench" --only=ext_realtopo \
  --out="$smoke_out" --progress=1 > /dev/null
test -s "$smoke_out/ext_realtopo.json"
grep -q '"topology=named"' "$smoke_out/ext_realtopo.json"

# One run path: E6's link churn and E4's Tdown receiver cut are fault-plan
# events run through runScenario, here under the invariant checker. Their
# artifacts must carry the plan in `config` and no custom cell runner.
RCSIM_RUNS=1 "$BUILD/bench/rcsim_bench" --only=ext_churn --only=ext_assertions \
  --check-invariants --out="$smoke_out" > /dev/null
for exp in ext_churn ext_assertions; do
  if grep -Eq '"custom_runner": *true' "$smoke_out/$exp.json"; then
    echo "ci: $exp has a custom cell runner" >&2
    exit 1
  fi
done
grep -q 'fault-plan=390:churn:120:10:790' "$smoke_out/ext_churn.json"
grep -q 'fault-plan=400:partition:dst' "$smoke_out/ext_assertions.json"

# Fuzz smoke: a fixed-seed coverage-guided campaign must complete its
# budget without findings and with a stable corpus digest (the digest is
# printed for the log; determinism itself is covered by FuzzCampaign.*
# tests). Then every banked reproducer replays against its recorded
# '# expect:' outcome (docs/fuzzing.md).
"$BUILD/tools/rcsim_fuzz" --seed=1 --budget=200 --quiet
# A second campaign with hello-based failure detection forced on, so the
# detector paths (docs/failure-detection.md) get fuzz coverage every run.
"$BUILD/tools/rcsim_fuzz" --seed=2 --budget=200 --quiet --hello
for scenario in tests/fuzz_corpus/*.scenario; do
  "$BUILD/tools/rcsim_fuzz" --replay="$scenario" > /dev/null
done

# Chaos job: SIGKILL a journaled sweep at random points and prove the
# resumed artifact is bit-identical to an uninterrupted reference run
# (docs/experiments.md, "Long runs, crashes, and resume").
bash scripts/chaos_resume_test.sh "$BUILD/bench/rcsim_bench"

# Sanitizer job: a separate ASan+UBSan build runs a smoke subset of the
# suite (the memory-heavy paths: events, links, transport, faults, and the
# packet slab, whose Packet& must survive a TCP ACK parked from inside a
# delivery handler: Network, ForwardingFixture, Tcp, Tracer, MultiFlow; and
# the field-table encoders and folds: Aggregate, Artifact, Digest). The
# tier-1 gate above stays plain Release so its timings and golden digests
# are undisturbed.
SAN_BUILD=${SAN_BUILD:-build-asan}
cmake -S . -B "$SAN_BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo -DRCSIM_SANITIZE=ON
cmake --build "$SAN_BUILD" -j "$(nproc)"
# RCSIM_SPF_ORACLE=1 makes every LinkState run cross-check the incremental
# SPF against a full-BFS oracle (src/routing/linkstate.cpp), so the
# sanitizer job also proves incremental == full element-wise under ASan.
RCSIM_SPF_ORACLE=1 ctest --test-dir "$SAN_BUILD" --output-on-failure --timeout 600 \
  -R 'Scheduler|Link|Reliable|Churn|Fault|Invariant|Executor|Sweep|Journal|LinkState|RoutingState|Spf|Detector|Damping|Anatomy|trace_|PathWalk|TraceReplay|Stats|Network|ForwardingFixture|Tcp|Tracer|MultiFlow|Aggregate|Artifact|Digest'

# TSan job: a -fsanitize=thread build runs the concurrency-heavy suites
# (SweepExecutor's work queue, the lock-free metrics registry, journaled
# sweeps) to catch data races ASan cannot see. TSan and ASan cannot share
# a build, hence the third tree.
TSAN_BUILD=${TSAN_BUILD:-build-tsan}
cmake -S . -B "$TSAN_BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo -DRCSIM_SANITIZE=thread
cmake --build "$TSAN_BUILD" -j "$(nproc)"
ctest --test-dir "$TSAN_BUILD" --output-on-failure --timeout 600 \
  -R 'Executor|Sweep|Journal|Metrics|Detector|Damping|Anatomy|trace_'

echo "ci: all gates green"
