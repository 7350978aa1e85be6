#!/usr/bin/env bash
# Exit-status contracts of rcsim_bench, rcsim_fuzz and rcsim, as
# documented in their --help (highest precedence first): 2 usage error >
# 130 interrupted > 3 failed cells (bench) / 4 findings (fuzz) /
# 1 replica error (rcsim) > 0.
# Registered as the `bench_exit_codes` ctest; also runnable by hand:
#
#   scripts/exit_codes_test.sh build/bench/rcsim_bench \
#     [build/tools/rcsim_fuzz [build/tools/rcsim]]
set -u

BENCH=${1:?usage: exit_codes_test.sh path/to/rcsim_bench [path/to/rcsim_fuzz [path/to/rcsim]]}
FUZZ=${2:-}
RCSIM=${3:-}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

fails=0
expect() {
  local want=$1 got=$2 what=$3
  if [ "$got" -eq "$want" ]; then
    echo "ok   exit $got  $what"
  else
    echo "FAIL exit $got (want $want)  $what"
    fails=$((fails + 1))
  fi
}

# --- 2: usage errors (nothing runs) ------------------------------------
"$BENCH" --no-such-flag >/dev/null 2>&1
expect 2 $? "unknown flag"

"$BENCH" >/dev/null 2>&1
expect 2 $? "no experiment selected"

"$BENCH" --only=no_such_experiment >/dev/null 2>&1
expect 2 $? "unknown experiment name"

"$BENCH" --only=headline_table --watchdog=nan >/dev/null 2>&1
expect 2 $? "--watchdog=nan rejected"

RCSIM_THREADS=abc "$BENCH" --only=headline_table >/dev/null 2>&1
expect 2 $? "RCSIM_THREADS=abc rejected"

"$BENCH" --only=headline_table --watchdog=inf >/dev/null 2>&1
expect 2 $? "--watchdog=inf rejected"

"$BENCH" --only=headline_table --journal= >/dev/null 2>&1
expect 2 $? "empty --journal value rejected"

"$BENCH" --only=headline_table --retries=-1 >/dev/null 2>&1
expect 2 $? "negative --retries rejected"

"$BENCH" --only=headline_table --progress=banana >/dev/null 2>&1
expect 2 $? "--progress=banana rejected"

"$BENCH" --only=headline_table --progress=-1 >/dev/null 2>&1
expect 2 $? "negative --progress rejected"

# --- 3: failed cells ---------------------------------------------------
# A microscopic watchdog budget fails every replica; with --retries=0
# each quarantines after one attempt, so this stays fast.
"$BENCH" --only=headline_table --runs=1 --threads=2 --retries=0 \
  --watchdog=0.000001 --out="$WORK/failed" >/dev/null 2>&1
expect 3 $? "watchdog timeouts fail the cell"

# --- 130: interrupted --------------------------------------------------
# SIGINT a journaled sweep mid-run: the bench must drain in-flight
# replicas, flush the journal, and exit 128+SIGINT even though no cell
# failed. Background + wait stay in this same shell.
"$BENCH" --only=headline_table --runs=50 --threads=2 \
  --journal="$WORK/J" --out="$WORK/int" >/dev/null 2>"$WORK/int.err" &
pid=$!
sleep 0.6
kill -INT "$pid" 2>/dev/null
wait "$pid"
expect 130 $? "SIGINT mid-sweep"
if ! grep -q "continue with --resume=" "$WORK/int.err"; then
  echo "FAIL interrupted run did not print the --resume hint"
  fails=$((fails + 1))
fi

# --- 0: clean run ------------------------------------------------------
"$BENCH" --only=headline_table --runs=1 --threads=2 --out="$WORK/ok" >/dev/null 2>&1
expect 0 $? "clean run"

# --progress=SEC: a final heartbeat always prints at sweep end, in the
# extended format carrying live convergence-episode and drop-attribution
# counters. The line format is contractual (pinned here).
"$BENCH" --only=headline_table --runs=1 --threads=2 --progress=1 \
  --out="$WORK/ok_progress" >/dev/null 2>"$WORK/progress.err"
expect 0 $? "clean run with --progress=1"
progress_re='rcsim_bench: progress [0-9]+/[0-9]+ replica\(s\) \([0-9]+%\) \| episodes [0-9]+ \| drops loop=[0-9]+ bh=[0-9]+ ttl=[0-9]+ queue=[0-9]+'
if ! grep -Eq "$progress_re" "$WORK/progress.err"; then
  echo "FAIL --progress heartbeat missing or not in the pinned extended format"
  fails=$((fails + 1))
fi

# ======================================================================
# rcsim_fuzz: 2 usage > 130 interrupted > 4 findings/replay mismatch > 0
# (section skipped when no fuzz binary is given).
if [ -n "$FUZZ" ]; then
  # --- 2: usage errors (nothing runs) ----------------------------------
  "$FUZZ" --no-such-flag >/dev/null 2>&1
  expect 2 $? "fuzz: unknown flag"

  "$FUZZ" --budget=0 >/dev/null 2>&1
  expect 2 $? "fuzz: --budget=0 rejected"

  "$FUZZ" --watchdog=nan >/dev/null 2>&1
  expect 2 $? "fuzz: --watchdog=nan rejected"

  "$FUZZ" --seed=banana >/dev/null 2>&1
  expect 2 $? "fuzz: --seed=banana rejected"

  "$FUZZ" --replay=/nonexistent/path.scenario >/dev/null 2>&1
  expect 2 $? "fuzz: unreadable --replay file"

  # --- 130: interrupted ------------------------------------------------
  # SIGINT an oversized campaign: the in-flight scenario finishes, the
  # summary still prints, and the exit is 128+SIGINT.
  "$FUZZ" --seed=3 --budget=100000 --quiet >/dev/null 2>&1 &
  pid=$!
  sleep 0.6
  kill -INT "$pid" 2>/dev/null
  wait "$pid"
  expect 130 $? "fuzz: SIGINT mid-campaign"

  # --- 4: findings / replay mismatch -----------------------------------
  # A microscopic watchdog makes every execution a Timeout finding;
  # --no-minimize keeps this fast.
  "$FUZZ" --seed=5 --budget=3 --watchdog=0.000001 --no-minimize --quiet \
    >/dev/null 2>&1
  expect 4 $? "fuzz: watchdog findings"

  # A banked reproducer whose '# expect:' line is doctored must mismatch.
  corpus_dir=$(dirname "$0")/../tests/fuzz_corpus
  sample=$(ls "$corpus_dir"/*.scenario 2>/dev/null | head -1)
  if [ -n "$sample" ]; then
    sed 's/^# expect: .*/# expect: timeout/' "$sample" >"$WORK/doctored.scenario"
    "$FUZZ" --replay="$WORK/doctored.scenario" >/dev/null 2>&1
    expect 4 $? "fuzz: replay expectation mismatch"

    "$FUZZ" --replay="$sample" >/dev/null 2>&1
    expect 0 $? "fuzz: replay of banked reproducer"
  else
    echo "FAIL no banked .scenario files found in $corpus_dir"
    fails=$((fails + 1))
  fi

  # --- 0: clean campaign -----------------------------------------------
  "$FUZZ" --seed=1 --budget=2 --quiet >/dev/null 2>&1
  expect 0 $? "fuzz: clean campaign"
fi

# ======================================================================
# rcsim: 2 usage > 1 replica error > 0 (skipped when no rcsim is given).
if [ -n "$RCSIM" ]; then
  "$RCSIM" --no-such-option >/dev/null 2>&1
  expect 2 $? "rcsim: unknown option"

  # A time past Time's range (or NaN) is a usage error, not UB.
  "$RCSIM" fail-at=nan >/dev/null 2>&1
  expect 2 $? "rcsim: fail-at=nan"

  RCSIM_RUNS=10x "$RCSIM" >/dev/null 2>&1
  expect 2 $? "rcsim: RCSIM_RUNS=10x"

  # A plan naming a link the 7x7 mesh lacks throws inside the replica;
  # rcsim must report it and exit 1, not abort.
  "$RCSIM" fault-plan=400:fail:0-99 --runs=1 >/dev/null 2>"$WORK/rcsim.err"
  expect 1 $? "rcsim: dangling fault-plan link"
  if ! grep -q '^error: ' "$WORK/rcsim.err"; then
    echo "FAIL rcsim replica error not reported as 'error: <what>'"
    fails=$((fails + 1))
  fi

  # Likewise a path failure of a flow the scenario lacks.
  "$RCSIM" flows=1 no-failure=1 fault-plan=400:fail:path/3 --runs=1 >/dev/null \
    2>"$WORK/rcsim.err"
  expect 1 $? "rcsim: path failure of a missing flow"
  if ! grep -q '^error: ' "$WORK/rcsim.err"; then
    echo "FAIL rcsim missing-flow error not reported as 'error: <what>'"
    fails=$((fails + 1))
  fi

  "$RCSIM" no-failure=1 fault-plan=390:churn:30:5:450 end-at=500 --runs=1 >/dev/null 2>&1
  expect 0 $? "rcsim: short churn plan"
fi

if [ "$fails" -ne 0 ]; then
  echo "exit_codes_test: $fails check(s) failed"
  exit 1
fi
echo "exit_codes_test: all checks passed"
