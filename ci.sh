#!/usr/bin/env bash
# Local CI gate: build, test, smoke-run, lint. Run before every push.
# Takes no arguments.
#
# The build environment is offline — all external dependencies resolve to
# the vendored shims under vendor/ (see vendor/README.md).
#
# "Does it still do the same work" is the test step's job (the replay and
# consensus goldens pin whole results); "is it faster" is the repo
# benchmark's (BENCHMARK.json + benchmark/, see benchmark/README.md) —
# this script times nothing.
#
# The test step includes the chaos suite (tests/chaos.rs): ≥200 seeded
# fault schedules against the live lock and storage clusters — half of
# them with leader batching + accept pipelining enabled — budgeted to
# stay well under 30s. Knobs (see TESTING.md):
#   CHAOS_SCHEDULES=<n>   schedules per sweep (soak: try 500+)
#   CHAOS_SEED=0x<seed>   pin the base seed (failures print the exact
#                         re-run command with the offending seed)
set -euo pipefail
cd "$(dirname "$0")"

if [[ $# -gt 0 ]]; then
  echo "unknown argument: $1 (ci.sh takes none)" >&2
  exit 2
fi

echo "== no proptest regression files =="
# The vendored proptest shim never reads `*.proptest-regressions` files, so
# a counterexample recorded in one never re-runs. It belongs in a
# fixed-input #[test] beside the property it came from.
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  REGRESSIONS="$(git ls-files '*.proptest-regressions')"
  if [[ -n "$REGRESSIONS" ]]; then
    while read -r file; do
      echo "$file: the vendored proptest shim does not read it, so its cases never re-run; make each a fixed-input #[test] and delete the file" >&2
    done <<< "$REGRESSIONS"
    exit 1
  fi
fi

echo "== non-test lines per crate =="
# The one line count the project quotes: every line of a crate's src/
# but a column-0 `#[cfg(test)]` and the item it gates — a `mod x;` line,
# or a block through the next column-0 `}`. Prints; gates nothing.
TOTAL=0
for dir in crates/*/src src; do
  LINES="$(find "$dir" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { skip = 0; gated = 0 }
    skip { if (/^}/) skip = 0; next }
    gated { gated = 0; if (!/^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/) skip = 1; next }
    /^#\[cfg\(test\)\]/ { gated = 1; next }
    { n++ }
    END { print n + 0 }')"
  printf '%-24s %6d\n' "$dir" "$LINES"
  TOTAL=$((TOTAL + LINES))
done
printf '%-24s %6d\n' total "$TOTAL"

echo "== cargo build --release =="
cargo build --release --offline --workspace

echo "== examples =="
# Clippy compiles the eight examples/ binaries, but nothing else runs
# them; each runs once here (~1.2 s together in release).
cargo build --release --offline --examples
for example in examples/*.rs; do
  name="$(basename "$example" .rs)"
  ./target/release/examples/"$name" > /dev/null \
    || { echo "example $name failed" >&2; exit 1; }
done

echo "== cargo test =="
cargo test -q --offline --workspace

echo "== benchmark package tests =="
# The repo benchmark (BENCHMARK.json + benchmark/) is a package of its
# own outside this workspace, reaching the crates through their public
# functions only — so the step above neither compiles it nor notices a
# renamed function it calls. Unit tests plus a 1/20-scale smoke run, ~2 s.
# --locked: benchmark/Cargo.lock is frozen with benchmark/, and cargo
# compares the resolve it would write with the one recorded. Measured on
# cargo 1.95: an added or re-targeted edge fails here, and so does a
# removed edge into a crate the benchmark still reaches another way
# (tests/dependencies.rs FROZEN); removing every edge into a crate, so
# that nothing reaches it any more, passes and leaves that crate's entry
# stale in the lock (rayon, serde, serde_derive today). Nothing is written
# either way.
cargo test -q --locked --offline --manifest-path benchmark/Cargo.toml

echo "== repro smoke + cross-process repeatability =="
# Each quick target runs twice, in two processes, at one seed; the rows
# must be byte-identical. A second process gets fresh hash seeds and a
# fresh address space, so a `HashMap` iteration order or a pointer value
# leaking into a result shows up as a diff here. The `workload` pair is
# what guards `LockService`'s lock table, a `HashMap` under std's keyed
# hasher: an ordered read of it would differ between the two processes.
# It also guards the client list a replica snapshot carries (`Promise`,
# `CatchupReply`), which a client-indexed table now lists in ascending
# order; a hashed map there would reorder it per process again. The
# `calibration` pair walks the backtest, whose target-FP rule searches
# the failure model's bid grid, as Jupiter's decisions do.
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
for target in all workload hetero era calibration; do
  for run in a b; do
    ./target/release/repro --quick --seed 2014 "$target" | grep -v '^#' > "$TMP/$target.$run.txt"
  done
  diff "$TMP/$target.a.txt" "$TMP/$target.b.txt" \
    || { echo "$target rows differ between two processes at one seed" >&2; exit 1; }
done

# One thread against the default pool: the evaluation plan replays every
# cell of `all` in one pool of one worker per core the process may run
# on, so pinned to one core it replays every cell inline; the rows must
# not notice. `era` adds the capacity-era cells: reclaims, notices and
# migrations, replayed on the same workers. `hetero` adds mixed-pool
# cells, where each zone holds two failure models observing their own
# traces, and the auto-scaler's one-cell replays, which decide in the
# loop, each Jupiter decision fanning out over the zones. `calibration`
# backtests on the calling thread either way (~0.2 s); it rides along so
# that the bid-grid search is held to one set of bytes on one CPU too.
ONE_CPU="$(taskset -cp $$ | sed 's/.*: *//; s/[,-].*//')" # first CPU we may run on
for target in all era hetero calibration; do
  taskset -c "$ONE_CPU" ./target/release/repro --quick --seed 2014 "$target" | grep -v '^#' > "$TMP/$target.1.txt"
  diff "$TMP/$target.a.txt" "$TMP/$target.1.txt" \
    || { echo "$target rows differ between one thread and the default pool" >&2; exit 1; }
done

# Workload: the quick request-level replay (~20k lock + ~2k storage
# requests) must report the batched lock row.
grep -q 'lock batch=8' "$TMP/workload.a.txt" \
  || { echo "workload smoke: missing lock row" >&2; exit 1; }

# Hetero: the auto-scaled mixed-fleet replay must emit the per-type fleet
# series and audit at least one scaling decision.
grep -q 'pool.fleet.m1.small' "$TMP/hetero.a.txt" \
  || { echo "hetero smoke: missing m1.small fleet series" >&2; exit 1; }
grep -q 'pool.fleet.m3.large' "$TMP/hetero.a.txt" \
  || { echo "hetero smoke: missing m3.large fleet series" >&2; exit 1; }
SCALE_AUDITS="$(sed -n 's/^audited scale decisions: \([0-9]*\).*/\1/p' "$TMP/hetero.a.txt")"
[[ -n "$SCALE_AUDITS" && "$SCALE_AUDITS" -ge 1 ]] \
  || { echo "hetero smoke: no audited scale decisions" >&2; exit 1; }

# Era: the bidding-era rows must be byte-identical across repair policies
# (strict additivity), and the capacity-era sweep must land at least one
# pre-deadline drain.
diff <(awk '/^bidding/ && $2 == "reactive" { $2 = "POLICY"; print }' "$TMP/era.a.txt") \
     <(awk '/^bidding/ && $2 == "migrate"  { $2 = "POLICY"; print }' "$TMP/era.a.txt") \
  || { echo "era smoke: migration is not a no-op under the bidding era" >&2; exit 1; }
grep -q '^capacity' "$TMP/era.a.txt" \
  || { echo "era smoke: missing capacity-era rows" >&2; exit 1; }
DRAINS="$(awk '/^capacity +migrate/ { s += $(NF-1) } END { print s+0 }' "$TMP/era.a.txt")"
[[ "$DRAINS" -ge 1 ]] \
  || { echo "era smoke: no pre-deadline drains landed" >&2; exit 1; }

echo "== repro report smoke =="
./target/release/repro --seed 2014 --report-out "$TMP/report.html" report > "$TMP/report.out"
for artifact in report.html report.html.trace.json report.html.audit.jsonl report.html.alerts.jsonl; do
  [[ -s "$TMP/$artifact" ]] \
    || { echo "report smoke: $artifact missing or empty" >&2; exit 1; }
done
# The alert-annotation markers must be present even when nothing fired.
grep -q 'id="alerts"' "$TMP/report.html" \
  || { echo "report smoke: alerts section marker missing" >&2; exit 1; }
grep -q 'class="audit-timeline"' "$TMP/report.html" \
  || { echo "report smoke: audit timeline marker missing" >&2; exit 1; }
# The trace, the audit log and the alerts are the run's record on
# simulated time: a second process at the same seed must write the same
# bytes (the service-level replay's hash-seed gate), and print the same
# stdout but for the output path. The HTML is not compared — its
# decide() latency chart is host time.
./target/release/repro --seed 2014 --report-out "$TMP/again.html" report > "$TMP/again.out"
for artifact in trace.json audit.jsonl alerts.jsonl; do
  cmp "$TMP/report.html.$artifact" "$TMP/again.html.$artifact" \
    || { echo "report smoke: $artifact differs between two processes at one seed" >&2; exit 1; }
done
diff "$TMP/report.out" <(sed "s#$TMP/again.html#$TMP/report.html#g" "$TMP/again.out") \
  || { echo "report smoke: stdout differs between two processes at one seed" >&2; exit 1; }
# One thread against the default pool: the report replays one cell, so
# its decision pass runs one job per pool over the host's cores, and
# only its rebids fan out per decision; pinned to one core both run
# inline, and neither the record nor stdout may notice.
taskset -c "$ONE_CPU" ./target/release/repro --seed 2014 --report-out "$TMP/one.html" report > "$TMP/one.out"
for artifact in trace.json audit.jsonl alerts.jsonl; do
  cmp "$TMP/report.html.$artifact" "$TMP/one.html.$artifact" \
    || { echo "report smoke: $artifact differs between one thread and the default pool" >&2; exit 1; }
done
diff "$TMP/report.out" <(sed "s#$TMP/one.html#$TMP/report.html#g" "$TMP/one.out") \
  || { echo "report smoke: stdout differs between one thread and the default pool" >&2; exit 1; }

echo "== paper-scale figures =="
# The quick runs above check repeatability, not the figures themselves:
# paper-scale `repro all` (~47 s on 2 cores) must print the committed
# `repro_figures.txt` byte for byte, so a change that claims identical
# output is held to it here.
./target/release/repro --seed 2014 all 2> "$TMP/figures.err" > "$TMP/figures.txt" \
  || { tail "$TMP/figures.err" >&2; echo "paper-scale repro all failed" >&2; exit 1; }
cmp "$TMP/figures.txt" repro_figures.txt \
  || { echo "paper-scale repro all stdout differs from repro_figures.txt" >&2; exit 1; }

echo "== paper-scale calibration =="
# The walk-forward backtests observe their model once per step through
# `FailureModel::observe`, a path no replay takes: their stdout must
# equal the data lines of the committed `repro_calibration.txt` (~1.4 s).
diff <(./target/release/repro --seed 2014 calibration 2>/dev/null) \
  <(grep -v -e '^ *Finished' -e '^ *Running' -e '^#' repro_calibration.txt) \
  || { echo "paper-scale calibration differs from repro_calibration.txt" >&2; exit 1; }

echo "== cargo clippy -D warnings =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings =="
# A broken or private intra-doc link fails here, so deleting an item
# cannot leave a dangling [`...`] link behind in its readers' docs.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "== frozen benchmark directory =="
# The --locked step never writes benchmark/Cargo.lock, but the BENCHMARK.json
# command runs without --locked and prunes the stale entries from it; a
# local benchmark run (or an edit) must not ride along into a commit.
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  DIRTY="$(git status --porcelain -- benchmark BENCHMARK.json)"
  [[ -z "$DIRTY" ]] \
    || { echo "benchmark/ is frozen, but the working tree changes it (git checkout -- benchmark/Cargo.lock?):" >&2; echo "$DIRTY" >&2; exit 1; }
fi

echo "CI OK"
