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
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
for target in all workload hetero era; do
  for run in a b; do
    ./target/release/repro --quick --seed 2014 "$target" | grep -v '^#' > "$TMP/$target.$run.txt"
  done
  diff "$TMP/$target.a.txt" "$TMP/$target.b.txt" \
    || { echo "$target rows differ between two processes at one seed" >&2; exit 1; }
done

# One thread against the default pool: the evaluation plan replays every
# cell of `all` in one pool of one worker per core the process may run
# on, so pinned to one core it replays every cell inline; the rows must
# not notice.
ONE_CPU="$(taskset -cp $$ | sed 's/.*: *//; s/[,-].*//')" # first CPU we may run on
taskset -c "$ONE_CPU" ./target/release/repro --quick --seed 2014 all | grep -v '^#' > "$TMP/all.1.txt"
diff "$TMP/all.a.txt" "$TMP/all.1.txt" \
  || { echo "all rows differ between one thread and the default pool" >&2; exit 1; }

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
./target/release/repro --seed 2014 --report-out "$TMP/report.html" report > /dev/null
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
# bytes (the service-level replay's hash-seed gate). The HTML is not
# compared — its decide() latency chart is host time.
./target/release/repro --seed 2014 --report-out "$TMP/again.html" report > /dev/null
for artifact in trace.json audit.jsonl alerts.jsonl; do
  cmp "$TMP/report.html.$artifact" "$TMP/again.html.$artifact" \
    || { echo "report smoke: $artifact differs between two processes at one seed" >&2; exit 1; }
done

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
