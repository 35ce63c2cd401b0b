#!/bin/sh
# Build everything and run the test suite — the gate `bench/main.exe
# perf --json` insists on before recording performance numbers.
set -e
cd "$(dirname "$0")/.."
dune build @all
dune runtest

# Environment-switch allowlist: the program may read only these FBA_*
# variables. Every other name is refused, so an A/B twin of a code path
# cannot come back behind a new switch unnoticed.
allowed="FBA_JOBS FBA_PROGRESS FBA_ROBUSTNESS_SMOKE FBA_WIDE_SWEEP_SIZES FBA_SKIP_CI FBA_WIDE"
read_vars="$(grep -rhoE --include='*.ml' '"FBA_[A-Z0-9_]*' lib bin bench | tr -d '"' | sort -u)"
for v in $read_vars; do
  case " $allowed " in
    *" $v "*) ;;
    *)
      echo "env allowlist FAILED: $v is read in lib/, bin/ or bench/ but not allowed:" >&2
      grep -rn --include='*.ml' "\"$v" lib bin bench >&2
      exit 1
      ;;
  esac
done
echo "env allowlist ok: $(echo $read_vars | wc -w) FBA_* names read, all allowed"

# Trace pipeline smoke test: the fba trace subcommand must succeed on a
# small scenario (its exit status already enforces the per-phase bits
# == Metrics.total_bits_all cross-check) and its JSONL export must be
# one parseable JSON object per line with the required keys.
jsonl="$(mktemp)"
trap 'rm -f "$jsonl"' EXIT
dune exec bin/fba.exe -- trace -n 48 --attack flood --jsonl "$jsonl" > /dev/null
if command -v python3 > /dev/null 2>&1; then
  python3 - "$jsonl" <<'EOF'
import json, sys
evs = {"round_start", "phase", "send", "inject", "deliver", "drop", "decide"}
lines = 0
with open(sys.argv[1]) as f:
    for i, line in enumerate(f, 1):
        try:
            o = json.loads(line)
        except json.JSONDecodeError as e:
            sys.exit(f"line {i}: invalid JSON: {e}")
        if not isinstance(o, dict):
            sys.exit(f"line {i}: not a JSON object")
        if "ev" not in o or "round" not in o:
            sys.exit(f"line {i}: missing required key (ev/round): {o}")
        if o["ev"] not in evs:
            sys.exit(f"line {i}: unknown ev {o['ev']!r}")
        lines += 1
if lines == 0:
    sys.exit("JSONL trace is empty")
print(f"trace JSONL ok: {lines} events")
EOF
else
  echo "python3 not found; skipping JSONL validation" >&2
fi

# Profiler smoke test: `fba profile` must pass its own accounting
# cross-check (the per-round x per-tag wall/alloc cells must sum
# exactly to the run totals; it exits non-zero otherwise), and its
# --json Telemetry document must parse, be pure ASCII, and carry the
# versioned envelope.
dune exec bin/fba.exe -- profile -n 48 --attack cornering > /dev/null
echo "profile accounting smoke ok"
telemetry="$(mktemp)"
trap 'rm -f "$jsonl" "$telemetry"' EXIT
dune exec bin/fba.exe -- profile -n 48 --attack cornering --json > "$telemetry"
if command -v python3 > /dev/null 2>&1; then
  python3 - "$telemetry" <<'EOF'
import json, sys
raw = open(sys.argv[1], "rb").read()
if any(b >= 128 for b in raw):
    sys.exit("telemetry document contains non-ASCII bytes")
doc = json.loads(raw)
if doc.get("telemetry_version") != 1:
    sys.exit(f"unexpected telemetry_version: {doc.get('telemetry_version')!r}")
for key in ("counters", "gauges", "dists", "phases", "prof"):
    if key not in doc:
        sys.exit(f"telemetry document missing {key!r}")
if doc["prof"] is None:
    sys.exit("profiled run exported prof: null")
cells = sum(s["wall_ns"] for s in doc["prof"]["slots"])
if cells != doc["prof"]["total_wall_ns"]:
    sys.exit("prof slot wall times do not sum to total_wall_ns")
print(f"telemetry JSON ok: {len(doc['counters'])} counters, "
      f"{len(doc['prof']['slots'])} prof slots")
EOF
else
  echo "python3 not found; skipping telemetry validation" >&2
fi

# Bench-history smoke test: the trajectory tool must render the
# checked-in BENCH_<rev>.json files (>= 1 revision) and emit valid,
# git-date-ordered JSON.
if ls BENCH_*.json > /dev/null 2>&1; then
  dune exec bench/main.exe -- history > /dev/null
  if command -v python3 > /dev/null 2>&1; then
    history="$(mktemp)"
    trap 'rm -f "$jsonl" "$telemetry" "$history"' EXIT
    dune exec bench/main.exe -- history --json > "$history"
    python3 - "$history" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
if doc.get("bench_history_version") != 1:
    sys.exit("unexpected bench_history_version")
revs = doc["revs"]
if not revs:
    sys.exit("bench history found no revisions")
times = [r["commit_time"] for r in revs if r["commit_time"] is not None]
if times != sorted(times):
    sys.exit("bench history revisions not in commit-date order")
print(f"bench history ok: {len(revs)} revisions, {len(doc['targets'])} targets")
EOF
  fi
else
  echo "no BENCH_*.json files; skipping bench history smoke" >&2
fi

# Sweep-executor smoke test: the experiment sweeps must produce
# byte-identical reports whether the grid runs sequentially or sharded
# across worker domains. Uses the two cheapest experiments.
seq_out="$(mktemp)"
par_out="$(mktemp)"
trap 'rm -f "$jsonl" "$telemetry" "$history" "$seq_out" "$par_out"' EXIT
dune exec bench/main.exe -- samplers fig1a --jobs 1 > "$seq_out"
dune exec bench/main.exe -- samplers fig1a --jobs 2 > "$par_out"
if cmp -s "$seq_out" "$par_out"; then
  echo "sweep jobs smoke ok: --jobs 2 output identical to --jobs 1"
else
  echo "sweep smoke FAILED: --jobs 2 output differs from --jobs 1" >&2
  diff "$seq_out" "$par_out" >&2 || true
  exit 1
fi

# Robustness smoke test: the off-model network-condition sweep, shrunk
# to one drop rate and one partition length (FBA_ROBUSTNESS_SMOKE),
# must also be byte-identical whether sequential or sharded — the Net
# layer's per-run PRNG state must not leak across cells or domains.
FBA_ROBUSTNESS_SMOKE=1 dune exec bench/main.exe -- robustness --jobs 1 > "$seq_out"
FBA_ROBUSTNESS_SMOKE=1 dune exec bench/main.exe -- robustness --jobs 2 > "$par_out"
if cmp -s "$seq_out" "$par_out"; then
  echo "robustness jobs smoke ok: --jobs 2 output identical to --jobs 1"
else
  echo "robustness smoke FAILED: --jobs 2 output differs from --jobs 1" >&2
  diff "$seq_out" "$par_out" >&2 || true
  exit 1
fi

# Wide-layout parity smoke: the packed field widths are representation,
# not behaviour. Forcing every Auto-layout scenario onto the wide
# layout (FBA_WIDE=1) must leave an experiment's report byte-identical
# to the default narrow fast path; the full evidence is the
# packed.engine narrow-vs-wide trace-identity property.
dune exec bench/main.exe -- fig1a --jobs 2 > "$seq_out"
FBA_WIDE=1 dune exec bench/main.exe -- fig1a --jobs 2 > "$par_out"
if cmp -s "$seq_out" "$par_out"; then
  echo "wide layout parity smoke ok: FBA_WIDE=1 output identical"
else
  echo "wide layout parity smoke FAILED: wide-layout run differs from narrow run" >&2
  diff "$seq_out" "$par_out" >&2 || true
  exit 1
fi

# Wide-sweep pipeline smoke: the wide experiment itself, shrunk to
# populations that run in seconds (FBA_WIDE=1 keeps them on the wide
# lane despite being under the n <= 8192 ceiling), must be
# byte-identical sequential vs sharded like every other sweep.
FBA_WIDE=1 FBA_WIDE_SWEEP_SIZES="256,512" dune exec bench/main.exe -- wide --jobs 1 > "$seq_out"
FBA_WIDE=1 FBA_WIDE_SWEEP_SIZES="256,512" dune exec bench/main.exe -- wide --jobs 2 > "$par_out"
if cmp -s "$seq_out" "$par_out"; then
  echo "wide sweep smoke ok: --jobs 2 output identical to --jobs 1"
else
  echo "wide sweep smoke FAILED: --jobs 2 output differs from --jobs 1" >&2
  diff "$seq_out" "$par_out" >&2 || true
  exit 1
fi

# Agreement-service smoke: the instance stream's per-instance traces
# (stdout: seeds, fingerprints, rounds, decisions) must be
# byte-identical whether the stream runs on one domain or sharded —
# the second run also exercises the FBA_JOBS override (--jobs 0 =
# auto, forced to 2 workers by the environment). --check re-derives
# the latency histogram from the raw per-instance latencies and exits
# non-zero if the sample count or p50/p99 disagree with the summary.
dune exec bin/fba.exe -- service -n 64 --instances 12 --width 3 --jobs 1 --check > "$seq_out"
FBA_JOBS=2 dune exec bin/fba.exe -- service -n 64 --instances 12 --width 3 --jobs 0 --check > "$par_out"
if cmp -s "$seq_out" "$par_out"; then
  echo "service jobs smoke ok: FBA_JOBS=2 traces identical to --jobs 1"
else
  echo "service smoke FAILED: sharded instance traces differ from sequential" >&2
  diff "$seq_out" "$par_out" >&2 || true
  exit 1
fi

# Perf gate: the cornering perf target must stay close to the most
# recent recorded BENCH_<rev>.json baseline. Two checks share one
# measurement (perf-target --record writes it as a one-target
# BENCH-format file):
#   - allocation within +1% (deterministic for this workload, so a
#     tight relative bound is safe where a wall-time bound would flake);
#   - wall time within +FBA_PERF_TIME_TOL percent (default 10 — a
#     generous bound that still catches order-of-magnitude slips),
#     via `bench perf --compare --metric time`.
baseline=""
for rev in $(git log --format=%h 2>/dev/null); do
  if [ -f "BENCH_$rev.json" ]; then baseline="BENCH_$rev.json"; break; fi
done
if [ -n "$baseline" ]; then
  current="$(mktemp)"
  trap 'rm -f "$jsonl" "$telemetry" "$history" "$seq_out" "$par_out" "$current"' EXIT
  words="$(dune exec bench/main.exe -- perf-target fig1a/aer-cornering-n128 --record "$current")"
  dune exec bench/main.exe -- perf --compare "$baseline" "$current" \
    --tol "${FBA_PERF_TIME_TOL:-10}" --metric time
  if command -v python3 > /dev/null 2>&1; then
    python3 - "$baseline" "$words" "$current" <<'EOF'
import json, sys
baseline_path, words, current_path = sys.argv[1], float(sys.argv[2]), sys.argv[3]
with open(baseline_path) as f:
    doc = json.load(f)
target = "fig1a/aer-cornering-n128"
entry = next((t for t in doc["targets"] if t["name"] == target), None)
if entry is None:
    sys.exit(f"{baseline_path} has no {target} entry")
base = entry["allocated_words_per_run"]
ratio = words / base
if ratio > 1.01:
    sys.exit(
        f"allocation gate FAILED: {target} now allocates {words:.0f} words/run, "
        f"{(ratio - 1) * 100:.2f}% above the {baseline_path} baseline ({base:.0f})"
    )
print(f"allocation gate ok: {target} at {words:.0f} words/run, "
      f"{(ratio - 1) * 100:+.2f}% vs {baseline_path}")
# Peak-words gate: the streamed delivery plane's whole point is a low
# memory ceiling, and segment accounting is as deterministic as the
# allocation count, so the same tight +1% bound applies. Baselines
# recorded before the gauge existed simply skip the gate.
base_peak = entry.get("peak_mailbox_words")
if base_peak is None:
    print(f"peak-words gate skipped: {baseline_path} predates the gauge")
else:
    with open(current_path) as f:
        cur = json.load(f)
    peak = next((t.get("peak_mailbox_words") for t in cur["targets"] if t["name"] == target), None)
    if peak is None:
        sys.exit(f"{current_path} has no {target} peak_mailbox_words entry")
    if base_peak > 0 and peak / base_peak > 1.01:
        sys.exit(
            f"peak-words gate FAILED: {target} now peaks at {peak} mailbox words, "
            f"{(peak / base_peak - 1) * 100:.2f}% above the {baseline_path} baseline ({base_peak})"
        )
    print(f"peak-words gate ok: {target} at {peak} peak mailbox words vs {base_peak} baseline")
EOF
  else
    echo "python3 not found; skipping allocation gate" >&2
  fi
  # Throughput gate: the service instance-stream rows ride the same
  # wall-time compare machinery — time per instance is inverse
  # throughput, so a --metric time regression IS a throughput
  # regression. Baselines recorded before the service existed skip it.
  if grep -q '"service/stream-n128"' "$baseline"; then
    svc="$(mktemp)"
    trap 'rm -f "$jsonl" "$telemetry" "$history" "$seq_out" "$par_out" "$current" "$svc"' EXIT
    dune exec bench/main.exe -- perf-target service/stream-n128 --record "$svc" > /dev/null
    dune exec bench/main.exe -- perf --compare "$baseline" "$svc" \
      --tol "${FBA_PERF_TIME_TOL:-10}" --metric time
    echo "service throughput gate ok: stream-n128 time/instance within tolerance"
  else
    echo "baseline predates service rows; skipping throughput gate" >&2
  fi
else
  echo "no recorded BENCH_<rev>.json baseline; skipping perf gates" >&2
fi
