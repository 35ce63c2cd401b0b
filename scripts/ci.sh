#!/bin/sh
# Build everything, guard the build flags and the delivery path's
# objects, run the test suite, then smoke-test the command-line
# surfaces: trace and profile exports, byte-identical experiment and
# service output at any worker count, and exit 2 for flag values the
# library rejects. Speed is measured by benchmark/, not here.
set -e
cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
dune build @all

# Lint guard: the default build is dune's release profile (see
# dune-workspace), whose own flags are only -w -40. The root dune file
# pins the dev profile's warnings-as-errors and strictness flags for
# every profile; fail if the library flags lost them.
lint_flags="$(dune printenv lib/core)"
for want in -strict-sequence @1..3@5..28@30..39@43@46..47@49..57@61..62-40; do
  case "$lint_flags" in
    *"$want"*) ;;
    *)
      echo "lint guard FAILED: dune printenv lib/core has no $want" >&2
      exit 1
      ;;
  esac
done
echo "lint guard ok: warnings are errors and -strict-sequence is on"

if ! command -v nm > /dev/null 2>&1; then
  echo "nm not found: the inline and poly-compare guards need it" >&2
  exit 1
fi
if ! command -v python3 > /dev/null 2>&1; then
  echo "python3 not found: the trace JSONL and telemetry validators need it" >&2
  exit 1
fi
objs=_build/default/lib

# Inline guard: AER's handlers must get the per-delivery helpers
# inlined. Two things undo that, and both leave a mark in Aer's object:
# - an -opaque build (dune's dev profile) calls every helper through
#   its module's block, and nothing crosses the module boundary;
# - a helper the compiler no longer inlines (annotation dropped, body
#   grown past what the non-flambda inliner accepts) is called by its
#   own symbol.
aer_o="$objs/core/.fba_core.objs/native/fba_core__Aer.o"
aer_refs="$(nm -u "$aer_o" | awk '{print $NF}')"
inline_fail=0
for spec in \
  "stdx__Int_table:slot_of find_slot mem get_or set add incr add_bit" \
  "samplers__Cache:row_sid quorum_sid mem_sid pos_sid quorum_rid mem_rid mem_array pos_array" \
  "stdx__Vec:get push" \
  "core__Intern:string label" \
  "core__Msg:tag sid rid x w check_sid check_rid check_id push poll pull fw1 fw2 answer"; do
  m="camlFba_${spec%%:*}"
  for f in ${spec#*:}; do
    for sym in $(printf '%s\n' "$aer_refs" | grep -xE "_?$m(\.|__)${f}_[0-9]+" || true); do
      echo "inline guard FAILED: $aer_o references $sym, an [@inline] helper left as a call" >&2
      inline_fail=1
    done
  done
done
for m in stdx__Int_table samplers__Cache stdx__Vec core__Intern; do
  m="camlFba_$m"
  if printf '%s\n' "$aer_refs" | grep -qxE "_?$m" \
    && ! printf '%s\n' "$aer_refs" | grep -qE "^_?$m(\.|__)"; then
    echo "inline guard FAILED: $aer_o reaches $m only through its module block (an -opaque build)" >&2
    inline_fail=1
  fi
done
# Bitset.mem runs per message in the async cornering schedule and in
# every plurality vote (the grid's tallies among them).
for o in adversary/.fba_adversary.objs/native/fba_adversary__Aer_attacks.o \
  stdx/.fba_stdx.objs/native/fba_stdx__Plurality.o \
  baselines/.fba_baselines.objs/native/fba_baselines__Grid_aetoe.o; do
  for sym in $(nm -u "$objs/$o" | awk '{print $NF}' \
    | grep -xE '_?camlFba_stdx__Bitset(\.|__)mem_[0-9]+' || true); do
    echo "inline guard FAILED: $objs/$o references $sym, an [@inline] helper left as a call" >&2
    inline_fail=1
  done
done
[ "$inline_fail" = 0 ] || exit 1
echo "inline guard ok: $aer_o calls no [@inline] helper and no module only through its block;" \
  "no Bitset.mem call in the cornering, plurality or grid objects"

# Polymorphic-compare guard: the modules every delivery runs through
# must compare ints inline. A comparison the compiler cannot type as
# int becomes a C call per use (caml_equal, caml_lessthan, ...); one
# unannotated scan made each quorum-membership test pay one per slot.
# Any such reference in these native objects fails the build, naming
# the object and the symbol.
guarded="$(ls "$objs"/samplers/.fba_samplers.objs/native/*.o "$objs"/sim/.fba_sim.objs/native/*.o)"
for m in Int_table Hash64 Vec Intx Prng Bitset Plurality; do
  guarded="$guarded $objs/stdx/.fba_stdx.objs/native/fba_stdx__$m.o"
done
for m in Aer Compiled Msg Intern; do
  guarded="$guarded $objs/core/.fba_core.objs/native/fba_core__$m.o"
done
# The grid baseline's handler and its tallies run on every grid delivery.
guarded="$guarded $objs/baselines/.fba_baselines.objs/native/fba_baselines__Grid_aetoe.o"
poly=0
for o in $guarded; do
  undefined="$(nm -u "$o")"
  for sym in $(printf '%s\n' "$undefined" | awk '{print $NF}' \
    | grep -xE '_?caml_(equal|notequal|compare|lessthan|lessequal|greaterthan|greaterequal|hash)' || true); do
    echo "poly-compare guard FAILED: $o references $sym" >&2
    poly=1
  done
done
[ "$poly" = 0 ] || exit 1
echo "poly-compare guard ok: $(echo $guarded | wc -w) objects, no polymorphic compare or hash"

dune runtest

# Environment-switch allowlist: the program may read only these FBA_*
# variables. Every other name is refused, so an A/B twin of a code path
# cannot come back behind a new switch unnoticed.
allowed="FBA_JOBS FBA_PROGRESS FBA_ROBUSTNESS_SMOKE FBA_WIDE_SWEEP_SIZES"
read_vars="$(grep -rhoE --include='*.ml' '"FBA_[A-Z0-9_]*' lib bin | tr -d '"' | sort -u)"
for v in $read_vars; do
  case " $allowed " in
    *" $v "*) ;;
    *)
      echo "env allowlist FAILED: $v is read in lib/ or bin/ but not allowed:" >&2
      grep -rn --include='*.ml' "\"$v" lib bin >&2
      exit 1
      ;;
  esac
done
echo "env allowlist ok: $(echo $read_vars | wc -w) FBA_* names read, all allowed"

# Trace pipeline smoke test: the fba trace subcommand must succeed on a
# small scenario (its exit status already enforces the per-phase bits
# == Metrics.total_bits_all cross-check) and its JSONL export must be
# one parseable JSON object per line with the required keys. The
# engines are the only emitters, and a message event's kind is the
# protocol's handler-tag name: for AER, one of Aer.msg_tags' names.
jsonl="$tmp/trace.jsonl"
dune exec bin/fba.exe -- trace -n 48 --attack flood --jsonl "$jsonl" > /dev/null
python3 - "$jsonl" <<'EOF'
import json, sys
evs = {"round_start", "send", "inject", "deliver", "drop", "decide"}
kinds = {"Push", "Poll", "Pull", "Fw1", "Fw2", "Answer"}
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
        if o["ev"] in ("send", "inject", "deliver", "drop") and o.get("kind") not in kinds:
            sys.exit(f"line {i}: kind {o.get('kind')!r} is not an AER tag name")
        lines += 1
if lines == 0:
    sys.exit("JSONL trace is empty")
print(f"trace JSONL ok: {lines} events")
EOF

# Profiler smoke test: `fba profile` must pass its own accounting
# cross-check on both engines (the per-round x per-tag wall/alloc
# cells must sum exactly to the run totals; it exits non-zero
# otherwise), and its
# --json Telemetry document must parse, be pure ASCII, carry the
# version 2 envelope (no "phases" key), and have its slots' wall
# times and allocated words sum to the profile's totals.
dune exec bin/fba.exe -- profile -n 48 --attack cornering > /dev/null
dune exec bin/fba.exe -- profile -n 48 --attack cornering --mode non-rushing > /dev/null
dune exec bin/fba.exe -- profile -n 48 --attack cornering --mode async > /dev/null
echo "profile accounting smoke ok"
telemetry="$tmp/telemetry.json"
dune exec bin/fba.exe -- profile -n 48 --attack cornering --json > "$telemetry"
python3 - "$telemetry" <<'EOF'
import json, sys
raw = open(sys.argv[1], "rb").read()
if any(b >= 128 for b in raw):
    sys.exit("telemetry document contains non-ASCII bytes")
doc = json.loads(raw)
if doc.get("telemetry_version") != 2:
    sys.exit(f"unexpected telemetry_version: {doc.get('telemetry_version')!r}")
if list(doc) != ["telemetry_version", "counters", "gauges", "dists", "prof"]:
    sys.exit(f"unexpected telemetry keys: {list(doc)}")
if doc["prof"] is None:
    sys.exit("profiled run exported prof: null")
for cell, total in (("wall_ns", "total_wall_ns"), ("alloc_words", "total_alloc_words")):
    if sum(s[cell] for s in doc["prof"]["slots"]) != doc["prof"][total]:
        sys.exit(f"prof slot {cell} do not sum to {total}")
print(f"telemetry JSON ok: {len(doc['counters'])} counters, "
      f"{len(doc['prof']['slots'])} prof slots")
EOF

# Sweep-executor smoke test: the experiment sweeps must produce
# byte-identical reports whether the grid runs sequentially or sharded
# across worker domains. Uses the two cheapest experiments, and fig1b,
# the one report that runs AEBA's committees, phase-king, the grid and
# the randomized BAs together.
seq_out="$tmp/seq_out"
par_out="$tmp/par_out"
for e in samplers fig1a fig1b; do dune exec bin/fba.exe -- experiment "$e" --jobs 1; done > "$seq_out"
for e in samplers fig1a fig1b; do dune exec bin/fba.exe -- experiment "$e" --jobs 2; done > "$par_out"
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
FBA_ROBUSTNESS_SMOKE=1 dune exec bin/fba.exe -- experiment robustness --jobs 1 > "$seq_out"
FBA_ROBUSTNESS_SMOKE=1 dune exec bin/fba.exe -- experiment robustness --jobs 2 > "$par_out"
if cmp -s "$seq_out" "$par_out"; then
  echo "robustness jobs smoke ok: --jobs 2 output identical to --jobs 1"
else
  echo "robustness smoke FAILED: --jobs 2 output differs from --jobs 1" >&2
  diff "$seq_out" "$par_out" >&2 || true
  exit 1
fi

# Wide-sweep pipeline smoke: the wide experiment itself, shrunk to
# populations that run in seconds, must be byte-identical sequential
# vs sharded like every other sweep.
FBA_WIDE_SWEEP_SIZES="256,512" dune exec bin/fba.exe -- experiment wide --jobs 1 > "$seq_out"
FBA_WIDE_SWEEP_SIZES="256,512" dune exec bin/fba.exe -- experiment wide --jobs 2 > "$par_out"
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

# Example smoke: every program under examples/ must run to completion
# and exit 0. Two of them drive the BA compositions (Fba_harness.Ba),
# which no other smoke runs.
for src in examples/*.ml; do
  x="$(basename "$src" .ml)"
  if ! dune exec "examples/$x.exe" > /dev/null; then
    echo "example smoke FAILED: examples/$x.exe exited non-zero" >&2
    exit 1
  fi
done
echo "example smoke ok: $(ls examples/*.ml | wc -l) examples exited 0"

# Flag-rejection smoke: a flag value the library refuses is a usage
# error, reported as `fba: <library message>` with exit 2, not
# cmdliner's internal-error exit 125.
err="$tmp/err"
refused() {
  want="$1"
  shift
  status=0
  dune exec bin/fba.exe -- "$@" > /dev/null 2> "$err" || status=$?
  if [ "$status" != 2 ] || ! grep -qF "fba: $want" "$err"; then
    echo "flag smoke FAILED: fba $* exited $status; want 2 and \"fba: $want\" on stderr:" >&2
    cat "$err" >&2
    exit 1
  fi
}
refused "Params.make: n must be at least 4" run-aer -n 3
refused "Params.make_for: byzantine_fraction must be in [0, 1/3)" trace -n 48 --byzantine 0.5
refused "Aeba.make_config: byzantine_fraction must be in [0, 1/3)" run-ba -n 64 --byzantine 0.34
echo "flag smoke ok: rejected flag values exit 2 with the library's message"

# The size ROADMAP tracks from change to change.
echo "lines over lib test bin scripts: $(find lib test bin scripts -type f | xargs cat | wc -l)"
