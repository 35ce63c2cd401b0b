#!/bin/sh
# Build everything, guard the build flags and the delivery path's
# objects, run the test suite and the slow half of the output manifest
# (test/manifest, which also pins experiment and service output at two
# worker counts), check that the program reads no environment, then
# smoke-test the command-line surfaces: trace and profile exports, the
# examples, and exit 2 for flag values the library rejects. Speed is
# measured by benchmark/, not here.
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
  "stdx__Int_table:slot_of find_slot mem get_or set add incr" \
  "samplers__Cache:row_sid quorum_sid pos_sid quorum_rid pos_rid pos_array" \
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
# The lemmas and ablation tables (~15 s) against their expected stdout.
dune build @test/manifest/manifest-slow
echo "output manifest ok: lemmas and ablation tables unchanged"

# No environment: the command line is the program's only
# configuration, so an A/B twin of a code path cannot come back behind
# an environment switch.
if grep -rn --include='*.ml' 'getenv' lib bin >&2; then
  echo "environment guard FAILED: lib/ or bin/ reads the environment (above)" >&2
  exit 1
fi
echo "environment guard ok: lib/ and bin/ call no getenv"

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

# The size ROADMAP tracks from change to change: the lines of code files
# (OCaml sources, dune files, shell scripts) under lib, test, bin,
# scripts and benchmark. Expected outputs are data and stay out.
code_lines="$(find lib test bin scripts benchmark -type f \
  \( -name '*.ml' -o -name '*.mli' -o -name dune -o -name '*.sh' \) | xargs cat | wc -l)"
echo "code lines over lib test bin scripts benchmark: $code_lines"
