#!/usr/bin/env bash
# Docs-drift checker (the `docs` stage of tools/verify.sh).
#
# The operator docs in docs/ promise to cover every exported metric and
# every trace span by name; this script makes that promise mechanical:
#
#   1. every JSON key emitted via .set("...") in src/serve/metrics.cpp
#      must appear (backticked) inside the GENERATED section of
#      docs/metrics-reference.md;
#   2. every span/instant name passed to DAGT_TRACE_SCOPE/INSTANT in
#      src/, tools/ and bench/ (tests and lint fixtures are exempt) must
#      appear (backticked) in docs/observability.md;
#   3. every kernel dispatch tier named in kTierNames
#      (src/tensor/kernels/dispatch.cpp), every DAGT_* CMake option /
#      cache variable and every DAGT_* environment variable read via
#      getenv (or the benches' envOr helper), and every bench_* target in
#      bench/CMakeLists.txt must appear (backticked) in
#      docs/performance.md;
#   4. every what-if edit command in the canonical table of
#      src/whatif/edit_script.cpp (between the DOCS:WHATIF_COMMANDS
#      markers) must appear (backticked) in docs/whatif.md;
#   5. every dagt-analyze pass id in the canonical table of
#      tools/dagt_analyze/passes.cpp (between the DOCS:ANALYZE_PASSES
#      markers) must appear (backticked) in docs/static-analysis.md;
#   6. the retrieval operator handbook: every DAGT_RETRIEVAL* env knob,
#      every retrieval/* trace span, and every retrieval_* metric key
#      emitted by src/serve/metrics.cpp must appear (backticked) in
#      docs/retrieval.md — the handbook re-documents its own slice of the
#      global lists, so an operator never leaves the page to decode a
#      counter or a knob.
#
# Span and env-var extraction prefers `dagt_analyze --dump spans|env` when
# the binary has been built: the analyzer lexes the sources, so names that
# appear only inside comments or disabled code do not pollute the check.
# The grep fallback (fresh checkout, no build tree yet) drops full-line
# comments but cannot see nuance beyond that.
#
# Adding a metric, span, tier, knob or bench without documenting it fails
# verify. Exits non-zero with one line per missing name.
#
# `--selftest` runs the negative mode instead: phantom names are injected
# into every extracted list and the script asserts each one is reported
# missing — proof the checkers actually fire, not just that the docs
# happen to be in sync.

set -u
cd "$(dirname "$0")/.."

SELFTEST=0
[[ "${1:-}" == "--selftest" ]] && SELFTEST=1

ANALYZER=build/tools/dagt_analyze/dagt_analyze
[[ -x "$ANALYZER" ]] || ANALYZER=""

MISSING=0
MISSED_NAMES=""

miss() {
  echo "check_docs: $1"
  MISSING=1
  MISSED_NAMES="$MISSED_NAMES
$1"
}

# --- 1. serve metrics keys -> docs/metrics-reference.md -------------------

REF=docs/metrics-reference.md
if [[ ! -f "$REF" ]]; then
  miss "$REF does not exist"
else
  grep -q 'BEGIN GENERATED: serve-metrics-keys' "$REF" &&
    grep -q 'END GENERATED: serve-metrics-keys' "$REF" ||
    miss "$REF lost its GENERATED section markers"

  # The cross-checked region only (so prose elsewhere can't satisfy a key).
  SECTION=$(sed -n '/BEGIN GENERATED: serve-metrics-keys/,/END GENERATED: serve-metrics-keys/p' "$REF")

  KEYS=$(grep -ho '\.set("[A-Za-z0-9_]*"' src/serve/metrics.cpp src/serve/metrics.hpp 2>/dev/null |
    sed 's/.*("\([^"]*\)".*/\1/' | sort -u)
  [[ -n "$KEYS" ]] || miss "no .set(\"...\") keys found in src/serve/metrics.* (extraction broke?)"

  for key in $KEYS; do
    # Documented = the key appears inside backticks in the generated
    # section (alone, or as a path segment like `trace_spans.<name>.count`).
    if ! grep -qE "\`([^\`]*[^A-Za-z0-9_])?${key}([^A-Za-z0-9_][^\`]*)?\`" <<<"$SECTION"; then
      miss "metric key '${key}' (src/serve/metrics.cpp) is not documented in $REF"
    fi
  done
fi

# --- 2. trace span names -> docs/observability.md -------------------------

OBS=docs/observability.md
if [[ ! -f "$OBS" ]]; then
  miss "$OBS does not exist"
else
  if [[ -n "$ANALYZER" ]]; then
    SPANS=$("$ANALYZER" --dump spans .)
  else
    SPANS=$(grep -rhE 'DAGT_TRACE_(SCOPE|INSTANT)\("[^"]+"' src tools bench |
      grep -vE '^[[:space:]]*//' |
      grep -oE 'DAGT_TRACE_(SCOPE|INSTANT)\("[^"]+"' |
      sed 's/.*("\([^"]*\)".*/\1/' | sort -u)
  fi
  [[ -n "$SPANS" ]] || miss "no DAGT_TRACE_* names found under src/ tools/ bench/ (extraction broke?)"

  for span in $SPANS; do
    if ! grep -qF "\`${span}\`" "$OBS"; then
      miss "span '${span}' is not documented in $OBS"
    fi
  done
fi

# --- 3. performance knobs -> docs/performance.md --------------------------

PERF=docs/performance.md

# Kernel dispatch tiers, from the canonical kTierNames initializer.
TIERS=$(sed -n '/kTierNames\[kTierCount\]/,/};/p' src/tensor/kernels/dispatch.cpp |
  grep -o '"[a-z0-9_]*"' | tr -d '"' | sort -u)
[[ -n "$TIERS" ]] || miss "no tier names found in src/tensor/kernels/dispatch.cpp (extraction broke?)"

# DAGT_* CMake options / cache variables (any CMakeLists.txt in the tree).
OPTIONS=$(grep -rhoE '(option|set)\(DAGT_[A-Z_]+' --include=CMakeLists.txt . |
  sed 's/.*(//' | sort -u)
[[ -n "$OPTIONS" ]] || miss "no DAGT_* CMake options found (extraction broke?)"

# DAGT_* environment variables read at runtime — directly via getenv or
# through the benches' envOr("DAGT_...", fallback) helper.
if [[ -n "$ANALYZER" ]]; then
  ENVVARS=$("$ANALYZER" --dump env .)
else
  ENVVARS=$(grep -rhE '(getenv|envOr)\("DAGT_[A-Z_]+"' src tools bench |
    grep -vE '^[[:space:]]*//' |
    grep -oE '(getenv|envOr)\("DAGT_[A-Z_]+"' |
    sed 's/.*"\(DAGT_[A-Z_]*\)".*/\1/' | sort -u)
fi
[[ -n "$ENVVARS" ]] || miss "no getenv(\"DAGT_*\") env vars found under src/ tools/ bench/ (extraction broke?)"

# Benchmark targets: declared via the dagt_bench() macro or directly with
# add_executable(bench_...) — both spellings exist in bench/CMakeLists.txt.
BENCHES=$(grep -hoE '(dagt_bench|add_executable)\(bench_[a-z0-9_]+' bench/CMakeLists.txt |
  sed 's/.*(//' | sort -u)
[[ -n "$BENCHES" ]] || miss "no bench_* targets found in bench/CMakeLists.txt (extraction broke?)"

if [[ "$SELFTEST" == 1 ]]; then
  # Inject one phantom name per list; each must surface as a miss below,
  # otherwise that checker is dead and would let real drift through.
  TIERS="$TIERS
phantom_tier_zz"
  OPTIONS="$OPTIONS
DAGT_PHANTOM_OPTION"
  ENVVARS="$ENVVARS
DAGT_PHANTOM_ENV"
  BENCHES="$BENCHES
bench_phantom_target"
fi

if [[ ! -f "$PERF" ]]; then
  miss "$PERF does not exist"
else
  for tier in $TIERS; do
    grep -qF "\`${tier}\`" "$PERF" ||
      miss "kernel tier '${tier}' (src/tensor/kernels/dispatch.cpp) is not documented in $PERF"
  done
  for opt in $OPTIONS; do
    grep -qF "\`${opt}\`" "$PERF" ||
      miss "CMake knob '${opt}' is not documented in $PERF"
  done
  for var in $ENVVARS; do
    grep -qF "\`${var}\`" "$PERF" ||
      miss "env var '${var}' is not documented in $PERF"
  done
  for b in $BENCHES; do
    grep -qF "\`${b}\`" "$PERF" ||
      miss "bench target '${b}' is not documented in $PERF"
  done
fi

# --- 4. what-if edit commands -> docs/whatif.md ---------------------------

WIF=docs/whatif.md

# Command names from the canonical table in edit_script.cpp (the same table
# drives the script parser, the REPL and `help`, so the docs track all three).
CMDS=$(sed -n '/DOCS:WHATIF_COMMANDS_BEGIN/,/DOCS:WHATIF_COMMANDS_END/p' \
  src/whatif/edit_script.cpp |
  grep -oE '\{"[a-z]+"' | tr -d '{"' | sort -u)
[[ -n "$CMDS" ]] || miss "no what-if commands found in src/whatif/edit_script.cpp (extraction broke?)"

if [[ "$SELFTEST" == 1 ]]; then
  CMDS="$CMDS
phantomcmd"
fi

if [[ ! -f "$WIF" ]]; then
  miss "$WIF does not exist"
else
  for cmd in $CMDS; do
    grep -qF "\`${cmd}\`" "$WIF" ||
      miss "what-if command '${cmd}' (src/whatif/edit_script.cpp) is not documented in $WIF"
  done
fi

# --- 5. dagt-analyze pass ids -> docs/static-analysis.md -------------------

SAN=docs/static-analysis.md

# Pass ids from the canonical table in passes.cpp (the same table drives
# the pass engine, `--dump passes` and the findings JSON).
PASSES=$(sed -n '/DOCS:ANALYZE_PASSES_BEGIN/,/DOCS:ANALYZE_PASSES_END/p' \
  tools/dagt_analyze/passes.cpp |
  grep -oE '\{"[a-z-]+"' | tr -d '{"' | sort -u)
[[ -n "$PASSES" ]] || miss "no pass ids found in tools/dagt_analyze/passes.cpp (extraction broke?)"

if [[ "$SELFTEST" == 1 ]]; then
  PASSES="$PASSES
phantom-pass-zz"
fi

if [[ ! -f "$SAN" ]]; then
  miss "$SAN does not exist"
else
  for pass in $PASSES; do
    grep -qF "\`${pass}\`" "$SAN" ||
      miss "analyzer pass '${pass}' (tools/dagt_analyze/passes.cpp) is not documented in $SAN"
  done
fi

# --- 6. retrieval knobs, spans and metric keys -> docs/retrieval.md --------

RETR=docs/retrieval.md

# The retrieval handbook re-documents its own slice of the global lists
# (sections 1-3 already check them against the general docs):
# DAGT_RETRIEVAL* knobs, retrieval/* spans, retrieval_* metrics.
RETRENVS=$(grep -E '^DAGT_RETRIEVAL' <<<"${ENVVARS:-}" | sort -u)
[[ -n "$RETRENVS" ]] || miss "no DAGT_RETRIEVAL* env knobs found (extraction broke?)"

RETRSPANS=$(grep -E '^retrieval/' <<<"${SPANS:-}" | sort -u)
[[ -n "$RETRSPANS" ]] || miss "no retrieval/* trace spans found (extraction broke?)"

RETRKEYS=$(grep -ho '\.set("retrieval_[A-Za-z0-9_]*"' src/serve/metrics.cpp 2>/dev/null |
  sed 's/.*("\([^"]*\)".*/\1/' | sort -u)
[[ -n "$RETRKEYS" ]] || miss "no retrieval_* metric keys found in src/serve/metrics.cpp (extraction broke?)"

if [[ "$SELFTEST" == 1 ]]; then
  RETRENVS="$RETRENVS
DAGT_RETRIEVAL_PHANTOM_KNOB"
  RETRSPANS="$RETRSPANS
retrieval/phantom_span"
  RETRKEYS="$RETRKEYS
retrieval_phantom_key"
fi

if [[ ! -f "$RETR" ]]; then
  miss "$RETR does not exist"
else
  for var in $RETRENVS; do
    grep -qF "\`${var}\`" "$RETR" ||
      miss "retrieval knob '${var}' is not documented in $RETR"
  done
  for span in $RETRSPANS; do
    grep -qF "\`${span}\`" "$RETR" ||
      miss "retrieval span '${span}' is not documented in $RETR"
  done
  for key in $RETRKEYS; do
    grep -qF "\`${key}\`" "$RETR" ||
      miss "retrieval metric key '${key}' (src/serve/metrics.cpp) is not documented in $RETR"
  done
fi

# --- verdict ---------------------------------------------------------------

if [[ "$SELFTEST" == 1 ]]; then
  rc=0
  for phantom in phantom_tier_zz DAGT_PHANTOM_OPTION DAGT_PHANTOM_ENV \
    bench_phantom_target phantomcmd phantom-pass-zz \
    DAGT_RETRIEVAL_PHANTOM_KNOB retrieval/phantom_span \
    retrieval_phantom_key; do
    case "$MISSED_NAMES" in
      *"'${phantom}'"*) ;;
      *)
        echo "check_docs: SELFTEST FAILED — phantom '${phantom}' was not flagged"
        rc=1
        ;;
    esac
  done
  if [[ "$rc" == 0 ]]; then
    echo "check_docs: selftest ok — all phantom names were flagged"
  fi
  exit "$rc"
fi

if [[ "$MISSING" != 0 ]]; then
  echo "check_docs: FAILED — update docs/ to match the source (or vice versa)"
  exit 1
fi
echo "check_docs: docs are in sync with the source"
