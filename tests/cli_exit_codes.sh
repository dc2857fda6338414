#!/usr/bin/env bash
# Exit-code contract test for `cbq check`:
#   0 = SAFE, 10 = UNSAFE, 20 = UNKNOWN, 1 = usage/IO error,
#   30 = audit violation (only reachable with --audit).
# Run by ctest as: cli_exit_codes.sh <path-to-cbq-binary>
set -u

CBQ="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
fails=0

expect() {
  local want="$1"
  shift
  "$@" >/dev/null 2>&1
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: '$*' exited $got, expected $want"
    fails=$((fails + 1))
  fi
}

"$CBQ" gen counter --width 3 -o "$TMP/safe.aag" || exit 1
"$CBQ" gen counter --width 3 --unsafe -o "$TMP/unsafe.aag" || exit 1
"$CBQ" gen haystack --width 3 --unsafe -o "$TMP/hay.aag" || exit 1
printf 'aag 1 1 0 1 0\nnot a literal\n' > "$TMP/broken.aag"

# 0: property proven.
expect 0 "$CBQ" check "$TMP/safe.aag" --timeout 60
# 10: replay-confirmed counterexample (also via the prep pipeline).
expect 10 "$CBQ" check "$TMP/unsafe.aag" --timeout 60
expect 10 "$CBQ" check "$TMP/hay.aag" --timeout 60 --prep on
expect 10 "$CBQ" check "$TMP/hay.aag" --timeout 60 --prep=off
# 20: no definitive verdict (BMC alone cannot prove a safe instance).
expect 20 "$CBQ" check "$TMP/safe.aag" --engine bmc --timeout 60
# 1: usage and input errors.
expect 1 "$CBQ" check
expect 1 "$CBQ" check "$TMP/no-such-file.aag"
expect 1 "$CBQ" check "$TMP/broken.aag"
expect 1 "$CBQ" check "$TMP/safe.aag" --engine no-such-engine
expect 1 "$CBQ" check "$TMP/safe.aag" --prep bogus-pass
expect 1 "$CBQ" check "$TMP/safe.aag" --schedule bogus
# Numeric flags must consume their whole value and be non-negative.
expect 1 "$CBQ" check "$TMP/safe.aag" --timeout abc
expect 1 "$CBQ" check "$TMP/safe.aag" --timeout 5s
expect 1 "$CBQ" check "$TMP/safe.aag" --timeout nan
expect 1 "$CBQ" check "$TMP/safe.aag" --timeout 1e300
expect 1 "$CBQ" check "$TMP/safe.aag" --timeout -1
expect 1 "$CBQ" check "$TMP/safe.aag" --node-limit -5
expect 1 "$CBQ" check "$TMP/safe.aag" --mem-limit lots
expect 1 "$CBQ" check "$TMP/safe.aag" --workers x
expect 1 "$CBQ" check "$TMP/safe.aag" --jobs 99999999999999999999
expect 1 "$CBQ" check "$TMP/safe.aag" --inject-seed -3
expect 1 "$CBQ" gen counter --width 3x
expect 1 "$CBQ" soak --seeds ten
msg="$("$CBQ" check "$TMP/safe.aag" --timeout abc 2>&1)"
case "$msg" in
  *"bad value for --timeout"*) ;;
  *)
    echo "FAIL: malformed --timeout lacks a diagnostic: $msg"
    fails=$((fails + 1))
    ;;
esac
expect 0 "$CBQ" check "$TMP/safe.aag" --timeout 60.5 --node-limit 0 \
  --mem-limit 4096 --workers 2 --schedule slice
expect 1 "$CBQ" check "$TMP/safe.aag" --no-such-flag 2

# The whole malformed-input corpus: every file is a clean exit-1 parse
# error — never a crash (which would surface as exit >= 128).
CORPUS="$(dirname "$0")/corpus"
if [ -d "$CORPUS" ]; then
  for f in "$CORPUS"/*.aag "$CORPUS"/*.aig "$CORPUS"/*.bench; do
    [ -e "$f" ] || continue
    expect 1 "$CBQ" check "$f"
  done
fi

# Injected faults must degrade, not abort: exit 20 (UNKNOWN), not a
# crash. A CBQ_FAULTS=OFF build ignores --inject with a warning and
# legitimately proves the instance (exit 0).
inject_out="$("$CBQ" check "$TMP/safe.aag" \
  --inject 'engine.resume:prob=1.0:throw' --timeout 60 2>&1)"
got=$?
case "$inject_out" in
  *"CBQ_FAULTS=OFF"*)
    [ "$got" -eq 0 ] || {
      echo "FAIL: faults-off build exited $got on --inject"
      fails=$((fails + 1))
    }
    ;;
  *)
    [ "$got" -eq 20 ] || {
      echo "FAIL: all-engines-faulted check exited $got, expected 20"
      fails=$((fails + 1))
    }
    ;;
esac

# The sequential bench path has the same containment: a failing pass
# falls back to the original network and a failing engine answers
# UNKNOWN, so the run completes (exit 0) with no wrong verdict.
for spec in 'prep.pass:1:throw' 'engine.resume:1:throw'; do
  expect 0 "$CBQ" bench --smoke --schedule seq --inject "$spec" \
    -o "$TMP/bench.json"
  grep -q '"verdict_mismatches": 0' "$TMP/bench.json" || {
    echo "FAIL: bench --schedule seq --inject $spec reported mismatches"
    fails=$((fails + 1))
  }
done

# Auditing a healthy instance must not change the verdict's exit code...
expect 0 "$CBQ" check "$TMP/safe.aag" --audit --timeout 60
expect 10 "$CBQ" check "$TMP/unsafe.aag" --audit --timeout 60
# ...while every seeded corruption class maps to the dedicated exit 30,
# and an unknown class is a usage error.
expect 30 "$CBQ" check "$TMP/safe.aag" --audit --audit-selftest strash
expect 30 "$CBQ" check "$TMP/safe.aag" --audit --audit-selftest epoch
expect 30 "$CBQ" check "$TMP/safe.aag" --audit --audit-selftest latch
expect 1 "$CBQ" check "$TMP/safe.aag" --audit --audit-selftest bogus

# The exit-30 path must name the violated invariant.
msg="$("$CBQ" check "$TMP/safe.aag" --audit --audit-selftest latch 2>&1)"
case "$msg" in
  *"net.latch.dangling-next"*) ;;
  *)
    echo "FAIL: audit selftest output lacks invariant name: $msg"
    fails=$((fails + 1))
    ;;
esac

# Parse errors must name the offending line (satellite: line-numbered
# diagnostics).
msg="$("$CBQ" check "$TMP/broken.aag" 2>&1)"
case "$msg" in
  *"line 2"*) ;;
  *)
    echo "FAIL: parse error lacks line number: $msg"
    fails=$((fails + 1))
    ;;
esac

if [ "$fails" -ne 0 ]; then
  echo "$fails exit-code contract violations"
  exit 1
fi
echo "exit-code contract holds"
