#!/bin/sh
# Exit-code contract of the bench drivers that take flags (documented in
# bench/flags.h and each driver's header):
#   0  success
#   1  runtime failure, or an output file that could not be written
#   2  configuration error: an unknown flag, a missing value, trailing
#      garbage, a value below its bound, an invalid city, or a flag the
#      mode cannot honour; refused before any trial runs
# No command line may abort the driver.
#
# Usage: bench_driver_exit_codes.sh <bench_fuzz_soak> <bench_chaos_recovery>
#                                   <bench_city_scale>
set -u

SOAK="$1"
CHAOS="$2"
CITY="$3"
TMP="${TMPDIR:-/tmp}/bench_driver_exit_codes.$$"
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

expect_exit() {
  want="$1"
  desc="$2"
  shift 2
  "$@" >"$TMP/out" 2>"$TMP/err"
  got=$?
  [ "$got" -eq "$want" ] || {
    cat "$TMP/err" >&2
    fail "$desc: expected exit $want, got $got"
  }
}

# A refused flag exits 2, names the flag (or the reason) on stderr, and
# prints nothing on stdout: no trial ran.
expect_refused() {
  name="$1"
  shift
  expect_exit 2 "$*" "$@"
  grep -q -- "$name" "$TMP/err" || {
    cat "$TMP/err" >&2
    fail "the error for '$*' must name $name"
  }
  [ -s "$TMP/out" ] && fail "'$*' printed output before refusing"
  return 0
}

expect_refused "--seeds: expected an integer >= 0, got '-1'" \
  "$SOAK" --seeds -1
expect_refused "--seeds: expected an integer >= 0, got '2x'" \
  "$SOAK" --seeds 2x
expect_refused "--seeds" "$SOAK" --geodb --seeds=-1
expect_refused "--geo-budget-ms needs --geodb" "$SOAK" --geo-budget-ms 5
expect_refused "--root-seed: expected an unsigned integer, got '-1'" \
  "$SOAK" --root-seed -1
expect_refused "unknown argument '--bogus'" "$SOAK" --bogus
expect_refused "--out needs a value" "$SOAK" --out
expect_refused "--trials: expected an integer >= 1, got '-1'" \
  "$CHAOS" --trials -1
expect_refused "--clients: expected an integer >= 1, got '0'" \
  "$CHAOS" --clients=0
expect_refused "error: city needs at least one AP" "$CITY" --aps 0
expect_refused "--sweep: expected an integer >= 1, got '0'" \
  "$CITY" --sweep 1,0
expect_refused "--seconds must be > 0" "$CITY" --seconds 0
expect_refused "--seconds: expected a number, got '3s'" "$CITY" --seconds=3s
expect_refused "--shards: expected an integer >= 1, got '0'" \
  "$CITY" --shards=0

# An output that cannot be written exits 1 and is not announced.
MISSING="$TMP/missing/dir"
expect_exit 1 "unwritable city --json" \
  "$CITY" --aps=36 --seconds 0.2 --json "$MISSING/x.json"
grep -q "error: cannot write json report to $MISSING/x.json" "$TMP/err" ||
  fail "an unwritable city --json must be reported"
grep -q "json report:" "$TMP/out" && fail "an unwritten report was announced"
expect_exit 1 "unwritable chaos --json" \
  "$CHAOS" --trials 1 --json "$MISSING/c.json"
grep -q "error: cannot write json report to $MISSING/c.json" "$TMP/err" ||
  fail "an unwritable chaos --json must be reported"
grep -q "json report:" "$TMP/out" && fail "an unwritten report was announced"
expect_exit 1 "unwritable --trace" "$CHAOS" --trials 1 --trace "$MISSING/p"
grep -q "error: cannot write trace to $MISSING/pfixed.jsonl" "$TMP/err" ||
  fail "an unwritable --trace must be reported"
expect_exit 1 "unwritable --out" "$SOAK" --seeds 2 --safety-budget-ms 1 \
  --no-minimize --out "$MISSING/b.bundle"
grep -q "^VIOLATION in trial 1 " "$TMP/out" ||
  fail "the weakened budget must fail trial 1"
grep -q "error: cannot write repro bundle to $MISSING/b.bundle" "$TMP/err" ||
  fail "an unwritable --out must be reported"
grep -q "repro bundle:" "$TMP/out" && fail "an unwritten bundle was announced"

# The merged soak runs the geo-db generator cleanly.
expect_exit 0 "geo-db soak, one seed" "$SOAK" --geodb --seeds 1
grep -q "^Geo-db chaos soak: 1 randomized geo-db scenarios" "$TMP/out" ||
  fail "--geodb must run the geo-db soak"
grep -q "^all invariants held$" "$TMP/out" ||
  fail "the one-seed geo-db soak must hold every invariant"

echo "PASS"
