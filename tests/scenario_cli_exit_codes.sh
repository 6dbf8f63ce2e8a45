#!/bin/sh
# Exit-code contract of scenario_cli (documented in its header):
#   0  success / replay reproduced / invariants held
#   1  runtime failure / violation found / replay divergence
#   2  configuration error (bad flags, malformed file, --strict unknown key,
#      a flag the run cannot honour)
# Scripts (and CI) rely on the 1-vs-2 distinction, so it is pinned here,
# with trace_lens's, which keeps the same contract.  Both tools parse
# their flags through bench/flags.h (`--flag VALUE` or `--flag=VALUE`) and
# write every output file through its checked writer: a file that cannot
# be written exits 1 and is not announced.
#
# Usage: scenario_cli_exit_codes.sh <path-to-scenario_cli> <path-to-trace_lens>
#                                   <path-to-bench_fuzz_soak>
set -u

CLI="$1"
LENS="$2"
SOAK="$3"
TMP="${TMPDIR:-/tmp}/scenario_cli_exit_codes.$$"
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

# A minimal valid scenario: exit 0.
cat >"$TMP/ok.conf" <<EOF
seed = 3
seconds = 1
warmup = 0.2
network.clients = 1
EOF
expect_exit 0 "valid config" "$CLI" --config "$TMP/ok.conf"

# Unknown key: warning (exit 0) by default, fatal (exit 2) under --strict,
# and the strict error must carry the file path and line number.
cat >"$TMP/typo.conf" <<EOF
seed = 3
seconds = 1
netwrk.clients = 1
EOF
expect_exit 0 "unknown key without --strict" \
  "$CLI" --config "$TMP/typo.conf"
grep -q "netwrk.clients" "$TMP/err" || fail "missing unknown-key warning"

expect_exit 2 "unknown key under --strict" \
  "$CLI" --config "$TMP/typo.conf" --strict
grep -q "typo.conf line 3" "$TMP/err" || {
  cat "$TMP/err" >&2
  fail "--strict error must name path and line"
}

# Malformed syntax: exit 2, with line attribution.
printf 'seed = 3\nthis is not a key value line\n' >"$TMP/bad.conf"
expect_exit 2 "malformed config" "$CLI" --config "$TMP/bad.conf"
grep -q "line 2" "$TMP/err" || fail "parse error must carry the line"

# Missing file and bad flags are configuration errors too.
expect_exit 2 "missing config file" "$CLI" --config "$TMP/nonexistent.conf"
expect_exit 2 "unknown flag" "$CLI" --no-such-flag
expect_exit 2 "flag missing its value" "$CLI" --config

# Bad numeric flag values: exit 2 with an error naming the flag — even
# when the number is merely out of range (std::out_of_range must not leak
# into the runtime-error class) or carries trailing garbage.
expect_exit 2 "non-numeric flag value" "$CLI" --audit-budget-ms banana
grep -q -- "--audit-budget-ms" "$TMP/err" || {
  cat "$TMP/err" >&2
  fail "bad value error must name the flag"
}
expect_exit 2 "out-of-range flag value" \
  "$CLI" --seed 99999999999999999999999999
expect_exit 2 "trailing garbage in flag value" "$CLI" --seconds 3x

# --trace-only takes wire names of trace-event kinds; an unknown name is
# a configuration error naming the offending kind.
expect_exit 2 "unknown trace kind" "$CLI" --trace-only frame_tx,bogus_kind
grep -q "bogus_kind" "$TMP/err" || {
  cat "$TMP/err" >&2
  fail "--trace-only error must name the unknown kind"
}
expect_exit 2 "empty trace kind list" "$CLI" --trace-only ,

# [geodb] / [mobility] sections: a valid dynamic geo-db scenario runs to
# completion (exit 0), misspelled geodb keys are caught by --strict
# (exit 2), and a parameter that parses but violates the documented
# relations (queue >= 1, backoff_max >= backoff, ordered venue windows)
# is a RUNTIME error (exit 1): the file is well-formed, the scenario it
# describes is impossible.
cat >"$TMP/geodb.conf" <<EOF
seed = 7
seconds = 2
warmup = 0.5
network.clients = 1
geodb.enabled = true
geodb.venues = 1
geodb.refresh_s = 0.5
mobility.enabled = true
mobility.speed_max_mps = 5.0
EOF
expect_exit 0 "valid geodb+mobility config" \
  "$CLI" --config "$TMP/geodb.conf" --strict

cat >"$TMP/geodb_typo.conf" <<EOF
seed = 7
seconds = 1
geodb.enabled = true
geodb.refrsh_s = 0.5
mobility.speed_max_mps = 5.0
EOF
expect_exit 0 "unknown geodb key without --strict" \
  "$CLI" --config "$TMP/geodb_typo.conf"
expect_exit 2 "unknown geodb key under --strict" \
  "$CLI" --config "$TMP/geodb_typo.conf" --strict
grep -q "geodb.refrsh_s" "$TMP/err" || {
  cat "$TMP/err" >&2
  fail "--strict error must name the misspelled geodb key"
}

cat >"$TMP/geodb_bad.conf" <<EOF
seed = 7
seconds = 1
geodb.enabled = true
geodb.queue = 0
EOF
expect_exit 1 "invalid geodb parameter relation" \
  "$CLI" --config "$TMP/geodb_bad.conf"

cat >"$TMP/mobility_bad.conf" <<EOF
seed = 7
seconds = 1
geodb.enabled = true
mobility.enabled = true
mobility.speed_min_mps = 9.0
mobility.speed_max_mps = 1.0
EOF
expect_exit 1 "inverted mobility speed range" \
  "$CLI" --config "$TMP/mobility_bad.conf"

# A mic that switches off before it switches on would never vacate its
# channel; the loader refuses it, also under --strict --audit.
cat >"$TMP/mic_inverted.conf" <<EOF
seed = 11
seconds = 6
map.name = building5
network.clients = 2
mic.tv_channel = 28
mic.on_s = 4
mic.off_s = 3
EOF
expect_exit 1 "mic off before on" \
  "$CLI" --config "$TMP/mic_inverted.conf" --strict --audit
grep -q "mic.off_s" "$TMP/err" || {
  cat "$TMP/err" >&2
  fail "the error must name mic.off_s"
}

# [city] / [shards] sections: a valid city-scale scenario runs on the
# sharded engine (exit 0, any --shards), misspelled city/shards keys are
# caught by --strict (exit 2), a bad --shards value is a flag error
# naming the flag (exit 2), and a parameter that parses but violates the
# city generator's documented relations (placement name, roams without
# cbr, tile edge below the interference cutoff) is a configuration
# error (exit 2): the scenario it describes cannot be built.
cat >"$TMP/city.conf" <<EOF
seed = 5
seconds = 1
city.aps = 9
city.clients_per_ap = 1
city.width_m = 7000
city.height_m = 7000
EOF
expect_exit 0 "valid city config" "$CLI" --config "$TMP/city.conf" --strict
expect_exit 0 "valid city config, sharded" \
  "$CLI" --config "$TMP/city.conf" --strict --shards 4
expect_exit 0 "valid city config under audit" \
  "$CLI" --config "$TMP/city.conf" --strict --shards 2 --audit
grep -q "shards: 4" "$TMP/out" && fail "shard count must not reach stdout"

# The engine starts min(--shards, tiles) worker threads: a huge count
# prints the --shards 1 summary and reports the clamped width on stderr.
CITY_GRID="$(dirname "$0")/../examples/configs/city_grid.conf"
expect_exit 0 "city_grid, one shard" "$CLI" --config "$CITY_GRID" --strict \
  --shards 1
cp "$TMP/out" "$TMP/city_s1.out"
expect_exit 0 "city_grid, 2000 shards" "$CLI" --config "$CITY_GRID" --strict \
  --shards 2000
cmp -s "$TMP/out" "$TMP/city_s1.out" || {
  diff "$TMP/city_s1.out" "$TMP/out" >&2
  fail "--shards 2000 must print the --shards 1 summary"
}
grep -q "^shards: 25 worker thread(s)$" "$TMP/err" || {
  cat "$TMP/err" >&2
  fail "--shards 2000 on 25 tiles must start 25 worker threads"
}

cat >"$TMP/city_typo.conf" <<EOF
seed = 5
seconds = 1
city.aps = 4
city.clents_per_ap = 1
shards.trce = true
EOF
expect_exit 0 "unknown city key without --strict" \
  "$CLI" --config "$TMP/city_typo.conf"
grep -q "city.clents_per_ap" "$TMP/err" || {
  cat "$TMP/err" >&2
  fail "missing city unknown-key warning"
}
grep -q "shards.trce" "$TMP/err" || {
  cat "$TMP/err" >&2
  fail "missing shards unknown-key warning"
}
expect_exit 2 "unknown city key under --strict" \
  "$CLI" --config "$TMP/city_typo.conf" --strict
grep -q "city_typo.conf line 4" "$TMP/err" || {
  cat "$TMP/err" >&2
  fail "--strict city error must name path and line"
}

expect_exit 2 "zero shard count" "$CLI" --config "$TMP/city.conf" --shards 0
expect_exit 2 "negative shard count" \
  "$CLI" --config "$TMP/city.conf" --shards -3
expect_exit 2 "non-numeric shard count" \
  "$CLI" --config "$TMP/city.conf" --shards many
grep -q -- "--shards" "$TMP/err" || {
  cat "$TMP/err" >&2
  fail "bad --shards error must name the flag"
}

cat >"$TMP/city_bad_placement.conf" <<EOF
seed = 5
seconds = 1
city.aps = 4
city.placement = hexgrid
EOF
expect_exit 2 "unknown city placement" \
  "$CLI" --config "$TMP/city_bad_placement.conf"

cat >"$TMP/city_bad_roam.conf" <<EOF
seed = 5
seconds = 1
city.aps = 4
city.traffic = saturated
city.roams = 1
EOF
expect_exit 2 "roams without cbr traffic" \
  "$CLI" --config "$TMP/city_bad_roam.conf"

cat >"$TMP/city_bad_tile.conf" <<EOF
seed = 5
seconds = 1
city.aps = 4
city.tile_m = 100
EOF
expect_exit 2 "tile edge below the interference cutoff" \
  "$CLI" --config "$TMP/city_bad_tile.conf"

# Scenario flags are description keys.  A flags-only run is the standard
# cell of the equivalent description file: same stdout after the header
# line (which names the source).  --trace prints the recovery story.
cat >"$TMP/mic.conf" <<EOF
seconds = 20
map.name = building5
network.clients = 3
mic.tv_channel = 28
mic.on_s = 5
EOF
expect_exit 0 "mic description file" "$CLI" --config "$TMP/mic.conf" --trace
tail -n +2 "$TMP/out" >"$TMP/mic_file.out"
expect_exit 0 "mic example through flags" "$CLI" --map building5 --clients 3 \
  --mic 28 --mic-at 5 --seconds 20 --trace
tail -n +2 "$TMP/out" >"$TMP/mic_flags.out"
cmp -s "$TMP/mic_file.out" "$TMP/mic_flags.out" || {
  diff "$TMP/mic_file.out" "$TMP/mic_flags.out" >&2
  fail "a flags-only run must print what the equivalent file prints"
}
grep -q "  incumbent_on  " "$TMP/mic_flags.out" ||
  fail "--trace must print the incumbent_on record"
grep -q "  channel_switch  " "$TMP/mic_flags.out" ||
  fail "--trace must print channel_switch records"

# Flags override the file, before it loads: --seed changes the run.
expect_exit 0 "file alone" "$CLI" --config "$TMP/mic.conf"
cp "$TMP/out" "$TMP/seed_file.out"
expect_exit 0 "file with --seed" "$CLI" --config "$TMP/mic.conf" --seed 9
cmp -s "$TMP/out" "$TMP/seed_file.out" &&
  fail "--seed must override the file's seed"

# A flag the run cannot honour exits 2 naming the flag, never a silent
# no-op.
expect_config_error() {
  flag="$1"
  shift
  expect_exit 2 "$flag in: $*" "$@"
  grep -q -- "$flag" "$TMP/err" || {
    cat "$TMP/err" >&2
    fail "the error must name $flag"
  }
}
expect_config_error --clients "$CLI" --config "$TMP/city.conf" --clients 7
expect_config_error --mic-at "$CLI" --seconds 1 --mic-at 3
for flag in --metrics --trace --profile; do
  expect_config_error $flag "$CLI" --config "$TMP/city.conf" $flag
  expect_config_error $flag "$CLI" --replay "$TMP/ok.conf" $flag
done
for flag in --metrics-csv --metrics-json --trace-json --trace-jsonl \
    --timeline-csv; do
  expect_config_error $flag "$CLI" --config "$TMP/city.conf" $flag "$TMP/o"
  expect_config_error $flag "$CLI" --replay "$TMP/ok.conf" $flag "$TMP/o"
done
[ -e "$TMP/o" ] && fail "a refused output flag must write nothing"
expect_config_error --trace-only \
  "$CLI" --config "$TMP/city.conf" --trace-only chirp
expect_config_error --shards "$CLI" --config "$TMP/ok.conf" --shards 3
expect_config_error --shards "$CLI" --seconds 1 --shards 3
expect_config_error --seed "$CLI" --replay "$TMP/ok.conf" --seed 3
expect_config_error --minimize \
  "$CLI" --config "$TMP/ok.conf" --minimize "$TMP/min.bundle"
[ -e "$TMP/min.bundle" ] && fail "--minimize without --replay wrote a file"

# A scenario that cannot be built exits 1 whether a flag or the file names
# it, and never aborts.
expect_exit 1 "unknown map through a flag" "$CLI" --map bogus
expect_exit 1 "mic off the white-space band through a flag" "$CLI" --mic 99
expect_exit 1 "negative client count through a flag" "$CLI" --clients -1
expect_exit 1 "zero background interval through a flag" \
  "$CLI" --background 1 --ipd 0
printf 'map.name = bogus\n' >"$TMP/bogus_map.conf"
expect_exit 1 "unknown map in the file" "$CLI" --config "$TMP/bogus_map.conf"

# Replaying a file with no expect block is a runtime failure (1), not a
# config error: the file parsed fine, the reproduction just cannot hold.
expect_exit 1 "replay of a non-bundle" "$CLI" --replay "$TMP/ok.conf"

# Replay of an unreadable bundle is a config error.
expect_exit 2 "replay of missing bundle" "$CLI" --replay "$TMP/nope.bundle"

# A flag takes its value as --flag VALUE or --flag=VALUE: same run.
expect_exit 0 "spaced --seconds and --config" \
  "$CLI" --seconds 1 --config "$TMP/ok.conf"
cp "$TMP/out" "$TMP/spaced.out"
expect_exit 0 "--seconds= and --config=" \
  "$CLI" --seconds=1 --config="$TMP/ok.conf"
cmp -s "$TMP/out" "$TMP/spaced.out" || {
  diff "$TMP/spaced.out" "$TMP/out" >&2
  fail "--flag=VALUE must print what --flag VALUE prints"
}

# A value the description cannot use exits 1 whether a flag or the file
# gives it; a number the flag cannot parse (not finite, out of its range,
# below its bound) exits 2 naming the flag.
expect_exit 1 "negative seed through a flag" "$CLI" --seed -1 --seconds 1
grep -q "seed must be >= 0" "$TMP/err" || fail "the error must name seed"
expect_exit 1 "negative seconds through a flag" "$CLI" --seconds -3
printf 'seconds = nan\n' >"$TMP/nan.conf"
expect_exit 1 "seconds = nan in the file" "$CLI" --config "$TMP/nan.conf"
grep -q "seconds must be finite and positive" "$TMP/err" ||
  fail "the error must name seconds"
printf 'seconds = 1\naudit.sweep_ms = 0\n' >"$TMP/sweep.conf"
expect_exit 1 "audit.sweep_ms = 0 in the file" \
  "$CLI" --config "$TMP/sweep.conf" --audit
expect_config_error --seconds "$CLI" --seconds inf
grep -q "^error: --seconds: expected a number, got 'inf'$" "$TMP/err" || {
  cat "$TMP/err" >&2
  fail "a flag error must read 'error: FLAG: ...'"
}
expect_config_error --audit-budget-ms "$CLI" --audit-budget-ms -5
expect_config_error --audit-budget-ms \
  "$CLI" --audit --audit-budget-ms 99999999999999999

# One rule for every description value, from the file or a scenario
# flag: a number the key cannot take exits 1 naming the key (a count past
# int is not narrowed, a time past SimTime is not cast), and text that is
# not a number exits 2 with its line.
printf 'seconds = 1\nnetwork.clients = 4294967297\n' >"$TMP/clients.conf"
expect_exit 1 "network.clients = 4294967297 in the file" \
  "$CLI" --config "$TMP/clients.conf"
grep -q "clients.conf line 2: network.clients must be " "$TMP/err" || {
  cat "$TMP/err" >&2
  fail "the error must name network.clients and its line"
}
expect_exit 1 "--clients 4294967297" "$CLI" --seconds 1 --clients 4294967297
grep -q "network.clients must be " "$TMP/err" || {
  cat "$TMP/err" >&2
  fail "the error must name network.clients"
}
# Counts and times that cannot be negative: a negative background pair
# count would run no pairs, and a mic over before t = 0 would never fire.
printf 'seconds = 1\nbackground.pairs = -3\n' >"$TMP/pairs.conf"
expect_exit 1 "background.pairs = -3" \
  "$CLI" --config "$TMP/pairs.conf" --strict --audit
grep -q "pairs.conf line 2: background.pairs must be " "$TMP/err" || {
  cat "$TMP/err" >&2
  fail "the error must name background.pairs and its line"
}
printf 'seconds = 1\nmic.tv_channel = 28\nmic.on_s = -4\nmic.off_s = -2\n' \
  >"$TMP/mic_negative.conf"
expect_exit 1 "mic.on_s = -4, mic.off_s = -2" \
  "$CLI" --config "$TMP/mic_negative.conf" --strict --audit
grep -q "mic_negative.conf line 3: mic.on_s must be " "$TMP/err" || {
  cat "$TMP/err" >&2
  fail "the error must name mic.on_s and its line"
}
printf 'seconds = 1\nmic.tv_channel = 28\nmic.off_s = -2\n' \
  >"$TMP/mic_off_negative.conf"
expect_exit 1 "mic.off_s = -2" \
  "$CLI" --config "$TMP/mic_off_negative.conf" --strict --audit
grep -q "mic_off_negative.conf line 3: mic.off_s must be " "$TMP/err" || {
  cat "$TMP/err" >&2
  fail "the error must name mic.off_s and its line"
}
printf 'seconds = 1\ngeodb.refresh_s = 1e300\n' >"$TMP/refresh.conf"
expect_exit 1 "geodb.refresh_s = 1e300" "$CLI" --config "$TMP/refresh.conf"
grep -q "refresh.conf line 2: geodb.refresh_s must be " "$TMP/err" || {
  cat "$TMP/err" >&2
  fail "the error must name geodb.refresh_s and its line"
}
printf 'seconds = 1\nmap.extra_occupied = 28abc\n' >"$TMP/occupied.conf"
expect_exit 2 "map.extra_occupied = 28abc" "$CLI" --config "$TMP/occupied.conf"
grep -q "^config error: $TMP/occupied.conf line 2: " "$TMP/err" || {
  cat "$TMP/err" >&2
  fail "the error must carry the line"
}
printf 'seconds = 1\nfault.scanner_outages = 0.5-0.7x\n' >"$TMP/outage.conf"
expect_exit 2 "fault.scanner_outages = 0.5-0.7x" \
  "$CLI" --config "$TMP/outage.conf"
grep -q "^config error: $TMP/outage.conf line 2: " "$TMP/err" || {
  cat "$TMP/err" >&2
  fail "the error must carry the line"
}

# A repro bundle whose run length is fractional replays, minimizes (the
# minimizer reads seconds as the loader does) and its minimized bundle
# replays too.
expect_exit 1 "weakened soak" "$SOAK" --seeds 3 --safety-budget-ms 1 \
  --no-minimize --out "$TMP/soak.bundle"
sed 's/^seconds = .*/seconds = 2.5/' "$TMP/soak.bundle" >"$TMP/frac.bundle"
grep -q "^seconds = 2.5$" "$TMP/frac.bundle" || fail "no seconds line to edit"
expect_exit 0 "replay of a fractional-seconds bundle" \
  "$CLI" --replay "$TMP/frac.bundle"
expect_exit 0 "minimize of a fractional-seconds bundle" \
  "$CLI" --replay "$TMP/frac.bundle" --minimize "$TMP/frac_min.bundle"
expect_exit 0 "replay of the minimized bundle" \
  "$CLI" --replay "$TMP/frac_min.bundle"

# An output file that cannot be written exits 1, names the path on
# stderr and is not announced.
MISSING="$TMP/missing/dir"
for flag in --metrics-csv --metrics-json --trace-json --trace-jsonl \
    --timeline-csv; do
  expect_exit 1 "unwritable $flag" "$CLI" --seconds 1 $flag "$MISSING/f"
  grep -q "cannot write .* to $MISSING/f" "$TMP/err" || {
    cat "$TMP/err" >&2
    fail "an unwritable $flag must name the path"
  }
  grep -q "written to" "$TMP/out" && fail "an unwritable $flag was announced"
done
expect_exit 1 "unwritable --minimize" \
  "$CLI" --replay "$TMP/ok.conf" --minimize "$MISSING/min.bundle"
grep -q "$MISSING/min.bundle" "$TMP/err" ||
  fail "an unwritable --minimize must name the path"
grep -q "minimized bundle" "$TMP/out" &&
  fail "an unwritable --minimize was announced"

# trace_lens: the trace is its leading operand, the flags follow it.
expect_exit 0 "mic trace for trace_lens" "$CLI" --map building5 --clients 3 \
  --mic 28 --mic-at 5 --seconds 20 --trace-jsonl="$TMP/mic.jsonl"
grep -q "event trace (.* events) written to $TMP/mic.jsonl" "$TMP/out" ||
  fail "--trace-jsonl= must write and announce the trace"
expect_exit 2 "trace_lens without an operand" "$LENS"
grep -q "^error: missing TRACE.jsonl operand$" "$TMP/err" ||
  fail "the error must name the missing operand"
expect_exit 2 "trace_lens --cause-window-ms out of range" \
  "$LENS" "$TMP/mic.jsonl" --cause-window-ms 99999999999999999
grep -q -- "--cause-window-ms" "$TMP/err" || fail "the error must name the flag"
expect_exit 1 "trace_lens unwritable --html" \
  "$LENS" "$TMP/mic.jsonl" --html "$MISSING/r.html"
grep -q "^error: cannot write html report to $MISSING/r.html$" "$TMP/err" ||
  fail "an unwritable --html must name the path"
grep -q "written to" "$TMP/out" && fail "an unwritable --html was announced"
expect_exit 0 "trace_lens --html FILE" \
  "$LENS" "$TMP/mic.jsonl" --html "$TMP/spaced.html"
grep -q "^html report written to $TMP/spaced.html$" "$TMP/out" ||
  fail "--html must announce the report"
expect_exit 0 "trace_lens --html=FILE" \
  "$LENS" "$TMP/mic.jsonl" --html="$TMP/eq.html"
cmp -s "$TMP/spaced.html" "$TMP/eq.html" ||
  fail "--html=FILE must write what --html FILE writes"
tail -n 1 "$TMP/eq.html" | grep -q "</html>$" || fail "truncated html report"

echo "PASS"
