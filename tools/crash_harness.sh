#!/usr/bin/env bash
# crash_harness.sh — seeded SIGKILL crash-recovery sweep (DESIGN.md §12).
#
# Drives tests/test_recovery in trial mode: each trial forks a durable
# writer child, SIGKILLs it at a random point mid-stream (sometimes
# mid-recovery too), then recovers in the parent and requires the result
# to be byte-identical to the acknowledged-prefix rebuild oracle, twice
# (idempotence). Consecutive trial seeds cycle durability mode
# (fsync/async) × checkpointing (off/on), so every four trials cover the
# whole matrix by construction.
#
# The sweep is seeded and reproducible: pass the seed with -s (CI passes
# the run id), or export I2A_FAILPOINT_SEED; the binary logs the base
# seed and every trial's derived seed, so any failure replays with
#   tools/crash_harness.sh -n 1 -s <base_seed>   # plus the trial offset
#
# A failing trial keeps its scratch directory and prints `ARTIFACT
# <dir>`; the harness copies every such directory (plus the full log)
# into the artifact directory for upload.
#
# Usage: tools/crash_harness.sh [-b build_dir] [-n trials] [-s seed]
#                               [-o artifact_dir]
set -euo pipefail

BUILD_DIR=build
TRIALS=200
SEED="${I2A_FAILPOINT_SEED:-20260808}"
ARTIFACT_DIR=""

while getopts "b:n:s:o:h" opt; do
  case "$opt" in
    b) BUILD_DIR="$OPTARG" ;;
    n) TRIALS="$OPTARG" ;;
    s) SEED="$OPTARG" ;;
    o) ARTIFACT_DIR="$OPTARG" ;;
    h) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) exit 2 ;;
  esac
done

BIN="$BUILD_DIR/tests/test_recovery"
if [[ ! -x "$BIN" ]]; then
  echo "crash_harness: $BIN not built (cmake --build $BUILD_DIR first)" >&2
  exit 2
fi
ARTIFACT_DIR="${ARTIFACT_DIR:-$BUILD_DIR/crash-artifacts}"
LOG="$(mktemp /tmp/i2a-crash-harness-XXXXXX.log)"

echo "crash_harness: $TRIALS trials, seed $SEED, binary $BIN"
status=0
"$BIN" --trials "$TRIALS" --seed "$SEED" 2>&1 | tee "$LOG" || status=$?

if [[ $status -ne 0 ]]; then
  mkdir -p "$ARTIFACT_DIR"
  cp "$LOG" "$ARTIFACT_DIR/harness.log"
  while IFS= read -r dir; do
    [[ -d "$dir" ]] && cp -r "$dir" "$ARTIFACT_DIR/"
  done < <(sed -n 's/^ARTIFACT //p' "$LOG")
  echo "crash_harness: FAILED (seed $SEED) — artifacts in $ARTIFACT_DIR" >&2
  rm -f "$LOG"
  exit 1
fi

rm -f "$LOG"
echo "crash_harness: OK — $TRIALS trials recovered byte-identical (seed $SEED)"
