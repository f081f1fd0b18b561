#!/usr/bin/env bash
# Crash-injection sweep over the checkpoint/restore subsystem (DESIGN.md §7).
#
# For every windowing technique: record the result log of an uninterrupted
# checkpointed run, then for every barrier index n kill the process with
# SCOTTY_CRASH_AFTER=n (hard std::_Exit right after the n-th snapshot is
# persisted), resume from the newest snapshot on disk, and require the
# concatenated crashed+resumed log to match the reference.
#
# The match contract depends on the persistence mode (5th argument):
#   sync-full (default)  exactly-once: the concatenated log is byte-identical
#                        to the reference — no result lost, duplicated, or
#                        altered.
#   async-full /         at-least-once: the crash fires inside the persist
#   async-incremental    thread while ingestion runs ahead of the durable
#                        snapshot, so recovery replays a suffix the crashed
#                        run already logged. Required: every reference line
#                        appears in the concatenated log with at least its
#                        reference multiplicity (no loss), and every
#                        concatenated line exists somewhere in the reference
#                        (no alteration or invention).
#
# When a corpus directory is given (6th argument), every one-line
# reproducer in it is additionally replayed through the differential
# harness's fault-injected crash dimension (fuzz_differential --crash=-1),
# so the sweep exercises exactly the stream/query shapes the guided fuzzer
# found interesting — not just the fixed crash_injection workload.
#
# When every case passed, the sweep removes the files it wrote and then the
# work directory itself if nothing else is left in it; a failed case keeps
# its files for inspection.
#
# Usage: crash_sweep.sh <crash_injection_binary> [workdir] [tuples] [wm_every] [mode] [corpus_dir]

set -u

BIN=${1:?usage: crash_sweep.sh <crash_injection_binary> [workdir] [tuples] [wm_every] [mode] [corpus_dir]}
WORK=${2:-$(mktemp -d)}
TUPLES=${3:-4096}
WM_EVERY=${4:-256}
MODE=${5:-sync-full}
CORPUS=${6:-}
BARRIERS=$((TUPLES / WM_EVERY))

# Every technique in every mode: under async-incremental each one's delta
# records take a different path — the slicing techniques reference clean
# slices, the baselines write their full state, the keyed-parallel executor
# references clean keys from its worker thread — and recovery reads each
# record onto the previous barrier's operator.
TECHNIQUES="slicing-lazy slicing-eager slicing-inorder tuple-buffer aggregate-tree buckets keyed-parallel"

mkdir -p "$WORK"
failures=0
total=0

# check_logs <out> <ref>: 0 iff <out> matches <ref> under the mode's contract.
check_logs() {
  out=$1
  ref=$2
  if [ "$MODE" = "sync-full" ]; then
    cmp -s "$out" "$ref"
    return $?
  fi
  sort "$ref" > "$WORK/.ref.sorted"
  sort "$out" > "$WORK/.out.sorted"
  # No loss: reference lines missing from the output (multiset difference).
  if [ -n "$(comm -23 "$WORK/.ref.sorted" "$WORK/.out.sorted")" ]; then
    return 1
  fi
  # No alteration: output lines that never occur in the reference.
  sort -u "$WORK/.ref.sorted" -o "$WORK/.ref.sorted"
  sort -u "$WORK/.out.sorted" -o "$WORK/.out.sorted"
  if [ -n "$(comm -23 "$WORK/.out.sorted" "$WORK/.ref.sorted")" ]; then
    return 1
  fi
  return 0
}

for tech in $TECHNIQUES; do
  ref="$WORK/ref-$tech.log"
  rm -rf "$WORK/ref-dir-$tech"
  mkdir -p "$WORK/ref-dir-$tech"
  if ! "$BIN" --technique="$tech" --tuples="$TUPLES" --wm-every="$WM_EVERY" \
       --mode="$MODE" --dir="$WORK/ref-dir-$tech" --out="$ref" > /dev/null; then
    echo "FAIL: reference run for $tech did not complete"
    exit 1
  fi

  tech_failures=0
  for n in $(seq 1 "$BARRIERS"); do
    total=$((total + 1))
    dir="$WORK/crash-$tech-$n"
    out="$WORK/out-$tech-$n.log"
    rm -rf "$dir" "$out"
    mkdir -p "$dir"
    SCOTTY_CRASH_AFTER=$n "$BIN" --technique="$tech" --tuples="$TUPLES" \
        --wm-every="$WM_EVERY" --mode="$MODE" --dir="$dir" --out="$out" \
        > /dev/null
    rc=$?
    if [ "$rc" -eq 42 ]; then
      if ! "$BIN" --technique="$tech" --tuples="$TUPLES" \
           --wm-every="$WM_EVERY" --mode="$MODE" --dir="$dir" --out="$out" \
           --resume > /dev/null; then
        echo "FAIL: $tech crash=$n resume did not complete"
        tech_failures=$((tech_failures + 1))
        continue
      fi
    elif [ "$rc" -ne 0 ]; then
      echo "FAIL: $tech crash=$n run exited with $rc"
      tech_failures=$((tech_failures + 1))
      continue
    fi
    if ! check_logs "$out" "$ref"; then
      echo "FAIL: $tech crash=$n recovered log differs from reference ($MODE)"
      tech_failures=$((tech_failures + 1))
      continue
    fi
    rm -rf "$dir" "$out"
  done
  failures=$((failures + tech_failures))
  if [ "$tech_failures" -eq 0 ]; then
    echo "OK: $tech recovered at all $BARRIERS barriers ($MODE)"
  else
    echo "FAIL: $tech $tech_failures/$BARRIERS crash points failed ($MODE)"
  fi
done

# Corpus replay: run every reproducer line through the differential
# harness's crash dimension. fuzz_differential is expected to live next to
# the crash_injection binary (both build into build/tests/).
if [ -n "$CORPUS" ] && [ -d "$CORPUS" ]; then
  FUZZ="$(dirname "$BIN")/fuzz_differential"
  if [ ! -x "$FUZZ" ]; then
    echo "crash sweep: corpus dir given but $FUZZ not built" >&2
    exit 1
  fi
  replayed=0
  replay_failures=0
  for repro in "$CORPUS"/*.repro; do
    [ -e "$repro" ] || continue
    line=$(grep -v '^[[:space:]]*#' "$repro" | grep -v '^[[:space:]]*$' | head -n 1)
    [ -n "$line" ] || continue
    total=$((total + 1))
    replayed=$((replayed + 1))
    case "$line" in
      *--crash=*) extra="" ;;
      *) extra="--crash=-1" ;;
    esac
    # shellcheck disable=SC2086
    if ! "$FUZZ" $line $extra > /dev/null; then
      echo "FAIL: corpus crash replay $(basename "$repro")"
      replay_failures=$((replay_failures + 1))
    fi
  done
  failures=$((failures + replay_failures))
  if [ "$replay_failures" -eq 0 ]; then
    echo "OK: corpus crash replay ($replayed reproducers)"
  else
    echo "FAIL: corpus crash replay $replay_failures/$replayed reproducers failed"
  fi
fi

if [ "$failures" -ne 0 ]; then
  echo "crash sweep: $failures/$total cases FAILED"
  exit 1
fi
# Every case passed: remove what the sweep wrote (failed cases' files stay
# for inspection), and the work directory once nothing else is in it.
for tech in $TECHNIQUES; do
  rm -rf "$WORK/ref-$tech.log" "$WORK/ref-dir-$tech"
done
rm -f "$WORK/.ref.sorted" "$WORK/.out.sorted"
rmdir "$WORK" 2> /dev/null
echo "crash sweep: $total cases passed"
