#!/usr/bin/env bash
# Memory-lean scale smoke: one 10^6-node (n = 2^20) Δ-regular run of
# bench_scale, which runs every engine entry of the serve registry in one
# loop (luby, ghaffari, matching_rand, matching_det, plus_one, greedy,
# sinkless, and the Δ-colorings thm10/thm11 on a separate degree-16
# complete tree), with three hard gates:
#
#   * --assert-budget     — every entry must stay within its engine-side
#                           byte budget: CKP_BUDGET_BYTES (default 48
#                           bytes/node) for every algorithm, +4·Δ for
#                           port-aligned edge labels;
#   * peak-RSS ceiling    — the whole process (graph + generator + every
#                           engine run) must finish under CKP_RSS_CEILING_MB
#                           (default 512 MB), read back from the
#                           --metrics_out snapshot. At 10^6 nodes a
#                           regression to per-node pointer tables or cached
#                           environments blows through this immediately;
#   * roster coverage     — the --json_out records must hold exactly one
#                           engine record per enabled roster entry (the
#                           list below, or CKP_SCALE_ALGOS), so a loop that
#                           silently skips or repeats an entry fails.
#
# CKP_SCALE_ALGOS (comma-separated, e.g. "luby,greedy") restricts the roster
# for one-off investigations; the default gates everything.
#
#   scripts/check_scale.sh [BUILD_DIR]
set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

BIN="$BUILD_DIR/bench/bench_scale"
if [[ ! -x "$BIN" ]]; then
  cmake -B "$BUILD_DIR" -S . >/dev/null
  cmake --build "$BUILD_DIR" -j --target bench_scale
fi

EXP="${CKP_SCALE_EXP:-20}"
D="${CKP_SCALE_D:-3}"
THREADS="${CKP_THREADS:-$(nproc)}"
BUDGET="${CKP_BUDGET_BYTES:-48}"
CEILING_MB="${CKP_RSS_CEILING_MB:-512}"
ALGOS="${CKP_SCALE_ALGOS:-}"

# The registry's engine roster without spin (a serve fixture that never
# halts): what bench_scale runs when --algo is absent.
DEFAULT_ALGOS="luby,ghaffari,matching_rand,matching_det,plus_one,greedy,sinkless,thm10,thm11"

ALGO_FLAG=()
if [[ -n "$ALGOS" ]]; then
  ALGO_FLAG=(--algo="$ALGOS")
fi

METRICS="$(mktemp /tmp/scale_metrics.XXXXXX.json)"
RECORDS="$(mktemp /tmp/scale_records.XXXXXX.jsonl)"
trap 'rm -f "$METRICS" "$RECORDS"' EXIT

echo "== bench_scale n=2^$EXP d=$D threads=$THREADS (budget ${BUDGET} B/node, RSS ceiling ${CEILING_MB} MB)"
"$BIN" --min-exp="$EXP" --max-exp="$EXP" --d="$D" --seeds=1 \
  --assert-budget --budget-bytes="$BUDGET" \
  --threads="$THREADS" --metrics_out="$METRICS" --json_out="$RECORDS" \
  "${ALGO_FLAG[@]}"

python3 - "$METRICS" "$CEILING_MB" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    snapshot = json.load(f)
peak = snapshot["gauges"]["resource.peak_rss_bytes"]
ceiling = float(sys.argv[2]) * 1024 * 1024
print(f"peak RSS: {peak / 1e6:.1f} MB (ceiling {float(sys.argv[2]):.0f} MB)")
if peak <= 0:
    print("warning: peak RSS unavailable on this platform; skipping ceiling")
elif peak > ceiling:
    sys.exit(f"peak RSS {peak / 1e6:.1f} MB exceeds the ceiling")
EOF

python3 - "$RECORDS" "${ALGOS:-$DEFAULT_ALGOS}" "$EXP" "$D" <<'EOF'
import collections, json, sys
path, algos, exp, d = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
expected = set(algos.split(","))
# The randomized matching's proposal field caps m at 2^26 edges.
if d * 2 ** (exp - 1) >= 2 ** 26:
    expected.discard("matching_rand")
with open(path) as f:
    records = [json.loads(line) for line in f if line.strip()]
engine = collections.Counter(r["algorithm"] for r in records
                             if not r["algorithm"].startswith("generate_"))
print(f"engine records: {dict(engine)}")
off = {a: engine[a] for a in expected | set(engine) if engine[a] != (a in expected)}
if off:
    sys.exit(f"want one engine record per enabled roster entry; counts off: {off}")
EOF

echo "check_scale OK"
