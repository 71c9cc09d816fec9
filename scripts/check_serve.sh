#!/usr/bin/env bash
# End-to-end check of the job server (DESIGN.md §13): a real ckp_serve
# process fed real batches, asserting the three serve guarantees the unit
# tests can only approximate in-process:
#
#   1. mixed batch — ≥3 distinct algorithms complete concurrently on the
#      server's workers, plus one deadline-exceeding spin job that must be
#      cancelled at a round barrier (cancelled=true, stop=deadline).
#   2. crash safety — SIGKILL the server mid-batch, restart it on the same
#      store; the store is uncorrupted (every artifact either absent or
#      well-formed) and the rerun completes normally.
#   3. memo replay — resubmitting the completed jobs to a fresh server on
#      the same store is served entirely from the memo: every response says
#      memo:"hit", serve.engine_rounds_total stays 0, and the replayed
#      RunRecord lines are byte-identical to the first run's.
#
# A socket-mode leg drives the same protocol through ckp_serve_client over
# an AF_UNIX socket, and the next leg runs TWO clients concurrently against
# one server process: both finish, and each client receives exactly its own
# jobs' responses (the shared-JobServer client routing, end to end). Leg 6
# sends a 2 MiB request line: the server answers it with one error, skips
# it, and serves the next line. Leg 7 opens and closes 50 connections one
# after another: the server joins each finished reader thread, so its
# thread count and its mapped memory stay flat. Leg 8 pipes 280 jobs to one
# worker: pipe mode blocks its reader while the queue is full, so every job
# completes and none is rejected.
#
#   scripts/check_serve.sh [BUILD_DIR]
set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

cmake --build "$BUILD_DIR" -j --target ckp_serve_bin ckp_serve_client \
  >/dev/null
SERVE="$BUILD_DIR/tools/ckp_serve"
CLIENT="$BUILD_DIR/tools/ckp_serve_client"

# The three completing jobs resubmitted in leg 3. sinkless/spin stay out of
# this set: incomplete runs are (correctly) never memoized.
COMPLETING_JOBS='{"op":"run","id":"m1","algo":"luby","graph":{"family":"random_regular","n":2000,"d":4,"gseed":3},"seed":7}
{"op":"run","id":"m2","algo":"greedy","graph":{"family":"cycle","n":4096},"seed":1}
{"op":"run","id":"m3","algo":"plus_one","graph":{"family":"complete_tree","n":1093,"d":3},"seed":5}'

echo "== 1/8 mixed batch with a deadline-exceeding job"
{
  echo "$COMPLETING_JOBS"
  # spin never halts; only the 150ms deadline ends it — at a round barrier.
  echo '{"op":"run","id":"dl","algo":"spin","graph":{"family":"cycle","n":512},"max_rounds":1048576,"deadline_ms":150}'
  echo '{"op":"stats"}'
  echo '{"op":"shutdown"}'
} | "$SERVE" --workers=4 --store_dir="$WORK/store" >"$WORK/batch1.out"

python3 - "$WORK/batch1.out" <<'EOF'
import json, sys
done = {}
for line in open(sys.argv[1]):
    doc = json.loads(line)
    if doc.get("done"):
        done[doc["id"]] = doc
for jid in ("m1", "m2", "m3"):
    d = done[jid]
    assert not d["cancelled"], (jid, d)
    assert d["record"]["verified"], (jid, d)
dl = done["dl"]
assert dl["cancelled"] and dl["stop"] == "deadline", dl
# Cancelled at a round barrier: the partial record is intact, with a round
# count strictly under the requested cap.
assert 0 <= dl["record"]["rounds"] < 1048576, dl
print(f"   4/4 jobs terminal; deadline job stopped at round "
      f"{dl['record']['rounds']}")
EOF

echo "== 2/8 SIGKILL mid-batch, restart on the same store"
# Long-ish jobs so the kill lands mid-run; managed by PID (never pkill — a
# pattern match can catch the invoking shell itself).
{
  echo "$COMPLETING_JOBS"
  echo '{"op":"run","id":"slow","algo":"spin","graph":{"family":"cycle","n":4096},"max_rounds":1048576,"no_memo":true}'
} >"$WORK/kill_batch.jsonl"
"$SERVE" --workers=2 --store_dir="$WORK/kill_store" \
  <"$WORK/kill_batch.jsonl" >"$WORK/kill.out" 2>/dev/null &
SRV=$!
sleep 0.3
kill -KILL "$SRV" 2>/dev/null || true
wait "$SRV" 2>/dev/null || true
echo "   killed pid $SRV with $(ls "$WORK/kill_store" 2>/dev/null | wc -l) artifact(s) committed"
# Restart on the same store: every surviving artifact must be readable (the
# store commits atomically, so a torn write never becomes an artifact), and
# the rerun must complete all completing jobs.
{
  echo "$COMPLETING_JOBS"
  echo '{"op":"shutdown"}'
} | "$SERVE" --workers=2 --store_dir="$WORK/kill_store" >"$WORK/kill_rerun.out"
python3 - "$WORK/kill_rerun.out" <<'EOF'
import json, sys
done = {json.loads(l)["id"]: json.loads(l) for l in open(sys.argv[1])
        if json.loads(l).get("done")}
assert len(done) == 3, done
for jid, d in done.items():
    assert d["record"]["verified"], (jid, d)
    assert d["memo"] in ("hit", "miss"), d  # never corrupt-served garbage
print("   restart on killed store: 3/3 jobs verified, store readable")
EOF

echo "== 3/8 memo replay: byte-identical records, zero engine rounds"
{
  echo "$COMPLETING_JOBS"
  echo '{"op":"stats"}'
  echo '{"op":"shutdown"}'
} | "$SERVE" --workers=4 --store_dir="$WORK/store" >"$WORK/batch2.out"
python3 - "$WORK/batch1.out" "$WORK/batch2.out" <<'EOF'
import json, sys
def records(path):
    recs, stats = {}, None
    for line in open(path):
        doc = json.loads(line)
        if doc.get("done"):
            # Byte-identity is asserted on the raw record text, not the
            # parsed dict: re-serialization could mask drift.
            raw = line[line.index('"record":') + 9:].rstrip()
            recs[doc["id"]] = (doc["memo"], raw[:-1])
        elif "stats" in doc:
            stats = doc["stats"]
    return recs, stats
first, _ = records(sys.argv[1])
second, stats = records(sys.argv[2])
for jid in ("m1", "m2", "m3"):
    assert second[jid][0] == "hit", (jid, second[jid][0])
    assert first[jid][1] == second[jid][1], f"{jid}: record bytes differ"
assert stats.get("serve.engine_rounds_total", 0) == 0, stats
print("   3/3 memo hits, records byte-identical, engine_rounds_total=0")
EOF

echo "== 4/8 socket mode through ckp_serve_client"
SOCK="$WORK/serve.sock"
"$SERVE" --workers=2 --store_dir="$WORK/store" --socket="$SOCK" \
  >"$WORK/sock_server.out" 2>&1 &
SRV=$!
for _ in $(seq 1 100); do
  [[ -S "$SOCK" ]] && break
  sleep 0.05
done
[[ -S "$SOCK" ]] || { echo "FAIL: server socket never appeared"; exit 1; }
printf '%s\n{"op":"stats"}\n' "$COMPLETING_JOBS" \
  | "$CLIENT" --socket="$SOCK" --quiet
echo '{"op":"shutdown"}' | "$CLIENT" --socket="$SOCK" --quiet
wait "$SRV"
echo "   client batch served over AF_UNIX; clean shutdown"

echo "== 5/8 two concurrent clients, one shared server"
SOCK="$WORK/multi.sock"
"$SERVE" --workers=4 --store_dir="$WORK/multi_store" --socket="$SOCK" \
  >"$WORK/multi_server.out" 2>&1 &
SRV=$!
for _ in $(seq 1 100); do
  [[ -S "$SOCK" ]] && break
  sleep 0.05
done
[[ -S "$SOCK" ]] || { echo "FAIL: server socket never appeared"; exit 1; }
# Disjoint id sets per client; no_memo so both genuinely execute (ids a1/b1
# share semantics — a memo hit would still be a correct terminal response,
# but this leg is about routing live results).
{
  echo '{"op":"run","id":"a1","algo":"luby","graph":{"family":"cycle","n":4096},"seed":2,"no_memo":true}'
  echo '{"op":"run","id":"a2","algo":"greedy","graph":{"family":"cycle","n":4096},"seed":3,"no_memo":true}'
  echo '{"op":"stats"}'
} | "$CLIENT" --socket="$SOCK" >"$WORK/client_a.out" &
CA=$!
{
  echo '{"op":"run","id":"b1","algo":"luby","graph":{"family":"cycle","n":4096},"seed":2,"no_memo":true}'
  echo '{"op":"run","id":"b2","algo":"plus_one","graph":{"family":"complete_tree","n":1093,"d":3},"seed":5,"no_memo":true}'
  echo '{"op":"stats"}'
} | "$CLIENT" --socket="$SOCK" >"$WORK/client_b.out" &
CB=$!
wait "$CA"
wait "$CB"
echo '{"op":"shutdown"}' | "$CLIENT" --socket="$SOCK" --quiet
wait "$SRV"
python3 - "$WORK/client_a.out" "$WORK/client_b.out" <<'EOF'
import json, sys
def parse(path):
    ids, stats = set(), 0
    for line in open(path):
        doc = json.loads(line)
        if "stats" in doc:
            stats += 1
        elif doc.get("done"):
            assert doc["record"]["verified"], doc
            ids.add(doc["id"])
        elif "id" in doc:
            ids.add(doc["id"])  # queued lines count as seen traffic too
    return ids, stats
a_ids, a_stats = parse(sys.argv[1])
b_ids, b_stats = parse(sys.argv[2])
# Routing: each client saw exactly its own jobs, nothing of the other's.
assert a_ids == {"a1", "a2"}, a_ids
assert b_ids == {"b1", "b2"}, b_ids
assert a_stats == 1 and b_stats == 1, (a_stats, b_stats)
print("   2 concurrent clients: 4/4 jobs verified, zero cross-client leakage")
EOF

echo "== 6/8 oversized request line, then a valid job"
# 2 MiB of 'x' with no newline inside, over the 1 MiB line cap; the newline
# that ends it is followed by a valid run and a shutdown.
python3 - >"$WORK/long.jsonl" <<'EOF'
import sys
sys.stdout.write("x" * (2 << 20) + "\n")
print('{"op":"run","id":"after","algo":"luby","graph":{"family":"cycle","n":512},"seed":3}')
print('{"op":"shutdown"}')
EOF
"$SERVE" --workers=2 <"$WORK/long.jsonl" >"$WORK/long.out"
python3 - "$WORK/long.out" <<'EOF'
import json, sys
docs = [json.loads(line) for line in open(sys.argv[1])]
assert "line longer than" in docs[0].get("error", ""), docs[0]
assert sum("error" in d for d in docs) == 1, docs
done = [d for d in docs if d.get("done")]
assert len(done) == 1 and done[0]["id"] == "after", done
assert done[0]["record"]["verified"], done[0]
assert docs[-1].get("shutdown") is True, docs[-1]
print("   oversized line answered with one error; next job verified; "
      "clean shutdown")
EOF

echo "== 7/8 50 connections opened and closed one after another"
SOCK="$WORK/reap.sock"
"$SERVE" --workers=2 --socket="$SOCK" >"$WORK/reap_server.out" 2>&1 &
SRV=$!
for _ in $(seq 1 100); do
  [[ -S "$SOCK" ]] && break
  sleep 0.05
done
[[ -S "$SOCK" ]] || { echo "FAIL: server socket never appeared"; exit 1; }
proc_status() { awk -v f="$1:" '$1 == f {print $2}' "/proc/$SRV/status"; }
echo '{"op":"stats"}' | "$CLIENT" --socket="$SOCK" --quiet
VM_FIRST="$(proc_status VmSize)"
for _ in $(seq 2 50); do
  echo '{"op":"stats"}' | "$CLIENT" --socket="$SOCK" --quiet
done
THREADS="$(proc_status Threads)"
VM_LAST="$(proc_status VmSize)"
echo '{"op":"shutdown"}' | "$CLIENT" --socket="$SOCK" --quiet
wait "$SRV"
# main + 2 workers + at most one reader not yet joined; an unjoined reader
# keeps its whole stack mapped, so 49 of them would add hundreds of MiB.
(( THREADS <= 2 + 3 )) || { echo "FAIL: $THREADS threads after 50 connections"; exit 1; }
(( VM_LAST - VM_FIRST < 65536 )) || {
  echo "FAIL: VmSize grew $(( (VM_LAST - VM_FIRST) / 1024 )) MiB over 49 connections"
  exit 1
}
echo "   50 sequential connections: $THREADS threads, VmSize +$(( (VM_LAST - VM_FIRST) / 1024 )) MiB"

echo "== 8/8 pipe mode waits for room instead of rejecting past the queue limit"
# 280 jobs into one worker and the default 64-job queue: the pipe reader has
# no client to retry for it, so it must block while the queue is full.
python3 - >"$WORK/flood.jsonl" <<'EOF'
for i in range(280):
    print('{"op":"run","id":"f%d","algo":"luby","graph":{"family":"cycle","n":64},"seed":%d}' % (i, i + 1))
EOF
"$SERVE" --workers=1 <"$WORK/flood.jsonl" >"$WORK/flood.out"
python3 - "$WORK/flood.out" <<'EOF'
import json, sys
docs = [json.loads(line) for line in open(sys.argv[1])]
errors = [d for d in docs if "error" in d]
assert not errors, f"{len(errors)} errors, first: {errors[0]}"
done = {d["id"] for d in docs if d.get("done")}
assert done == {"f%d" % i for i in range(280)}, len(done)
print(f"   280 piped jobs on 1 worker: {len(done)} done, 0 errors")
EOF

echo "check_serve OK"
