#!/usr/bin/env bash
# Repo health check: full test suite, a CLI smoke, and the guard that
# instrumentation stays a no-op while disabled.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src

# Every foreground step runs under a hard wall-clock cap: a wedged step
# (a hung server, a deadlocked pool) fails the gate instead of hanging
# it forever.  Override per-run with STEP_TIMEOUT=<seconds>.
STEP_TIMEOUT="${STEP_TIMEOUT:-1200}"
step() { timeout --kill-after=15 "$STEP_TIMEOUT" "$@"; }

echo "== tests =="
step python -m pytest -x -q

echo "== cli smoke (table1) =="
step python -m repro table1 > /dev/null
echo "ok"

echo "== disabled-overhead guard =="
step python -m pytest -q tests/test_obs.py -k disabled

echo "== bench gate: fresh BENCH_*.json vs stored baseline =="
step python scripts/bench_gate.py

echo "== resilience smoke: injected fault must fail the verifier =="
step python -m repro faults verilog-initial --smoke

echo "== resilience smoke: checkpointed fig1 kill -> torn tail -> resume -> identical =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
step python -m repro fig1 > "$tmp/fresh.txt"
if step env REPRO_ABORT_AFTER=4 python -m repro fig1 \
    --checkpoint "$tmp/ck.jsonl" > /dev/null 2> "$tmp/interrupt.log"; then
  echo "expected the interrupted sweep to exit non-zero" >&2
  exit 1
fi
test -s "$tmp/ck.jsonl"
# A SIGKILL mid-append leaves the last record cut: resume must drop it
# and measure that design again.
step python - "$tmp/ck.jsonl" <<'EOF'
import sys
path = sys.argv[1]
data = open(path, "rb").read()
start = data.rstrip(b"\n").rfind(b"\n") + 1
open(path, "wb").write(data[:start + (len(data) - start) // 2])
EOF
cp "$tmp/ck.jsonl" "$tmp/ck_torn.jsonl"
step python -m repro fig1 \
    --checkpoint "$tmp/ck.jsonl" --resume > "$tmp/resumed.txt"
cmp "$tmp/fresh.txt" "$tmp/resumed.txt"
# --metrics adds a "wrote metrics" line to stdout, so it runs on its own.
step python -m repro fig1 --checkpoint "$tmp/ck_torn.jsonl" --resume \
    --metrics "$tmp/torn_metrics.json" > /dev/null
step python - "$tmp/torn_metrics.json" <<'EOF'
import json, sys
payload = json.load(open(sys.argv[1]))
torn = payload["metrics"]["counters"].get("log.torn", 0)
assert torn == 1, f"expected one torn checkpoint record, got {torn}"
print(f"log.torn = {torn}")
EOF
echo "ok"

echo "== exec smoke: fig1 --jobs 2 byte-identical to serial =="
step python -m repro fig1 --jobs 2 > "$tmp/parallel.txt"
cmp "$tmp/fresh.txt" "$tmp/parallel.txt"
# One task per worker process: every slot re-forks after each task.
step python -m repro fig1 --jobs 2 --max-tasks-per-child 1 \
    > "$tmp/recycled.txt"
cmp "$tmp/fresh.txt" "$tmp/recycled.txt"
echo "ok"

echo "== recipe smoke: a warm fig1 --jobs 2 builds no design, output identical =="
step python -m repro fig1 --jobs 2 --cache "$tmp/fig1_cache" > "$tmp/fig1_cold.txt"
cmp "$tmp/fresh.txt" "$tmp/fig1_cold.txt"
step python -m repro fig1 --jobs 2 --cache "$tmp/fig1_cache" \
    --trace "$tmp/fig1_warm.jsonl" > "$tmp/fig1_warm.txt"
# --trace appends one "wrote N trace records" line to stdout.
grep -v '^wrote [0-9]* trace records to ' "$tmp/fig1_warm.txt" \
    | cmp "$tmp/fig1_cold.txt" -
step python - "$tmp/fig1_warm.jsonl" <<'EOF'
import json, sys
names = [json.loads(line)["name"] for line in open(sys.argv[1])]
builds = names.count("frontend.build")
tasks = names.count("exec.task")
assert tasks == 30, f"expected 30 worker exec.task spans, got {tasks}"
assert builds == 0, f"expected no frontend.build on a warm fig1, got {builds}"
print(f"frontend.build = {builds}, exec.task = {tasks}")
EOF
step python -m repro list > "$tmp/list.txt"
printf '%s\n' bambu-initial bambu-opt bsv-initial bsv-opt chisel-initial \
    chisel-opt maxj-initial maxj-opt verilog-initial verilog-opt \
    vivado-hls-initial vivado-hls-opt xls-s0 xls-s8 | cmp - "$tmp/list.txt"
echo "ok"

echo "== engine smoke: verify --engine batch (and --engine interp) byte-identical to compiled =="
step python -m repro engines > /dev/null
# Sweeps measure on the compiled engine only, so the one-lane batch
# engine is compared here on every streamed design (all but MaxJ): three
# C-HLS points hold memories, which it keeps as one list per lane, and
# xls-s8 and vivado-hls-opt carry the widest buses (768 and 1024 bits),
# which it splits into lane fields even at one lane.
for design in $(grep -v '^maxj-' "$tmp/list.txt"); do
  step python -m repro verify "$design" --engine compiled > "$tmp/verify_c.txt"
  step python -m repro verify "$design" --engine batch > "$tmp/verify_b.txt"
  cmp "$tmp/verify_c.txt" "$tmp/verify_b.txt"
done
# The reference interpreter runs no emitted code, so it checks the
# compiled engine's inline signed arithmetic; bsv-initial has the most
# sign extensions.
for design in verilog-opt xls-s8 vivado-hls-opt bsv-initial; do
  step python -m repro verify "$design" --engine compiled > "$tmp/verify_c.txt"
  step python -m repro verify "$design" --engine interp > "$tmp/verify_i.txt"
  cmp "$tmp/verify_c.txt" "$tmp/verify_i.txt"
done
echo "ok"

echo "== lane smoke: 16-lane sim/batch idct equals the model engine =="
# On every streamed design (all but MaxJ), two requests per engine with
# different blocks: 37 IEEE 1180 blocks fill two rounds of 16 lanes and
# part of a third, then 21 more.  The sim and batch engines share the
# design's one 16-lane simulator, so every request after the first
# starts from the partition state the previous one left in its tick.
step python - "$tmp/list.txt" <<'EOF'
import sys

from repro.api import Session
from repro.eval.verify import random_matrices

session = Session()
requests = [[[list(row) for row in m] for m in random_matrices(n, seed=seed)]
            for n, seed in ((37, 1), (21, 2))]
designs = [name for name in open(sys.argv[1]).read().split()
           if not name.startswith("maxj-")]
assert len(designs) == 12, designs
for design in designs:
    for blocks in requests:
        want = session.idct(design, blocks, engine="model")
        for engine in ("sim", "batch"):
            got = session.idct(design, blocks, engine=engine)
            assert got == want, f"{design} engine {engine} differs from model"
    print(f"{design}: sim, batch == model on "
          f"{' then '.join(str(len(b)) for b in requests)} blocks")
EOF
echo "ok"

echo "== cache smoke: warm table2 run identical, with cache hits =="
step python -m repro table2 --cache "$tmp/cache" > "$tmp/t2_cold.txt"
step python -m repro table2 --cache "$tmp/cache" > "$tmp/t2_warm.txt"
cmp "$tmp/t2_cold.txt" "$tmp/t2_warm.txt"
step python -m repro table2 --cache "$tmp/cache" \
    --metrics "$tmp/t2_metrics.json" > /dev/null
step python - "$tmp/t2_metrics.json" <<'EOF'
import json, sys
payload = json.load(open(sys.argv[1]))
hits = payload["metrics"]["counters"].get("cache.hits", 0)
assert hits > 0, f"expected warm-cache hits, got {hits}"
print(f"cache.hits = {hits}")
EOF
echo "ok"

echo "== elaborate-once smoke: cache-less table2 identical, one netlist per point =="
step python -m repro table2 > "$tmp/t2_nocache.txt"
cmp "$tmp/t2_cold.txt" "$tmp/t2_nocache.txt"
# --metrics adds a "wrote metrics" line to stdout, so it runs on its own.
step python -m repro table2 --metrics "$tmp/t2_nocache_metrics.json" > /dev/null
step python - "$tmp/t2_nocache_metrics.json" <<'EOF'
import json, sys
payload = json.load(open(sys.argv[1]))
counters = payload["metrics"]["counters"]
runs = counters.get("elaborate.runs", 0)
assert runs == 14, f"expected 14 elaborations (one per design point), got {runs}"
compiles = counters.get("sim.compile.netlists", 0)
assert compiles == 14, f"expected 14 scalar compilations (one per design point), got {compiles}"
print(f"elaborate.runs = {runs}, sim.compile.netlists = {compiles}")
EOF
echo "ok"

echo "== serve smoke: live service vs CLI, batching, cache hits, drain =="
python -m repro serve --port 0 --cache "$tmp/cache" \
    --warm verilog-initial --batch-wait-ms 50 > "$tmp/serve.out" &
serve_pid=$!
trap 'kill "$serve_pid" 2> /dev/null || true; rm -rf "$tmp"' EXIT
for _ in $(seq 1 600); do
  grep -q '^serving on ' "$tmp/serve.out" && break
  if ! kill -0 "$serve_pid" 2> /dev/null; then
    echo "serve process died during startup" >&2
    cat "$tmp/serve.out" >&2
    exit 1
  fi
  sleep 0.5
done
addr="$(sed -n 's/^serving on //p' "$tmp/serve.out" | head -n 1)"
test -n "$addr"
step python -m repro measure verilog-initial --cache "$tmp/cache" --json \
    > "$tmp/measure_cli.json" 2> /dev/null
step python - "$addr" "$tmp" <<'EOF'
import json, sys, urllib.request
from concurrent.futures import ThreadPoolExecutor

base = "http://" + sys.argv[1]
tmp = sys.argv[2]

def post(path, payload):
    req = urllib.request.Request(base + path, data=json.dumps(payload).encode())
    with urllib.request.urlopen(req, timeout=300) as resp:
        return resp.status, resp.read()

with urllib.request.urlopen(base + "/healthz", timeout=60) as resp:
    health = json.load(resp)
assert health["status"] == "ok", health

# /v1/measure must be byte-identical to `measure --json` on the same cache
status, body = post("/v1/measure", {"design": "verilog-initial"})
assert status == 200
cli = open(tmp + "/measure_cli.json", "rb").read()
assert body == cli, "service and CLI measure outputs differ"

# a concurrent burst of single-block requests must coalesce
from repro.eval.verify import random_matrices
from repro.idct.reference import chen_wang_idct
blocks = [[list(r) for r in m] for m in random_matrices(8)]
with ThreadPoolExecutor(max_workers=8) as pool:
    results = list(pool.map(
        lambda b: post("/v1/idct", {"design": "verilog-initial",
                                    "blocks": [b]}), blocks))
for (status, body), block in zip(results, blocks):
    assert status == 200
    assert json.loads(body)["outputs"] == [chen_wang_idct(block)]

with urllib.request.urlopen(base + "/metrics", timeout=60) as resp:
    metrics = resp.read().decode()
lines = dict(line.split(" ", 1) for line in metrics.splitlines()
             if line and not line.startswith("#") and "{" not in line)
assert float(lines.get("repro_cache_hits", 0)) > 0, "expected warm-cache hits"
invocations = int(lines["repro_serve_sim_invocations"])
assert invocations < len(blocks), \
    f"{len(blocks)} requests should coalesce below {len(blocks)} invocations"
print(f"serve: cache.hits={lines['repro_cache_hits']}, "
      f"{len(blocks)} requests -> {invocations} invocations")
EOF
echo "ok"

echo "== obs smoke: live /v1/jobs/<id>/events stream covers every design =="
step python - "$addr" <<'EOF'
import json, sys, urllib.request

base = "http://" + sys.argv[1]

req = urllib.request.Request(
    base + "/v1/jobs", data=json.dumps({"kind": "fig1"}).encode())
with urllib.request.urlopen(req, timeout=60) as resp:
    job = json.load(resp)

# Stream the chunked NDJSON event feed while the sweep runs; the server
# ends the stream once the job is terminal and every event is delivered.
events = []
with urllib.request.urlopen(
        base + f"/v1/jobs/{job['id']}/events", timeout=600) as resp:
    assert resp.headers.get("Transfer-Encoding") == "chunked", \
        dict(resp.headers)
    for line in resp:
        events.append(json.loads(line))
assert events, "event stream was empty"

with urllib.request.urlopen(base + f"/v1/jobs/{job['id']}", timeout=60) as resp:
    done = json.load(resp)
assert done["status"] == "done", done

# Every design the job's trace measured must have a cell.done event.
with urllib.request.urlopen(
        base + f"/v1/traces/{done['trace']}", timeout=60) as resp:
    tree = json.load(resp)

def walk(spans):
    for span in spans:
        yield span
        yield from walk(span["children"])

measured = {span["attrs"].get("design") for span in walk(tree["spans"])
            if span["name"] == "measure"}
finished = {e.get("design") for e in events if e.get("type") == "cell.done"}
assert measured and measured <= finished, (sorted(measured - finished))

# A second GET replays the identical history after completion.
with urllib.request.urlopen(
        base + f"/v1/jobs/{job['id']}/events", timeout=60) as resp:
    replay = [json.loads(line) for line in resp]
assert replay == events, (len(replay), len(events))
print(f"obs: {len(events)} events streamed, "
      f"{len(finished)} designs finished, replay identical")
EOF
kill -TERM "$serve_pid"
wait "$serve_pid"
echo "ok"

echo "== chaos smoke: seeded kills and cache rot leave output honest =="
step python -m repro chaos worker-kill --seed 3
step python -m repro chaos cache-rot --seed 3
step python -m repro chaos serve-kill --seed 3
step python -m repro fig1 --jobs 2 --chaos 'seed=3,kill=0.7' > "$tmp/chaotic.txt"
cmp "$tmp/fresh.txt" "$tmp/chaotic.txt"
echo "ok"

echo "== serve journal smoke: SIGKILL mid-job -> interrupted -> resumed =="
start_journal_server() {
  : > "$tmp/journal_serve.out"
  python -m repro serve --port 0 --journal "$tmp/jobs.jsonl" "$@" \
      > "$tmp/journal_serve.out" &
  journal_pid=$!
  for _ in $(seq 1 600); do
    grep -q '^serving on ' "$tmp/journal_serve.out" && return 0
    if ! kill -0 "$journal_pid" 2> /dev/null; then
      echo "journaled serve process died during startup" >&2
      cat "$tmp/journal_serve.out" >&2
      return 1
    fi
    sleep 0.5
  done
  return 1
}
journal_addr() {
  sed -n 's/^serving on //p' "$tmp/journal_serve.out" | head -n 1
}
start_journal_server
trap 'kill "$journal_pid" 2> /dev/null || true; rm -rf "$tmp"' EXIT
step python - "$(journal_addr)" <<'EOF'
import json, urllib.request, sys
req = urllib.request.Request(
    "http://" + sys.argv[1] + "/v1/jobs",
    data=json.dumps({"kind": "fig1"}).encode())
with urllib.request.urlopen(req, timeout=60) as resp:
    job = json.load(resp)
assert job["id"] == "job-1" and job["status"] in ("queued", "running"), job
EOF
sleep 1  # let the job start running before the crash
kill -9 "$journal_pid"
wait "$journal_pid" 2> /dev/null || true
test -s "$tmp/jobs.jsonl"
start_journal_server  # restart WITHOUT --resume-jobs: honest, not re-run
step python - "$(journal_addr)" <<'EOF'
import json, urllib.request, sys
with urllib.request.urlopen(
        "http://" + sys.argv[1] + "/v1/jobs", timeout=60) as resp:
    jobs = json.load(resp)["jobs"]
assert [j["id"] for j in jobs] == ["job-1"], jobs
assert jobs[0]["status"] == "interrupted", jobs
assert jobs[0]["interrupted"] is True, jobs
EOF
kill -TERM "$journal_pid"
wait "$journal_pid"
start_journal_server --resume-jobs  # now the lost job is re-run
step python - "$(journal_addr)" <<'EOF'
import json, time, urllib.request, sys
base = "http://" + sys.argv[1]
deadline = time.time() + 600
while time.time() < deadline:
    with urllib.request.urlopen(base + "/v1/jobs/job-1", timeout=60) as resp:
        job = json.load(resp)
    if job["status"] in ("done", "failed"):
        break
    time.sleep(0.5)
assert job["status"] == "done", job
assert job["interrupted"] is True, job  # history survives the re-run
assert "Design space exploration" in job["output"], job
EOF
kill -TERM "$journal_pid"
wait "$journal_pid"
echo "ok"

echo "== serve pool smoke: --workers 2 identical, survives worker SIGKILL =="
python -m repro serve --port 0 --warm verilog-initial \
    --batch-wait-ms 50 > "$tmp/pool1.out" &
pool1_pid=$!
python -m repro serve --port 0 --workers 2 --warm verilog-initial \
    --batch-wait-ms 50 --journal "$tmp/pool_jobs.jsonl" > "$tmp/pool2.out" &
pool2_pid=$!
trap 'kill "$pool1_pid" "$pool2_pid" 2> /dev/null || true; rm -rf "$tmp"' EXIT
for out in pool1.out pool2.out; do
  for _ in $(seq 1 600); do
    grep -q '^serving on ' "$tmp/$out" && break
    sleep 0.5
  done
  grep -q '^serving on ' "$tmp/$out" || {
    echo "pool smoke server ($out) never came up" >&2
    cat "$tmp/$out" >&2
    exit 1
  }
done
addr1="$(sed -n 's/^serving on //p' "$tmp/pool1.out" | head -n 1)"
addr2="$(sed -n 's/^serving on //p' "$tmp/pool2.out" | head -n 1)"
step python - "$addr1" "$addr2" <<'EOF'
import json, os, signal, sys, time, urllib.request
from concurrent.futures import ThreadPoolExecutor

single = "http://" + sys.argv[1]   # --workers 1
pooled = "http://" + sys.argv[2]   # --workers 2

def post(base, path, payload):
    req = urllib.request.Request(base + path,
                                 data=json.dumps(payload).encode())
    with urllib.request.urlopen(req, timeout=300) as resp:
        return resp.status, resp.read()

def get_json(base, path):
    with urllib.request.urlopen(base + path, timeout=60) as resp:
        return json.load(resp)

# 1. the same coalesced burst must be byte-identical across both tiers
from repro.eval.verify import random_matrices
blocks = [[list(r) for r in m] for m in random_matrices(8)]

def burst(base):
    with ThreadPoolExecutor(max_workers=8) as pool:
        return list(pool.map(
            lambda b: post(base, "/v1/idct",
                           {"design": "verilog-initial", "blocks": [b]}),
            blocks))

for (s1, b1), (s2, b2) in zip(burst(single), burst(pooled)):
    assert s1 == s2 == 200, (s1, s2)
    assert b1 == b2, "pooled response body differs from single-process"

# 2. /healthz exposes both forked workers
workers = get_json(pooled, "/healthz")["workers"]
assert len(workers) == 2, workers
assert all(w["state"] in ("idle", "busy") for w in workers), workers

# 3. SIGKILL one evaluator worker while a journaled sweep job runs: the
# job (parent compute thread) must finish, and the pool must respawn.
status, body = post(pooled, "/v1/jobs", {"kind": "fig1"})
assert status == 202, (status, body)
job = json.loads(body)
os.kill(workers[0]["pid"], signal.SIGKILL)
deadline = time.time() + 600
while time.time() < deadline:
    job = get_json(pooled, f"/v1/jobs/{job['id']}")
    if job["status"] in ("done", "failed"):
        break
    time.sleep(0.5)
assert job["status"] == "done", job

# 4. the burst still answers correctly and the restart is on the books
for (s1, b1), (s2, b2) in zip(burst(single), burst(pooled)):
    assert s1 == s2 == 200 and b1 == b2
deadline = time.time() + 120
restarts = 0.0
while time.time() < deadline:
    with urllib.request.urlopen(pooled + "/metrics", timeout=60) as resp:
        lines = dict(
            line.split(" ", 1) for line in resp.read().decode().splitlines()
            if line and not line.startswith("#") and "{" not in line)
    restarts = float(lines.get("repro_serve_worker_restarts", 0))
    if restarts > 0:
        break
    time.sleep(0.5)
assert restarts > 0, "worker SIGKILL was never noticed/respawned"
print(f"pool: burst identical across tiers, job {job['id']} done, "
      f"worker restarts = {restarts:g}")
EOF
kill -TERM "$pool1_pid" "$pool2_pid"
wait "$pool1_pid"
wait "$pool2_pid"
echo "ok"

echo "== fabric smoke: fig1 --fabric over 2 pull-workers byte-identical =="
: > "$tmp/fabric_serve.out"
python -m repro serve --port 0 --journal "$tmp/fabric_jobs.jsonl" \
    > "$tmp/fabric_serve.out" &
fabric_pid=$!
trap 'kill "$fabric_pid" 2> /dev/null || true; rm -rf "$tmp"' EXIT
for _ in $(seq 1 600); do
  grep -q '^serving on ' "$tmp/fabric_serve.out" && break
  if ! kill -0 "$fabric_pid" 2> /dev/null; then
    echo "fabric master died during startup" >&2
    cat "$tmp/fabric_serve.out" >&2
    exit 1
  fi
  sleep 0.5
done
fabric_addr="$(sed -n 's/^serving on //p' "$tmp/fabric_serve.out" | head -n 1)"
test -n "$fabric_addr"
# --once: each pull-worker exits after its first idle poll that follows
# completed work, and a clean exit retires only that worker's slot, so
# the fleet must exit 0 on its own without stranding a sibling's lease.
timeout --kill-after=15 300 python -m repro work --master "$fabric_addr" \
    --parallel 2 --once &
work_pid=$!
trap 'kill "$fabric_pid" "$work_pid" 2> /dev/null || true; rm -rf "$tmp"' EXIT
step python -m repro fig1 --fabric "$fabric_addr" > "$tmp/fabric.txt"
cmp "$tmp/fresh.txt" "$tmp/fabric.txt"
wait "$work_pid"
step python - "$fabric_addr" <<'EOF'
import sys, urllib.request
with urllib.request.urlopen(
        "http://" + sys.argv[1] + "/metrics", timeout=60) as resp:
    lines = dict(line.split(" ", 1)
                 for line in resp.read().decode().splitlines()
                 if line and not line.startswith("#") and "{" not in line)
leases = float(lines.get("repro_fabric_leases", 0))
expiries = float(lines.get("repro_fabric_expiries", -1))
assert leases > 0, "sweep completed without any fabric leases on the books"
assert expiries == 0, f"{expiries:g} leases expired in a clean fabric run"
print(f"fabric: leases = {leases:g}, expiries = {expiries:g}")
EOF
kill -TERM "$fabric_pid"
wait "$fabric_pid"
echo "ok"

echo "== chaos smoke: fabric workers SIGKILLed mid-lease stay honest =="
step python -m repro chaos fabric-kill --seed 3
echo "ok"

echo "== qos smoke: throttled heavy tenant, light tenant still completes =="
cat > "$tmp/keys.json" <<'EOF'
{
  "tenants": {
    "heavy": {"weight": 4, "rate_per_s": 1, "burst": 1, "priority": 5}
  },
  "keys": {"secret-heavy": "heavy"}
}
EOF
: > "$tmp/qos_serve.out"
python -m repro serve --port 0 --api-keys "$tmp/keys.json" \
    > "$tmp/qos_serve.out" &
qos_pid=$!
trap 'kill "$qos_pid" 2> /dev/null || true; rm -rf "$tmp"' EXIT
for _ in $(seq 1 600); do
  grep -q '^serving on ' "$tmp/qos_serve.out" && break
  if ! kill -0 "$qos_pid" 2> /dev/null; then
    echo "qos serve process died during startup" >&2
    cat "$tmp/qos_serve.out" >&2
    exit 1
  fi
  sleep 0.5
done
qos_addr="$(sed -n 's/^serving on //p' "$tmp/qos_serve.out" | head -n 1)"
test -n "$qos_addr"
step python - "$qos_addr" "$tmp" <<'EOF'
import json, sys, time, urllib.error, urllib.request

base = "http://" + sys.argv[1]
tmp = sys.argv[2]
fresh = open(tmp + "/fresh.txt", "r", encoding="utf-8").read()

def post(path, payload, key=None):
    headers = {"X-Api-Key": key} if key else {}
    req = urllib.request.Request(base + path,
                                 data=json.dumps(payload).encode(),
                                 headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=300) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()

# an unknown key is a 403, never a silent anon demotion
status, _, _ = post("/v1/idct",
                    {"design": "verilog-initial",
                     "blocks": [[[0] * 8 for _ in range(8)]]},
                    key="no-such-key")
assert status == 403, status

# the heavy tenant saturates its 1 req/s token bucket: the flood must
# see at least one success and at least one 429 with a Retry-After
statuses = []
retry_after = None
for _ in range(5):
    status, headers, _ = post(
        "/v1/idct", {"design": "verilog-initial",
                     "blocks": [[[0] * 8 for _ in range(8)]]},
        key="secret-heavy")
    statuses.append(status)
    if status == 429 and retry_after is None:
        retry_after = headers.get("Retry-After")
assert 200 in statuses, statuses
assert 429 in statuses, statuses
assert retry_after is not None and int(retry_after) >= 1, retry_after

# the light (anonymous) tenant's job still completes under the flood,
# and its output is byte-identical to the CLI's clean run
status, _, body = post("/v1/jobs", {"kind": "fig1"})
assert status == 202, (status, body)
job = json.loads(body)
assert job["tenant"] == "anon" and job["priority"] == 0, job
deadline = time.time() + 600
while time.time() < deadline:
    with urllib.request.urlopen(base + f"/v1/jobs/{job['id']}",
                                timeout=60) as resp:
        job = json.load(resp)
    if job["status"] in ("done", "failed"):
        break
    time.sleep(0.5)
assert job["status"] == "done", job
# the CLI prints the render (adding one trailing newline); the job
# stores the raw render text — account for exactly that one byte
assert job["output"] + "\n" == fresh, \
    "served job output differs from the CLI run"

# per-tenant throttle counters are on the books (and pre-registered
# series render as honest zeros for tenants that were never throttled)
with urllib.request.urlopen(base + "/metrics", timeout=60) as resp:
    metrics = resp.read().decode()
series = dict(line.rsplit(" ", 1) for line in metrics.splitlines()
              if line and not line.startswith("#"))
throttled = float(series.get('repro_qos_throttled{tenant="heavy"}', 0))
assert throttled > 0, "heavy tenant was throttled but /metrics shows none"
assert 'repro_qos_preemptions{tenant="heavy"}' in series, \
    "per-tenant qos series not pre-registered"
print(f"qos: flood statuses {statuses}, Retry-After {retry_after}, "
      f"throttled[heavy] = {throttled:g}, light job done byte-identical")
EOF
kill -TERM "$qos_pid"
wait "$qos_pid"
echo "ok"

echo "== chaos smoke: tenant storm preempts and resumes byte-identical =="
step python -m repro chaos qos-storm --seed 3
echo "ok"

echo "all checks passed"
