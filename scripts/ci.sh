#!/usr/bin/env bash
# Repo CI gate: the benchmark's self-checks, then formatting, lints, build,
# and the full test suite. One path, no arguments, no network: the
# workspace depends on nothing outside this repository, and every cargo
# call says so with --offline --locked.
set -euo pipefail
cd "$(dirname "$0")/.."

# Benchmark leg: the generators must still produce the pinned inputs, and
# a short traced pass of both join workloads and of the small serving
# workload must pass every check the benchmark makes (brute-force sample
# bit-exact, serial = parallel = BNN byte for byte, every response the
# library's pairs). Seed 2: a seed nobody tunes against. (perf/ still
# patches in stand-ins for registry crates nothing declares any more, so
# its build rewrites perf/Cargo.lock with `[[patch.unused]]` entries; do
# not commit that.)
perf/run.sh --self-test
for workload in join2d_hot join10d_cold serve_small; do
  last=$(perf/run.sh --workload "$workload" --seed 2 --seconds 2 --trace 1 | tail -n 1)
  grep -Eq '^\{"correct": true, "attempted": [0-9]+, "failed": 0,' <<<"$last" ||
    { echo "ci: perf $workload did not end in correct: true, failed: 0" >&2; exit 1; }
done
# Tripwire, not a performance gate: a keep-alive `GET /health` round trip
# is ~50 us on loopback, and was 44 000 us while a response left as two
# TCP segments (DESIGN.md §14). 100x headroom; `last` is serve_small's.
python3 -c '
import json, sys
rtt = json.loads(sys.argv[1])["metrics"]["serve.http.health_rtt_us"]["value"]
assert rtt < 5000, f"GET /health takes {rtt:.0f} us: a response is stalling on the socket"
print(f"serve.http.health_rtt_us = {rtt:.0f}")
' "$last"
# The per-algorithm entrypoint fan is gone (DESIGN.md §16: one `run` per
# algorithm behind `query::run_scratch`); nothing may bring a deprecated
# shim, or a test that needs one, back.
if git grep -nE '#!?\[(allow\()?deprecated' -- crates src tests examples; then
  echo "ci: deprecated items or allow(deprecated) found outside perf/" >&2
  exit 1
fi

# How a tree reaches disk is written once (DESIGN.md §7): outside the
# store itself, only `ann_core::TreeFile` may open a journal, choose the
# plain or the versioned `Txn`, or retire node-cache keys after a commit.
writers="$(git grep -lE 'Txn::begin(_versioned)?\(|VersionedStore::(create|open)\(|Journal::(create|open)\(|\.retire_below\(|\.bump_epoch\(' \
  -- 'crates/*/src/*.rs' ':!crates/store/src' ':!crates/core/src/node_cache.rs' || true)"
if [ "$writers" != "crates/core/src/tree_file.rs" ]; then
  echo "ci: the writable-tree lifecycle has a second copy; it belongs in TreeFile" \
       "(crates/core/src/tree_file.rs), found in:" $writers >&2
  exit 1
fi
# So is its meta page (DESIGN.md §7): one codec for every kind. Nothing
# else reads or writes a tree's meta page or declares a kind's magic
# (`<KIND>v<N>\0`).
meta="$(git grep -lE 'with_page(_mut)?\([^)]*meta_page|b"[A-Z]+v[0-9]+\\0"' \
  -- 'crates/*/src/*.rs' || true)"
if [ "$meta" != "crates/core/src/tree_file.rs" ]; then
  echo "ci: a tree meta page is read, written or named outside TreeFile" \
       "(crates/core/src/tree_file.rs), found in:" $meta >&2
  exit 1
fi
# A query is described once (DESIGN.md §14): `QuerySpec` holds every
# knob, `AnnRequest` is a spec plus its attachments, and the worker count
# is the spec's `threads` alone — no second copy to convert to, no second
# count to resolve precedence against, no retry policy written to a pool.
mba_threads="$(git grep -lE 'Algorithm::Mba \{' -- crates src tests examples \
  | xargs -r grep -Plz 'Algorithm::Mba \{[^}]*\bthreads\b' || true)"
if git grep -nE 'effective_threads|RetryOverride|fn from_request|set_retry_policy' -- crates src tests examples \
   || [ -n "$mba_threads" ]; then
  echo "ci: QuerySpec is the one description of a query: a second copy, a second" \
       "worker-count knob or a pool-wide retry override is back" $mba_threads >&2
  exit 1
fi
# The kNN machinery is written once (DESIGN.md §11): every algorithm that
# probes an index's nodes does it through the node scan in `scan.rs` (the
# one caller of the batched MBR kernel), one best-first search seeds a
# `BestFirst` (MNN's), and one k-best set (`scratch.rs`) holds the
# canonical tie-break for BNN, HNN and GORDER.
probes="$(git grep -l 'min_min_dist_sq_batch(' -- crates/core/src crates/gorder/src \
  ':!crates/core/src/scan.rs' || true)"
seeds="$(git grep -c 'BestFirst::seeded' -- crates src tests examples \
  | awk -F: '{ n += $2 } END { print n + 0 }')"
offers="$(git grep -c 'fn offer(&mut self, dist_sq' -- crates \
  | awk -F: '{ n += $2 } END { print n + 0 }')"
if [ -n "$probes" ] || [ "$seeds" -gt 1 ] || [ "$offers" -gt 1 ]; then
  echo "ci: a second node probe or best-first search (it belongs in the node scan," \
       "crates/core/src/scan.rs) or a second k-best set (it belongs in" \
       "crates/core/src/scratch.rs): probes in [$probes], $seeds BestFirst::seeded" \
       "call sites, $offers k-best offers" >&2
  exit 1
fi
# The join path scores MIND for every entry and the pruning metric for
# survivors only (DESIGN.md §11): nothing there batch-evaluates NXNDIST.
nxn_batch="$(git grep -l 'nxn_dist_sq_batch(' -- crates/core/src crates/gorder/src || true)"
if [ -n "$nxn_batch" ]; then
  echo "ci: the join path batch-evaluates the pruning metric; the node scan" \
       "(crates/core/src/scan.rs) evaluates it per surviving entry:" $nxn_batch >&2
  exit 1
fi
# The Expand stage rejects a popped entry against the widest child
# threshold, taken once per probe round (DESIGN.md §11), not by asking
# every child LPQ on every popped entry.
if grep -n 'children.iter().all(' crates/core/src/mba.rs; then
  echo "ci: the Expand stage asks every child LPQ per popped entry again; compare" \
       "MIND with the widest child threshold (crates/core/src/mba.rs)" >&2
  exit 1
fi
# Every page layout is written with one codec (DESIGN.md §7): outside the
# page module and the frame checksum, no line above a file's first
# `#[cfg(test)]` converts little-endian bytes by hand.
le_bytes="$(git grep -lE '(from|to)_le_bytes' -- 'crates/*/src/*.rs' \
  ':!crates/store/src/page.rs' ':!crates/store/src/checksum.rs' \
  | xargs -r awk '/#\[cfg\(test\)\]/ { nextfile } /(from|to)_le_bytes/ { print FILENAME ":" FNR; nextfile }' \
  || true)"
if [ -n "$le_bytes" ]; then
  echo "ci: a page layout is encoded by hand; read and write it through" \
       "ann_store::{Reader, Writer} (crates/store/src/page.rs):" $le_bytes >&2
  exit 1
fi

# A join is executed in one place (DESIGN.md §16): `exec.rs` drives
# every worker, the calling thread included, so no other ann-core module
# starts a thread above its first `#[cfg(test)]`, and the separate
# engine module stays gone.
spawners="$(git grep -lE 'thread::(scope|spawn)' -- 'crates/core/src/*.rs' \
  ':!crates/core/src/exec.rs' \
  | xargs -r awk '/#\[cfg\(test\)\]/ { nextfile } /thread::(scope|spawn)/ { print FILENAME ":" FNR; nextfile }' \
  || true)"
if [ -e crates/core/src/par.rs ] || [ -n "$spawners" ]; then
  echo "ci: a second join engine; workers start only in Frame::join" \
       "(crates/core/src/exec.rs), found par.rs or:" $spawners >&2
  exit 1
fi

# Each tree kind has one build rule (DESIGN.md §7): every MBRQT node is
# written by `Builder::write` (crates/mbrqt/src/build.rs), and every
# R*-tree node by the STR build's `pack` (crates/rstar/src/bulk.rs).
node_writes='write_node(::<[^>]*>)?\('
qt_writes="$(git grep -cE "$node_writes" -- crates/mbrqt/src || true)"
rs_writes="$(git grep -cE "$node_writes" -- crates/rstar/src || true)"
if [ "$qt_writes" != "crates/mbrqt/src/build.rs:1" ] \
   || [ "$rs_writes" != "crates/rstar/src/bulk.rs:1" ]; then
  echo "ci: a second node writer; MBRQT nodes are written by Builder::write" \
       "(crates/mbrqt/src/build.rs), R*-tree nodes by pack" \
       "(crates/rstar/src/bulk.rs); write_node calls per file:" $qt_writes $rs_writes >&2
  exit 1
fi

# And there is one streamed bulk build (DESIGN.md §13): the MBRQT's
# distribution partitioning. No second out-of-core loader comes back.
streamers="$(git grep -l 'fn bulk_build_stream' -- 'crates/*/src/*.rs' || true)"
if [ "$streamers" != $'crates/mbrqt/src/build.rs\ncrates/mbrqt/src/lib.rs' ]; then
  echo "ci: a second streamed bulk build; the one out-of-core build is" \
       "Mbrqt::bulk_build_stream (crates/mbrqt/src/build.rs), found in:" $streamers >&2
  exit 1
fi

# Write paths only where something writes (DESIGN.md §7): an MBRQT grows
# by its builds and `insert`, an R*-tree is built by STR and nothing
# else, no index deletes a point, and a served collection is an MBRQT.
writers="$( { git grep -n -w -e 'fn delete' -- crates/mbrqt/src crates/rstar/src;
  git grep -n -w -E 'fn (insert|create)' -- crates/rstar/src;
  git grep -n -F 'IndexKind::RStar' -- crates src tests; } || true)"
if [ -n "$writers" ]; then
  echo "ci: a removed write path is back; the MBRQT's builds and insert and" \
       "the R*-tree's STR build are the only tree writers, and collections are" \
       "MBRQTs only, found:" >&2
  echo "$writers" >&2
  exit 1
fi

# The buffer pool is demand-paged, as the paper's is (DESIGN.md §13): a
# page is read when a traversal touches it and not before. No readahead
# (hint queue, batched disk read, prefetch counters) comes back.
readahead="$(git grep -il -e prefetch -e readahead -e read_batch -- crates src tests || true)"
if [ -n "$readahead" ]; then
  echo "ci: readahead is gone; the pool reads pages on demand only, found in:" \
       $readahead >&2
  exit 1
fi

# Nothing waits by spinning (DESIGN.md §8, §16): a pool miss reads its
# page under the shard lock, so no frame is ever in flight, and an idle
# morsel worker blocks on the pool's one condvar. No yield loop, spin
# hint, frame pin count or spin budget comes back above the first
# `#[cfg(test)]` of a store or core source file.
spin_words='yield_now|spin_loop|pinned_frames|SPIN_ROUNDS'
spinners="$(git grep -lE "$spin_words" -- 'crates/store/src/*.rs' 'crates/core/src/*.rs' \
  | xargs -r awk -v words="$spin_words" '/#\[cfg\(test\)\]/ { nextfile } $0 ~ words { print FILENAME ":" FNR; nextfile }' \
  || true)"
if [ -n "$spinners" ]; then
  echo "ci: a spin wait is back; the pool reads a miss under its shard lock" \
       "and morsel workers wait on a condvar, found:" $spinners >&2
  exit 1
fi

# Tuning values that every workload, figure and server leaves at one value
# are constants (DESIGN.md §7, §8): the R*-tree's minimum fill and forced
# reinsertion share, the MBRQT's maximum depth, GORDER's grid and block
# sizes, and the pool's budget, fixed when the pool is built. None of them
# comes back as a settable field or a resize.
settings="$(git grep -nwE -e 'pub (min_fill_percent|reinsert_percent|max_depth|segments_per_dim|r_block_pages|s_block_pages)' -e 'fn set_capacity' -- crates || true)"
if [ -n "$settings" ]; then
  echo "ci: a tuning value nothing sets is settable again; it is a constant:" >&2
  echo "$settings" >&2
  exit 1
fi

# Each counter set is declared once (DESIGN.md §9), with
# `ann_store::counters!`, and its JSON is written from that declaration:
# a counter's key is never spelled as an escaped literal with its value
# formatted in after it (`\"quarantine_hits\":{}`). The keys checked are
# every counter so declared: the I/O set (crates/store/src/stats.rs), the
# query's work (crates/core/src/stats.rs), the trace's LPQ, BNN and GORDER
# tallies (crates/core/src/trace.rs) and the server's
# (crates/serve/src/metrics.rs).
# The health body `{"ok":true}` names no counter, so it does not match.
counter_keys='logical_reads|physical_reads|physical_writes|pool_hits|pool_misses|evictions'
counter_keys+='|retries|checksum_failures|lock_contention|quarantined_pages|quarantine_hits'
counter_keys+='|distance_computations|lpqs_created|enqueued|pruned_on_probe|pruned_in_queue'
counter_keys+='|r_nodes_expanded|s_nodes_expanded'
counter_keys+='|retired|filtered|max_high_water|batches|total_size|min_size|max_size|heap_pops'
counter_keys+='|outer_blocks|inner_scanned|inner_skipped'
counter_keys+='|requests|ok|client_errors|server_errors|rejected|cancelled|queries'
counter_keys+='|nodes_expanded'
hand_keys="$(git grep -nE '\\"('"$counter_keys"')\\":\{' -- 'crates/*/src/*.rs' || true)"
if [ -n "$hand_keys" ]; then
  echo "ci: a counter's JSON key is written by hand; declare the counter with" \
       "ann_store::counters! and write its JSON from counters():" >&2
  echo "$hand_keys" >&2
  exit 1
fi

# ann-core's public surface is what something runs: every `pub mod` in its
# lib.rs is named, as `ann_core::<mod>` (or the facade's `allnn::core::<mod>`)
# or as a path at the top of a `use ann_core::{…}` group, above the first
# `#[cfg(test)]` of a source file outside crates/core (crates/*/src, src,
# examples, perf/src). A module only tests reach is private, or listed here
# with the reason it stays public.
git ls-files -- 'crates/*/src/*.rs' 'src/*.rs' 'examples/*.rs' 'perf/src/*.rs' \
  ':!crates/core' | python3 -c '
import re, sys
allowed = {
    "lpq": "core/tests/lpq_properties.rs drives BoundTracker and Lpq directly",
}
mods = re.findall(r"^pub mod (\w+);", open("crates/core/src/lib.rs").read(), re.M)
named = set()
for path in sys.stdin.read().split():
    text = open(path).read().split("#[cfg(test)]")[0]
    named.update(re.findall(r"\b(?:ann_core|allnn::core)::(\w+)", text))
    for group in re.finditer(r"\b(?:ann_core|allnn::core)::\{", text):
        depth, head = 1, True
        for tok in re.finditer(r"\w+|[{},]", text[group.end():]):
            t = tok.group()
            if t in "{}":
                depth += 1 if t == "{" else -1
                if depth == 0:
                    break
            elif t == ",":
                head = depth == 1
            elif head:
                named.add(t)
                head = False
unused = [m for m in mods if m not in named and m not in allowed]
assert not unused, ("ann-core exports modules nothing outside it names; make them"
                    f" private, or allowlist them in scripts/ci.sh: {unused}")
print(f"{len(mods)} public ann-core modules, each named outside the crate or allowlisted")
'

# Registry crates stay gone: every package cargo resolves, for every
# target of every workspace member, is a path inside this repository.
cargo metadata --offline --locked --format-version 1 | python3 -c '
import json, sys
packages = json.load(sys.stdin)["packages"]
external = [p["id"] for p in packages if p["source"] is not None]
assert not external, f"packages from outside the repository: {external}"
print(f"{len(packages)} packages, all in-tree")
'

cargo fmt --all --check
cargo clippy --offline --locked --workspace --all-targets -- -D warnings

# Tier-1 gate (ROADMAP.md); the root manifest's default-members make it
# the whole workspace.
cargo build --release --offline --locked
cargo test -q --offline --locked

# Concurrency gate: the sharded-pool / node-cache stress tests must run
# with the test harness's thread pool unconstrained so the schedules
# actually interleave (an inherited RUST_TEST_THREADS=1 would serialize
# them into meaninglessness).
env -u RUST_TEST_THREADS \
  cargo test -q --offline --locked -p ann-store --test concurrent_pool
env -u RUST_TEST_THREADS \
  cargo test -q --offline --locked -p ann-core --test parallel

# Morsel-engine gate (DESIGN.md §16): every Algorithm variant through the
# work-stealing engine at 2/3/8 threads must be byte-identical to serial,
# mid-query cancel/deadline/budget must land as the typed error with zero
# leaked pins and a byte-identical rerun, and injected crash faults must
# keep the resilience trichotomy under parallel execution. Independent
# seed for the same budget-isolation reason as the classes below.
cargo run --release --offline --locked -p checker --bin fuzz -- --class parallel --seed 0x9A7A --cases 200

# Observability gate: every Algorithm variant through the unified
# entrypoint must match brute force at every thread count, reproduce the
# frozen counters on three seeded inputs, and stay counter-identical with
# a recording TraceSink attached (query_equivalence covers
# sink-on/sink-off).
cargo test -q --offline --locked -p ann-core --test query_equivalence

# Correctness-harness gate (DESIGN.md §10): fixed-seed differential fuzz
# over every Algorithm variant plus the NXNDIST / tree / recovery
# invariant classes. ~200 cases per class; deterministic, so a failure
# here is a real regression with a printed minimal reproducer.
cargo run --release --offline --locked -p checker --bin fuzz -- --seed 0xC1C1 --cases 200

# Kernel bit-identity gate (DESIGN.md §11): the batched SoA kernels must
# match the scalar metrics bit-for-bit on adversarial candidate sets
# (degenerate points, shared coordinates, extreme magnitudes). The `all`
# run above already includes the class; the dedicated run gives it an
# independent seed so its budget doesn't shrink as other classes grow.
cargo run --release --offline --locked -p checker --bin fuzz -- --class kernels --seed 0x50A0 --cases 200

# Resilience gate (DESIGN.md §12): scheduled transient / bit-flip /
# crash faults swept across the query window of every serial algorithm
# (plus a threaded MBA leg for absorbed transients). Each case must land
# in the trichotomy — retried-and-byte-identical, clean typed error with
# pins released and a byte-identical rerun, or quarantined-then-healed —
# and never panic or silently return a wrong answer. Independent seed
# for the same budget-isolation reason as the kernels class above.
cargo run --release --offline --locked -p checker --bin fuzz -- --class faults --seed 0x0FA1 --cases 200

# The committed robustness artifact must stay schema-valid, keep every
# row decision-identical (fully-armed guards — deadline + cancel token +
# both budgets + retry override — must not change a single reported
# neighbor or I/O counter), and keep the fault-free overhead small. The
# 5% bound leaves headroom over the observed ~1-2% max (hnn runs in
# single-digit milliseconds, so its relative timing is the noisiest).
# Regenerate with `figures robustness --json results`.
python3 - results/BENCH_robustness.json <<'EOF'
import json, sys
rep = json.load(open(sys.argv[1]))
assert rep["id"] == "BENCH_robustness"
req = {"algorithm", "n", "runs", "baseline_seconds", "armed_seconds",
       "overhead_percent", "decision_identical"}
assert rep["rows"], "no rows"
for row in rep["rows"]:
    assert req <= row.keys(), f"missing fields: {req - row.keys()}"
    assert row["decision_identical"] is True, f"armed run diverged: {row}"
assert rep["max_overhead_percent"] <= 5.0, \
    f"fault-free guard overhead {rep['max_overhead_percent']:.2f}% > 5%"
print(f"validated {len(rep['rows'])} robustness rows, "
      f"max overhead {rep['max_overhead_percent']:.2f}%")
EOF

# Out-of-core gate (DESIGN.md §13): the committed census must have
# streamed at least 10^7 points through the MBRQT's streamed build and
# got every oid back exactly once. Regenerate with
# `figures outofcore --scale 1.0 --json results`.
python3 - results/BENCH_outofcore.json <<'EOF'
import json, sys
rep = json.load(open(sys.argv[1]))
assert rep["id"] == "BENCH_outofcore"
c = rep["census"]
assert c["census_complete"] is True, "external-build census incomplete"
assert c["points"] >= 10_000_000, "census below 10^7 points"
print(f"validated outofcore census n={c['points']}")
EOF

# Streamed-build smoke: a small live run (20 000 points) that streams the
# build to a real file and validates the tree end to end.
cargo run --release --offline --locked -p ann-bench --bin figures -- outofcore \
  --scale 0.002 > /dev/null

# Trace-report smoke: a tiny figure run with --trace must emit one valid
# JSON ExecutionReport per run.
trace_dir=$(mktemp -d)
cargo run --release --offline --locked -p ann-bench --bin figures -- fig3a --scale 0.01 \
  --trace "$trace_dir" > /dev/null
python3 - "$trace_dir" <<'EOF'
import json, pathlib, sys
files = sorted(pathlib.Path(sys.argv[1]).glob("*.json"))
assert files, "figures --trace wrote no reports"
for f in files:
    json.loads(f.read_text())
print(f"validated {len(files)} trace reports")
EOF
rm -rf "$trace_dir"

# Serving wire gate (DESIGN.md §14): the QuerySpec/QueryOutcome schema
# must round-trip as the identity, transit full-range u64 oids and f64
# distances bit-exactly, and never panic on corrupted documents.
# Independent seed for the same budget-isolation reason as above.
cargo run --release --offline --locked -p checker --bin fuzz -- --class wire --seed 0x3133 --cases 300

# Disconnect gate: a client that hangs up mid-query must cancel the
# running traversal, serial and parallel. These tests race a join
# against the server's 10 ms disconnect poll, and a join finishes far
# sooner in a release build than in the debug build tier-1 tests, so
# they run here in release too.
cargo test -q --release --offline --locked -p ann-serve --test serving disconnect

# Allocation gate: a warm MBA self-join makes under 0.1 allocator calls
# per query point in 2-D (k = 1) and under 8 in 10-D (k = 10). The test
# counts calls with its own global allocator; release is the build the
# benchmark and the server run.
cargo test -q --release --offline --locked -p ann-core --test alloc_per_join

# Serving smoke: boot the real binary on an ephemeral port, drive the
# full collection lifecycle plus a query through raw HTTP, and shut it
# down cleanly over the wire.
serve_dir=$(mktemp -d)
cargo build --release --offline --locked -p ann-serve
target/release/ann-serve --addr 127.0.0.1:0 --data-dir "$serve_dir" \
  > "$serve_dir/serve.log" &
serve_pid=$!
for _ in $(seq 1 50); do
  grep -q "listening on" "$serve_dir/serve.log" && break
  sleep 0.1
done
serve_addr=$(sed -n 's/^listening on //p' "$serve_dir/serve.log" | head -1)
test -n "$serve_addr" || { cat "$serve_dir/serve.log"; exit 1; }
python3 - "$serve_addr" <<'EOF'
import json, sys, urllib.request
base = f"http://{sys.argv[1]}"
def call(method, path, body=None):
    data = body.encode() if body is not None else None
    req = urllib.request.Request(base + path, data=data, method=method)
    with urllib.request.urlopen(req) as r:
        return r.status, r.read().decode()
status, _ = call("GET", "/health")
assert status == 200, f"health: {status}"
points = [[float(i % 17), float(i % 23)] for i in range(200)]
status, _ = call("POST", "/collections",
                 json.dumps({"id": "smoke", "kind": "mbrqt", "points": points}))
assert status == 201, f"create: {status}"
spec = {"v": 1, "algorithm": {"name": "mba", "traversal": "depth-first",
        "expansion": "bidirectional", "threads": 1},
        "metric": "nxn", "k": 1, "exclude_self": True}
status, body = call("POST", "/collections/smoke/query", json.dumps(spec))
assert status == 200, f"query: {status}"
out = json.loads(body)
assert out["count"] == 200 and len(out["pairs"]) == 200, out["count"]
status, _ = call("DELETE", "/collections/smoke")
assert status == 200, f"drop: {status}"
status, _ = call("POST", "/admin/shutdown")
assert status == 200, f"shutdown: {status}"
print("serving smoke OK")
EOF
wait "$serve_pid"
rm -rf "$serve_dir"

# MVCC gate (DESIGN.md §15): scripted and threaded interleavings of
# versioned MBRQT insert commits (with version retirement and page reuse)
# against concurrently pinned snapshot readers. Every pinned reader must
# stay byte-identical to brute force over its snapshot's point set,
# aborts must leave nothing pinned, and aged-out versions must fail pin
# with the typed error. Independent seed
# for the same budget-isolation reason as the classes above.
cargo run --release --offline --locked -p checker --bin fuzz -- --class interleave --seed 0x171E --cases 200
