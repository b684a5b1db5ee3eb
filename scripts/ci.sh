#!/usr/bin/env bash
# Offline CI gate: build, full workspace test suite, strict clippy, and
# the BENCH_sweep.json smoke run. Works without network access — all
# third-party crates are vendored path dependencies (see
# docs/offline_deps.md), so `--offline` is passed everywhere.
set -euo pipefail

cd "$(dirname "$0")/.."

# The artifact validators below are python3 scripts; without python3
# they cannot run, so the gate fails instead of passing unchecked.
command -v python3 >/dev/null 2>&1 || {
    echo "ci.sh: python3 is required for the artifact validators"; exit 1;
}

# Every artifact this script writes goes into one temp dir, removed on
# exit.
tmp="$(mktemp -d -t strent-ci.XXXXXX)"
trap 'rm -rf "$tmp"' EXIT

echo "== build (release) =="
cargo build --release --workspace --offline

echo "== tests (workspace) =="
# Includes simlint's own gates: every rule fires on its fixture, the
# fixture set matches the rule registry, docs/static_analysis.md matches
# it too, and the JSON report keeps its version-3 shape.
cargo test -q --workspace --offline

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustdoc (deny warnings) =="
# Broken or private intra-doc links fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== simlint =="
# Any finding fails; the only excuse is an inline
# `// simlint: allow(<code>) <reason>` at the site.
cargo run -q --release -p simlint --offline

echo "== golden report (repro_all --full, seed 2012) =="
# The floor every change keeps: the full regeneration of the paper
# prints docs/repro_full_output.txt byte for byte. Every ring goes
# through the verified build step, which refuses any SL0xx finding, so
# this run also verifies every ring the paper's experiments build.
repro_out="$tmp/repro_full_output.txt"
cargo run -q --release -p strent-bench --bin repro_all --offline -- \
    --full --seed 2012 > "$repro_out" 2> "$tmp/repro_full.err" || {
    cat "$tmp/repro_full.err"; exit 1;
}
if ! cmp -s "$repro_out" docs/repro_full_output.txt; then
    echo "repro_all --full --seed 2012 differs from docs/repro_full_output.txt:"
    diff "$repro_out" docs/repro_full_output.txt | head -40 || true
    exit 1
fi
echo "repro_all --full --seed 2012: byte-identical to docs/repro_full_output.txt"

echo "== bench_sweep smoke (quick) =="
out="$tmp/BENCH_sweep.json"
engine_out="$tmp/BENCH_engine.json"
cargo run -q --release -p strent-bench --bin bench_sweep --offline -- \
    --quick --out "$out" --engine-out "$engine_out"
# Both emitters hand-format their JSON; make sure they stay parseable
# and that the engine report actually carries throughput numbers.
[ -s "$engine_out" ] || { echo "BENCH_engine.json was not emitted"; exit 1; }
python3 -c "import json, sys; json.load(open(sys.argv[1]))" "$out"
echo "BENCH_sweep.json: valid JSON"
python3 - "$engine_out" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "strentropy-bench-engine/3", report["schema"]
micro = report["str32_dispatch_microbench"]
# The probe seeds its own board and simulator, so its event count is a
# fixed property of the kernel: any change means dispatch changed.
assert micro["events"] == 108432, f"str32 probe dispatch changed: {micro}"
assert micro["events_per_sec"] > 0, f"bogus events/sec in {micro}"
experiments = report["experiments"]
assert experiments, "engine report lists no experiments"
# Stages whose jobs feed kernel stats through their JobMeter must keep
# doing so; the trace-driven stages hide their simulators inside helper
# types, so they must OMIT the event fields entirely rather than
# publish a misleading 0.
metered = {"fig5", "fig7", "fig8", "fig9", "fig11", "fig12", "obs_a",
           "table1", "table2", "ext_charlie", "ext_mode", "ext_det",
           "ext_flicker", "ext_method", "ext_coherent", "ext_trng"}
for entry in experiments:
    assert entry["wall_ns"] > 0, f"bogus wall time in {entry}"
    if entry["label"] in metered:
        assert entry["events_per_sec"] > 0, f"unmetered stage {entry}"
    elif "events" in entry or "events_per_sec" in entry:
        assert entry["events"] > 0 and entry["events_per_sec"] > 0, \
            f"zero event fields must be omitted, not published: {entry}"
print(f"BENCH_engine.json: valid JSON, {len(experiments)} experiments")
PY

echo "== surrogate equivalence + speedup gate =="
# The statistical-equivalence harness must be green before the speedup
# claim means anything: a fast surrogate that drifts from the event-
# driven reference is worse than no surrogate at all.
cargo test -q --offline --test surrogate_equivalence
surrogate_out="$tmp/BENCH_surrogate.json"
cargo run -q --release -p strent-bench --bin bench_surrogate --offline -- \
    --quick --seed 2012 --out "$surrogate_out"
python3 - "$surrogate_out" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "strentropy-bench-surrogate/1", report
presets = report["presets"]
assert {p["label"] for p in presets} == {"str32", "str64", "iro32"}, presets
for p in presets:
    for side in ("full_sim", "surrogate"):
        block = p[side]
        assert block["wall_ns"] > 0 and block["samples_per_sec"] > 0, p
        assert 0.3 < block["ones_fraction"] < 0.7, p
        assert block["period_mean_ps"] > 0 and block["period_sigma_ps"] > 0, p
    assert p["speedup"] > 1.0, f"surrogate slower than full sim: {p}"
    assert p["mean_rel_err"] < 0.01, f"period mean drifted: {p}"
    assert 0.5 < p["sigma_ratio"] < 2.0, f"period sigma drifted: {p}"
speedup = report["str32_speedup"]
assert speedup >= 50.0, f"str32 speedup {speedup} below the 50x floor"
print(f"BENCH_surrogate.json: valid, str32 speedup {speedup:.1f}x")
PY

echo "== entropy estimation gate (bound vs Markov agreement, CMRR) =="
# bench_entropy exits nonzero on its own if the Markov estimator
# undercuts the analytic bound beyond the documented band; the JSON
# check then holds the subsystem to its calibration claims: STR >= IRO
# bound at equal sampling, measurable common-mode rejection, and a
# live estimator verdict on a balanced stream.
entropy_out="$tmp/BENCH_entropy.json"
cargo run -q --release -p strent-bench --bin bench_entropy --offline -- \
    --quick --seed 2012 --out "$entropy_out"
python3 - "$entropy_out" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "strentropy-bench-entropy/1", report["schema"]
for probe in report["estimator"]:
    assert probe["feed_mbits_per_sec"] > 0 and probe["evals_per_sec"] > 0, probe
    assert probe["bits_per_bit"] > 0.6, f"balanced stream scored low: {probe}"
rows = report["agreement"]
assert len(rows) == 9, f"expected 9 sweep rows, got {len(rows)}"
band = report["agreement_band"]
assert report["within_band"] and report["worst_agreement"] >= -band, report
by = lambda label: sorted((r for r in rows if r["label"] == label),
                          key=lambda r: r["factor"])
for s, i in zip(by("str32"), by("iro32")):
    assert s["bound"] >= i["bound"], f"STR bound below IRO: {s} vs {i}"
diff = report["differential"]
assert len(diff) == 2 and report["min_cmrr_db"] > 15.0, report
print(f"BENCH_entropy.json: valid, worst agreement "
      f"{report['worst_agreement']:+.4f} (band -{band}), "
      f"min CMRR {report['min_cmrr_db']:.1f} dB")
PY

echo "== serve bench smoke (closed/open loop, shard scaling gate) =="
serve_out="$tmp/BENCH_serve.json"
serve_check="$tmp/check_serve.py"
# The serving tier's pass/fail drills are tests
# (`cargo test -p strent-serve`); this stage checks the bench's numbers.
cargo run -q --release -p strent-bench --bin serve_load --offline -- \
    --quick --out "$serve_out"
[ -s "$serve_out" ] || { echo "BENCH_serve.json was not emitted"; exit 1; }
# One validator for both the fresh output and the committed artifact at
# the repo root.
cat > "$serve_check" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "strentropy-bench-serve/4", report["schema"]
assert report["host_cpus"] >= 1, report
closed = report["closed_loop"]
assert [p["clients"] for p in closed["points"]] == [1, 16, 128, 1024], closed
for p in closed["points"]:
    assert p["throughput_rps"] > 0 and not p["deadline_hit"], p
    assert p["latency_p999_us"] >= p["latency_p99_us"] >= p["latency_p50_us"] >= 0, p
assert closed["saturation_rps"] > 0, closed
open_loop = report["open_loop"]
assert len(open_loop["points"]) == 3, open_loop
for p in open_loop["points"]:
    assert p["throughput_rps"] > 0 and p["latency_p99_us"] > 0, p
    assert not p["deadline_hit"], p
scaling = report["shard_scaling"]
assert scaling["harness"] == "in_process", scaling
for backend in ("full_sim", "surrogate"):
    pts = [p for p in scaling["points"] if p["backend"] == backend]
    assert sorted(p["shards"] for p in pts) == [1, 2, 4, 8], pts
assert scaling["speedup_8v1"] >= 2.0, scaling
print(f"{sys.argv[2]}: valid, saturation {closed['saturation_rps']:.0f} req/s, "
      f"speedup 8v1 {scaling['speedup_8v1']:.2f}x")
PY
python3 "$serve_check" "$serve_out" "serve bench output"

echo "== committed BENCH_serve.json (schema + scaling gate) =="
[ -s BENCH_serve.json ] || { echo "committed BENCH_serve.json missing"; exit 1; }
python3 "$serve_check" BENCH_serve.json "committed BENCH_serve.json"

echo "== batch-path oracle (perfbench serve_bulk, traced) =="
# The traced run rebuilds every batch of the pool's six sources from
# the recording path (advance_by + Sampler + prune_before) and compares
# it with PooledSource::next_batch, where the surrogate samples as it
# draws; each batch that differs counts as a failed operation.
perfbench_out="$tmp/perfbench_serve_bulk.txt"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload serve_bulk --seed 2012 --seconds 2 --trace 1 > "$perfbench_out"
python3 - "$perfbench_out" <<'PY'
import json, sys
result = json.loads(open(sys.argv[1]).read().splitlines()[-1])
assert result["attempted"] > 0, result
assert result["failed"] == 0, f"batch path differs from its oracle: {result}"
print(f"perfbench serve_bulk traced: {result['attempted']} checked operations, 0 failed")
PY

echo "== degradation campaign smoke (quick) =="
# Every fault class must alarm the online health tests on both ring
# families: 8 scenario rows, all marked detected, zero marked NO.
degradation="$tmp/degradation.txt"
cargo run -q --release -p strent-bench \
    --bin repro_degradation --offline -- --quick > "$degradation"
detected=$(grep -c ' yes$' "$degradation" || true)
if [ "$detected" -ne 8 ] || grep -q ' NO$' "$degradation"; then
    echo "degradation campaign: expected 8 detected scenarios, got $detected"
    cat "$degradation"
    exit 1
fi
echo "degradation campaign: 8/8 fault scenarios detected"

echo "== criterion engine smoke (--test) =="
cargo bench -q -p strent-bench --bench engine --offline -- --test

echo "== CI green =="
