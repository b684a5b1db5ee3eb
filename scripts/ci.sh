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

echo "== build (release) =="
cargo build --release --workspace --offline

echo "== tests (workspace) =="
# Includes simlint's own gates: every rule fires on its fixture, the
# fixture set matches the rule registry, docs/static_analysis.md matches
# it too, and the JSON report keeps its version-2 shape.
cargo test -q --workspace --offline

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== simlint (deny mode, allowlist + grandfather baseline) =="
# Deny mode fails on any finding beyond the committed baseline AND on
# stale baseline entries, so the grandfather ledger only ever shrinks.
cargo run -q --release -p simlint --offline -- \
    --deny --allowlist scripts/simlint.allow \
    --baseline scripts/simlint.baseline

echo "== bench_sweep smoke (quick, netlist lints denied) =="
out="$(mktemp -t BENCH_sweep.XXXXXX.json)"
engine_out="$(mktemp -t BENCH_engine.XXXXXX.json)"
trap 'rm -f "$out" "$engine_out"' EXIT
# STRENT_LINT=deny escalates the SL0xx netlist verifier to hard errors:
# every ring the smoke run builds must pass static verification.
STRENT_LINT=deny cargo run -q --release -p strent-bench --bin bench_sweep --offline -- \
    --quick --out "$out" --engine-out "$engine_out"
# Both emitters hand-format their JSON; make sure they stay parseable
# and that the engine report actually carries throughput numbers.
[ -s "$engine_out" ] || { echo "BENCH_engine.json was not emitted"; exit 1; }
python3 -c "import json, sys; json.load(open(sys.argv[1]))" "$out"
echo "BENCH_sweep.json: valid JSON"
python3 - "$engine_out" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "strentropy-bench-engine/2", report["schema"]
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
metered = {"fig5", "fig8", "obs_a", "table1", "table2", "ext_charlie",
           "ext_mode", "ext_det", "ext_flicker", "ext_method"}
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
surrogate_out="$(mktemp -t BENCH_surrogate.XXXXXX.json)"
trap 'rm -f "$out" "$engine_out" "$surrogate_out"' EXIT
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
entropy_out="$(mktemp -t BENCH_entropy.XXXXXX.json)"
trap 'rm -f "$out" "$engine_out" "$surrogate_out" "$entropy_out"' EXIT
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

echo "== robustness smoke (panic isolation, watchdogs, partial results) =="
manifest="$(mktemp -t robustness_manifest.XXXXXX.json)"
trap 'rm -f "$out" "$engine_out" "$surrogate_out" "$entropy_out" "$manifest"' EXIT
# Without --keep-going the injected failures must force a non-zero exit...
if cargo run -q --release -p strent-bench --bin robustness_smoke --offline \
    > "$manifest" 2>/dev/null; then
    echo "robustness_smoke exited zero without --keep-going"; exit 1
fi
# ...and with it, partial results are accepted (exit zero) while the
# failure manifest still lands on stdout.
cargo run -q --release -p strent-bench --bin robustness_smoke --offline -- \
    --keep-going > "$manifest"
python3 - "$manifest" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["version"] == 1, report
assert report["jobs"] == 14 and report["successes"] == 11, report
kinds = [(f["index"], f["kind"]) for f in report["failures"]]
assert kinds == [(3, "panicked"), (6, "stalled"), (9, "panicked")], kinds
print("robustness manifest: valid JSON, 11/14 successes, 3 typed failures")
PY

echo "== serve smoke (shard determinism, scaling gate, 1024-conn UDS frontend) =="
serve_out="$(mktemp -t BENCH_serve.XXXXXX.json)"
serve_sock="$(mktemp -u -t strent-serve-ci.XXXXXX.sock)"
serve_check="$(mktemp -t check_serve.XXXXXX.py)"
trap 'rm -f "$out" "$engine_out" "$surrogate_out" "$entropy_out" "$manifest" "$serve_out" "$serve_sock" "$serve_check"' EXIT
# --smoke drives ≥1024 multiplexed connections through the poll event
# loop on a temp socket plus a 3-client deterministic byte-for-byte
# replay; the binary exits nonzero if any invariant (shard-count digest
# identity, ≥2x shard scaling, backpressure classes, fault containment,
# clean shutdown) fails.
STRENT_LINT=deny cargo run -q --release -p strent-bench --bin serve_load --offline -- \
    --quick --smoke --socket "$serve_sock" --out "$serve_out"
[ -s "$serve_out" ] || { echo "BENCH_serve.json was not emitted"; exit 1; }
[ -e "$serve_sock" ] && { echo "serve smoke left its socket behind"; exit 1; }
# One validator for both the fresh smoke output and the committed
# artifact at the repo root — the schema and invariants must hold for
# each.
cat > "$serve_check" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "strentropy-bench-serve/2", report["schema"]
assert report["host_cpus"] >= 1, report
det = report["determinism"]
digests = {d["fnv1a64"] for d in det["shard_digests"]}
shards = sorted(d["shards"] for d in det["shard_digests"])
assert shards == [1, 2, 8], shards
assert len(digests) == 1 and det["bit_identical"], det
assert det["matches_pool_replay"], det
closed = report["closed_loop"]
assert [p["clients"] for p in closed["points"]] == [1, 16, 128, 1024], closed
for p in closed["points"]:
    assert p["throughput_rps"] > 0, p
    assert p["latency_p999_us"] >= p["latency_p99_us"] >= p["latency_p50_us"] >= 0, p
assert closed["saturation_rps"] > 0, closed
open_loop = report["open_loop"]
assert len(open_loop["points"]) == 3, open_loop
for p in open_loop["points"]:
    assert p["throughput_rps"] > 0 and p["latency_p99_us"] > 0, p
scaling = report["shard_scaling"]
assert scaling["harness"] == "in_process", scaling
for backend in ("full_sim", "surrogate"):
    pts = [p for p in scaling["points"] if p["backend"] == backend]
    assert sorted(p["shards"] for p in pts) == [1, 2, 4, 8], pts
assert scaling["speedup_8v1"] >= 2.0, scaling
bp = report["backpressure"]
assert bp["busy"] > 0 and bp["rate_limited"] > 0 and bp["shed"] > 0, bp
assert bp["all_classes_observed"], bp
fault = report["fault_drill"]
assert fault["alarms"] >= 1 and fault["replacements"] >= 1, fault
assert fault["bytes_per_alarm"] > 0 and fault["health_clean"], fault
smoke = report["uds_smoke"]
assert smoke["mux_clients"] >= 1024 and smoke["mux_errors"] == 0, smoke
assert smoke["accepted"] >= 1024 and smoke["accept_errors"] == 0, smoke
assert smoke["register_errors"] == 0 and smoke["drained"], smoke
assert smoke["replay_clients"] == 3 and smoke["bytes_served"] > 0, smoke
assert smoke["deterministic"] and smoke["clean_shutdown"], smoke
print(f"{sys.argv[2]}: valid, digest {digests.pop()} at shards {shards}, "
      f"speedup 8v1 {scaling['speedup_8v1']:.2f}x, "
      f"{smoke['accepted']} conns accepted")
PY
python3 "$serve_check" "$serve_out" "serve smoke output"

echo "== committed BENCH_serve.json (schema + invariants) =="
[ -s BENCH_serve.json ] || { echo "committed BENCH_serve.json missing"; exit 1; }
python3 "$serve_check" BENCH_serve.json "committed BENCH_serve.json"

echo "== chaos drill smoke (supervision, drain, resilient clients) =="
chaos_out="$(mktemp -t BENCH_chaos.XXXXXX.json)"
chaos_check="$(mktemp -t check_chaos.XXXXXX.py)"
trap 'rm -f "$out" "$engine_out" "$surrogate_out" "$entropy_out" "$manifest" "$serve_out" "$serve_sock" "$serve_check" "$chaos_out" "$chaos_check"' EXIT
# serve_chaos derives every injection (worker panics, shard stalls,
# slowloris, poison frames, partial writes, mid-stream disconnects, a
# quarantine storm) from one seed, then asserts bounded recovery,
# byte-identical deterministic output with chaos on vs off, and a
# balanced request ledger. It exits nonzero if any drill fails.
STRENT_LINT=deny cargo run -q --release -p strent-bench --bin serve_chaos --offline -- \
    --quick --out "$chaos_out"
[ -s "$chaos_out" ] || { echo "BENCH_chaos.json was not emitted"; exit 1; }
# One validator for both the fresh smoke output and the committed
# artifact at the repo root.
cat > "$chaos_check" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "strentropy-bench-chaos/2", report["schema"]
plan = report["plan"]
assert plan["scheduler_stall_after_request"] > plan["scheduler_panic_after_request"] >= 0, plan
det = report["determinism"]
assert det["identical"], det
assert det["injected_panics"] >= 1, "chaos-on runs injected nothing"
assert {r["shards"] for r in det["runs"]} == {1, 2, 8}, det["runs"]
rec = report["recovery"]
assert rec["bounded"] and rec["grants"] == rec["requests"], rec
assert rec["max_grant_ms"] < rec["bound_ms"], rec
assert rec["panics"] >= 1 and rec["restarts"] >= 1, rec
storm = report["quarantine_storm"]
assert storm["quarantined"] and storm["rerouted_bytes"] > 0, storm
uds = report["uds"]
assert uds["zero_silent_drops"], uds
acct = uds["accounting"]
assert acct["issued"] == (acct["granted"] + acct["typed_rejections"]
                          + acct["abandoned"]), acct
assert uds["slowloris_reaped"] >= 1 and uds["poison_survived"], uds
drain = report["drain"]
assert drain["server_drained"] and drain["service_drained"], drain
print(f"{sys.argv[2]}: valid, {det['injected_panics']} panics injected, "
      f"recovery worst {rec['max_grant_ms']:.1f}ms of {rec['bound_ms']:.0f}ms, "
      f"ledger {acct['issued']} issued = {acct['granted']} granted "
      f"+ {acct['typed_rejections']} rejected + {acct['abandoned']} abandoned")
PY
python3 "$chaos_check" "$chaos_out" "chaos drill output"

echo "== committed BENCH_chaos.json (schema + invariants) =="
[ -s BENCH_chaos.json ] || { echo "committed BENCH_chaos.json missing"; exit 1; }
python3 "$chaos_check" BENCH_chaos.json "committed BENCH_chaos.json"

echo "== degradation campaign smoke (quick, netlist lints denied) =="
# Every fault class must alarm the online health tests on both ring
# families: 8 scenario rows, all marked detected, zero marked NO.
degradation="$(mktemp -t degradation.XXXXXX.txt)"
trap 'rm -f "$out" "$engine_out" "$surrogate_out" "$entropy_out" "$manifest" "$serve_out" "$serve_sock" "$serve_check" "$chaos_out" "$chaos_check" "$degradation"' EXIT
STRENT_LINT=deny cargo run -q --release -p strent-bench \
    --bin repro_degradation --offline -- --quick --deny-lints > "$degradation"
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
