#!/usr/bin/env python3
"""Gate benchmark regressions against the recorded baselines.

Modes:

Runtime mode (default) reads a google-benchmark JSON report
(``--benchmark_format=json`` output of ``bench_perf_solvers``) and compares
the uncached six-version analyzer solve (``BM_FullAnalyzerSixVersion``)
against the reference recorded in ``bench_results/BENCH_runtime.json`` (key
``full_analyzer_six_version_uncached_ms``). Exits non-zero when the measured
time exceeds the baseline by more than the tolerance.

Sweep mode (``--sweep``) reads the JSON document written by
``bench_sweep_throughput`` and gates the staged pipeline's cross-point
reuse: the reward-only alpha sweep must stay >= 10x faster than the cold
per-point path, the rate-only MTTC sweep >= 2x, both curves bit-identical to
cold, and each sweep must have explored reachability exactly once.

MRGP mode (``--mrgp``) reads the document written by ``bench_mrgp_scaling``
(``bench_results/BENCH_mrgp_scaling.json``) and gates the matrix-free
solver's contract and kAuto's routing. Every crossover row (each family at
tau = 100, 600 and 3000 s) must agree with the dense oracle to 1e-10. On
the tau = 600 rows the operator must actually be faster than dense LU at
256+ states, with at least one >= 10x row. On every crossover cell the
backend kAuto picks (``auto_backend``) may be at most 1.5x slower than the
faster of the two. Every scaling row must have been routed to the
matrix-free backend by kAuto, carry sparse storage (<= 64 stored nonzeros
per state), conserve probability mass to 1e-9, and reach the
10^4..10^5-state range (smallest row >= 10^4 states, largest >= 5 x 10^4).
These restate the backend's contract rather than machine timings, so they
take no tolerance; the 1.5x routing bound is itself the slack for timing
noise near the dispatch boundary.

Store mode (``--store``) reads the document written by
``bench_store_persistence`` (``bench_results/BENCH_store.json``) and gates
the persistent solve store's warm-start contract: the warm sweep must be
bit-identical to cold, perform zero explorations and zero solves (every
rewards-stage result served from disk, hits covering every point, zero
misses),
and beat the cold run by at least the recorded speedup floor; the
primitive-latency section must have measured positive open/put/get costs
with every probe read hitting. Apart from the speedup floor — itself an
order-of-magnitude bound, the warm path replaces full MRGP solves with
mmap + checksum + decode — these restate counters, so no tolerance.

Service mode (``--service``) reads the document written by
``tools/loadgen`` (``bench_results/BENCH_service.json``) and gates the
nvpd daemon's load-test contract: the coalesce burst must have held >=
10000 requests in flight with a coalescing hit rate >= 0.9 and zero
transport errors, and every recorded scenario must have measured positive
throughput and latency percentiles. Like the sweep floors these restate
the service's contract (concurrency reached, coalescing worked, nothing
dropped on the floor), not machine-specific timings, so they take no
tolerance.

Archspace mode (``--archspace``) reads the document written by
``bench_archspace_hetero`` (``bench_results/BENCH_archspace.json``) and
gates the heterogeneous architecture-space contract: the candidate family
must span at least 200 architectures, the store-warm re-exploration must be
bit-identical to cold with zero reachability explorations and zero solves
(every rewards-stage result served from disk) and at least 5x faster, no
candidate may have degraded into an error envelope, and the
weighted-vs-homogeneous quality comparison must have compared at least one
module budget with the heterogeneous candidate winning somewhere. Apart from the speedup floor —
an order-of-magnitude bound, the warm path replaces full DSPN solves with
store reads — these restate deterministic counters and model mathematics,
so they take no tolerance.

Monitor mode (``--monitor``) reads the document written by
``bench_monitor`` (``bench_results/BENCH_monitor.json``) and gates the
closed-loop adaptive rejuvenation contract: the adaptive session must beat
the best static interval (strictly positive margin), suffer zero degraded
re-solves, stay on the structure cache (at most one reachability build for
the whole session), and have actually re-solved and retuned. On top of the
fresh-run table, the measured margin is compared against the recorded
baseline (``--baseline bench_results/BENCH_monitor.json``): the fresh
margin must reach the recorded margin minus the tolerance fraction of it,
so a controller change that quietly halves the adaptive advantage fails
even while the sign stays positive.

``--list`` prints the numeric metric names available in the baseline file
(so CI logs and humans can see what is being gated) and exits.

``--self-test`` runs the tool's own unit checks (table evaluation, metric
flattening, schema gating, monitor margin arithmetic) against synthetic
in-memory documents and exits; the lint CI job invokes it so a refactor of
this gate cannot silently break the gating logic itself.

The tolerance is a fraction of the baseline (default 0.25 = +25%), settable
with ``--tolerance`` or the ``NVP_BENCH_TOLERANCE`` environment variable —
CI hardware is noisy, so the default is deliberately generous: this gate is
meant to catch order-of-magnitude mistakes (an accidentally quadratic loop,
a dropped cache), not single-digit-percent drift. The sweep floors are
already order-of-magnitude bounds and take no tolerance.

Usage:
    bench_perf_solvers --benchmark_format=json --benchmark_out=report.json
    python3 tools/check_bench_regression.py report.json \
        [--baseline bench_results/BENCH_runtime.json] [--tolerance 0.25]

    bench_sweep_throughput            # writes bench_results/BENCH_sweep.json
    python3 tools/check_bench_regression.py --sweep \
        bench_results/BENCH_sweep.json

    loadgen --label coalesce_burst    # writes bench_results/BENCH_service.json
    python3 tools/check_bench_regression.py --service \
        bench_results/BENCH_service.json

    bench_mrgp_scaling      # writes bench_results/BENCH_mrgp_scaling.json
    python3 tools/check_bench_regression.py --mrgp \
        bench_results/BENCH_mrgp_scaling.json

    bench_store_persistence  # writes bench_results/BENCH_store.json
    python3 tools/check_bench_regression.py --store \
        bench_results/BENCH_store.json

    bench_archspace_hetero   # writes bench_results/BENCH_archspace.json
    python3 tools/check_bench_regression.py --archspace \
        bench_results/BENCH_archspace.json

    bench_monitor            # writes bench_results/BENCH_monitor.json
    python3 tools/check_bench_regression.py --monitor \
        bench_results/BENCH_monitor.json \
        --baseline bench_results/BENCH_monitor.json

    python3 tools/check_bench_regression.py --list \
        --baseline bench_results/BENCH_sweep.json

    python3 tools/check_bench_regression.py --self-test
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys

BENCHMARK_NAME = "BM_FullAnalyzerSixVersion"
BASELINE_KEY = "full_analyzer_six_version_uncached_ms"

# Highest baseline/report schema this tool understands. Files without a
# "schema_version" field predate versioning and are treated as version 1.
# A newer file is not a regression and not noise — it means the checkout of
# this tool is older than whoever recorded the baseline, so the run exits
# with the dedicated EXIT_SCHEMA code (distinct from 1 = gate violation /
# 2 = usage or unreadable input) for CI to tell the cases apart.
SUPPORTED_SCHEMA_VERSION = 1
EXIT_SCHEMA = 3

# ---------------------------------------------------------------------------
# Table-driven gate specs. Every tabular mode shares one shape — a list of
# (section, field, op, bound) rows evaluated by check_table — so adding a
# mode means adding a table and a MODES entry, not another walking loop.

OPS = {
    "ge": (lambda value, bound: value >= bound, ">="),
    "gt": (lambda value, bound: value > bound, ">"),
    "le": (lambda value, bound: value <= bound, "<="),
    "eq": (lambda value, bound: value == bound, "=="),
}

# Sweep-mode gates: the floors restate the staged pipeline's contract, not
# a machine-specific measurement, so they hold on any hardware: reuse
# ratios and counter invariants are wall-clock independent apart from the
# speedups, which sit far above their floors.
SWEEP_CHECKS = [
    ("alpha_sweep_6v", "speedup", "ge", 10.0),
    ("alpha_sweep_6v", "bit_identical_to_cold", "eq", 1.0),
    ("alpha_sweep_6v", "staged_explorations", "eq", 1.0),
    ("alpha_sweep_6v", "staged_solves", "eq", 1.0),
    ("mttc_sweep_n40", "speedup", "ge", 2.0),
    ("mttc_sweep_n40", "bit_identical_to_cold", "eq", 1.0),
    ("mttc_sweep_n40", "staged_explorations", "eq", 1.0),
]

# Store-mode gates: the warm sweep replaces full MRGP solves with mmap +
# checksum + decode, so a 5x floor is an order-of-magnitude bound, not a
# machine timing; everything else restates the disk tier's counter contract
# (all hits, no misses, no recompute).
STORE_CHECKS = [
    ("warm_sweep", "speedup", "ge", 5.0),
    ("warm_sweep", "bit_identical_to_cold", "eq", 1.0),
    ("warm_sweep", "warm_explorations", "eq", 0.0),
    ("warm_sweep", "warm_solves", "eq", 0.0),
    ("warm_sweep", "warm_store_hits", "gt", 0.0),
    ("warm_sweep", "warm_store_misses", "eq", 0.0),
    ("warm_sweep", "cold_store_writes", "gt", 0.0),
    ("latency", "open_ms", "gt", 0.0),
    ("latency", "write_ms_mean", "gt", 0.0),
    ("latency", "read_ms_mean", "gt", 0.0),
]

# Archspace-mode gates: candidate-family size, warm-reuse counters, and the
# quality comparison are deterministic; the 5x warm-speedup floor is an
# order-of-magnitude bound (store reads vs full DSPN solves), not a machine
# timing.
ARCHSPACE_CHECKS = [
    ("family", "candidates", "ge", 200.0),
    ("family", "cold_candidates_per_s", "gt", 0.0),
    ("family", "warm_candidates_per_s", "gt", 0.0),
    ("family", "warm_speedup", "ge", 5.0),
    ("family", "warm_explorations", "eq", 0.0),
    ("family", "warm_solves", "eq", 0.0),
    ("family", "bit_identical_to_cold", "eq", 1.0),
    ("family", "failed_candidates", "eq", 0.0),
    ("quality", "budgets_compared", "ge", 1.0),
    ("quality", "hetero_wins", "ge", 1.0),
]

# Monitor-mode gates: the adaptive-vs-static comparison is a seeded
# deterministic replay and the controller counters restate the closed
# loop's cache contract, so the fresh-run table takes no tolerance; only
# the recorded-margin comparison (check_monitor) is tolerance-scaled.
MONITOR_CHECKS = [
    ("drift", "adaptive_beats_best_static", "eq", 1.0),
    ("drift", "margin", "gt", 0.0),
    ("drift", "best_static_interval", "gt", 0.0),
    ("controller", "degraded_updates", "eq", 0.0),
    ("controller", "structure_explorations", "le", 1.0),
    ("controller", "resolves", "gt", 0.0),
    ("controller", "retunes", "gt", 0.0),
]

# Service-mode gates on the named loadgen scenario. The burst scenario
# is the acceptance run: >= 10k requests simultaneously in flight against
# one daemon, >= 90% of them answered from a coalesced in-flight solve,
# and not a single connection-level failure.
SERVICE_BURST_SCENARIO = "coalesce_burst"
SERVICE_BURST_CHECKS = [
    ("peak_concurrent", "ge", 10000.0),
    ("coalesce_rate", "ge", 0.9),
    ("transport_errors", "eq", 0.0),
    ("errors", "eq", 0.0),
]
# Every scenario, burst included, must have really measured something.
SERVICE_COMMON_CHECKS = [
    ("responses", "gt", 0.0),
    ("throughput_rps", "gt", 0.0),
    ("p50_ms", "gt", 0.0),
    ("p95_ms", "gt", 0.0),
    ("p99_ms", "gt", 0.0),
]


def load_json(path: str, role: str) -> dict:
    """Loads a JSON file, mapping I/O and parse failures to one-line errors."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise SystemExit(f"error: cannot read {role} '{path}': {e.strerror}")
    except json.JSONDecodeError as e:
        raise SystemExit(f"error: {role} '{path}' is not valid JSON: {e}")
    check_schema(doc, path, role)
    return doc


def check_schema(doc, path: str, role: str) -> None:
    """Exits with EXIT_SCHEMA when the document postdates this tool."""
    version = doc.get("schema_version", 1) if isinstance(doc, dict) else 1
    if isinstance(version, (int, float)) and version > SUPPORTED_SCHEMA_VERSION:
        print(
            f"error: {role} '{path}' has schema_version {version:g}, but "
            f"this tool supports <= {SUPPORTED_SCHEMA_VERSION} — update "
            f"tools/check_bench_regression.py"
        )
        raise SystemExit(EXIT_SCHEMA)


def walk_field(doc: dict, section: str, field: str, path: str,
               label: str) -> float:
    """Numeric value of ``section.field``, or a one-line SystemExit."""
    block = doc.get(section)
    if not isinstance(block, dict) or field not in block:
        raise SystemExit(
            f"error: {label} report '{path}' lacks '{section}.{field}'"
        )
    return float(block[field])


def evaluate(name: str, value: float, op: str, bound: float) -> bool:
    """Prints one gate line and returns whether it held."""
    predicate, symbol = OPS[op]
    ok = predicate(value, bound)
    print(f"{name}: {value:g} (want {symbol} {bound:g}) "
          f"{'ok' if ok else 'FAIL'}")
    return ok


def check_table(report: dict, report_path: str, checks, label: str,
                ok_message: str) -> int:
    """Evaluates one (section, field, op, bound) table against a report."""
    failures = 0
    for section, field, op, bound in checks:
        value = walk_field(report, section, field, report_path, label)
        failures += 0 if evaluate(f"{section}.{field}", value, op,
                                  bound) else 1
    if failures:
        print(f"FAIL: {failures} {label} gate(s) violated")
        return 1
    print(f"OK: {ok_message}")
    return 0


def metric_names(doc: dict, prefix: str = "") -> list[str]:
    """Flattened dotted names of every numeric field in the document.

    Arrays of row objects (the mrgp baselines) are flattened with an index
    component, e.g. ``crossover.0.max_abs_diff``, so --list shows every
    gated metric whichever shape the baseline uses.
    """
    names: list[str] = []
    for key, value in doc.items():
        path = f"{prefix}{key}"
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            names.append(path)
        elif isinstance(value, dict):
            names.extend(metric_names(value, f"{path}."))
        elif isinstance(value, list):
            for i, element in enumerate(value):
                if isinstance(element, dict):
                    names.extend(metric_names(element, f"{path}.{i}."))
                elif isinstance(element, (int, float)) and not isinstance(
                        element, bool):
                    names.append(f"{path}.{i}")
    return names


def benchmark_time_ms(report: dict, name: str) -> float:
    """Real time of the named benchmark in milliseconds."""
    unit_scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
    for entry in report.get("benchmarks", []):
        if entry.get("name") != name:
            continue
        if entry.get("run_type") == "aggregate":
            continue
        scale = unit_scale.get(entry.get("time_unit", "ns"))
        if scale is None:
            raise SystemExit(f"error: unknown time_unit in entry: {entry}")
        return float(entry["real_time"]) * scale
    raise SystemExit(f"error: benchmark '{name}' not found in report")


def check_runtime(report: dict, baseline_path: str, tolerance: float) -> int:
    baseline = load_json(baseline_path, "baseline")
    if BASELINE_KEY not in baseline:
        raise SystemExit(
            f"error: baseline '{baseline_path}' lacks '{BASELINE_KEY}'"
        )
    reference_ms = float(baseline[BASELINE_KEY])
    measured_ms = benchmark_time_ms(report, BENCHMARK_NAME)
    limit_ms = reference_ms * (1.0 + tolerance)

    print(
        f"{BENCHMARK_NAME}: measured {measured_ms:.3f} ms, "
        f"baseline {reference_ms:.3f} ms, "
        f"limit {limit_ms:.3f} ms (+{tolerance:.0%})"
    )
    if measured_ms > limit_ms:
        print("FAIL: uncached 6v analyzer solve regressed past the limit")
        return 1
    print("OK: within budget")
    return 0


def monitor_margin_floor(recorded_margin: float, tolerance: float) -> float:
    """Fresh-margin floor: the recorded margin shrunk by the tolerance.

    The adaptive-vs-best-static margin is the deliverable of the drift
    experiment; letting it silently decay to barely-positive would keep the
    sign gate green while losing the result. The floor never goes below
    zero — a negative recorded margin (which the table gate rejects anyway)
    must not manufacture permission to lose.
    """
    return max(0.0, recorded_margin * (1.0 - tolerance))


def check_monitor(report: dict, report_path: str, baseline_path: str,
                  tolerance: float) -> int:
    status = check_table(report, report_path, MONITOR_CHECKS, "monitor",
                         "closed-loop adaptive rejuvenation contract holds")
    # Recorded-margin comparison — skipped when the report IS the recorded
    # baseline (fresh-run gating in CI passes the fresh file plus the
    # committed baseline; gating the committed file alone still works).
    baseline = load_json(baseline_path, "baseline")
    recorded = walk_field(baseline, "drift", "margin", baseline_path,
                          "monitor baseline")
    measured = walk_field(report, "drift", "margin", report_path, "monitor")
    floor = monitor_margin_floor(recorded, tolerance)
    ok = measured >= floor
    print(
        f"drift.margin vs recorded: measured {measured:g}, recorded "
        f"{recorded:g}, floor {floor:g} (-{tolerance:.0%}) "
        f"{'ok' if ok else 'FAIL'}"
    )
    if not ok:
        print("FAIL: adaptive margin decayed below the recorded baseline")
        return 1
    return status


def check_mrgp(report: dict, report_path: str) -> int:
    # MRGP-mode bounds (see the module docstring): equivalence budget
    # against the dense oracle, the horizon whose rows carry the speedup
    # floors, kAuto's routing slack, the state range the scaling series must
    # reach, and the storage bound that keeps the operator honest about
    # never assembling the embedded chain.
    max_abs_diff = 1e-10
    speedup_floor_states = 256
    speedup_tau = 600.0
    routing_slack = 1.5
    min_scaling_states = 10_000
    max_scaling_states_floor = 50_000
    nonzeros_per_state = 64
    mass_budget = 1e-9

    def rows(section: str) -> list[dict]:
        block = report.get(section)
        if not isinstance(block, list) or not block:
            raise SystemExit(
                f"error: mrgp report '{report_path}' lacks a non-empty "
                f"'{section}' array"
            )
        return block

    failures = 0

    def check(label: str, ok: bool, detail: str) -> None:
        nonlocal failures
        print(f"{label}: {detail} {'ok' if ok else 'FAIL'}")
        failures += 0 if ok else 1

    def num(row: dict, name: str, label: str) -> float:
        if name not in row:
            raise SystemExit(
                f"error: mrgp report '{report_path}' lacks '{name}' in "
                f"{label}"
            )
        return float(row[name])

    big_speedup = 0.0
    for row in rows("crossover"):
        label = (f"crossover[n={row.get('n')},f={row.get('f')},"
                 f"r={row.get('r')},tau={row.get('tau')}]")
        diff = num(row, "max_abs_diff", label)
        check(label, diff <= max_abs_diff,
              f"max_abs_diff {diff:.2e} (want <= {max_abs_diff:g})")
        dense_ms = num(row, "dense_ms", label)
        mfree_ms = num(row, "mfree_ms", label)
        picked = row.get("auto_backend")
        if picked not in ("dense", "mfree"):
            raise SystemExit(
                f"error: mrgp report '{report_path}' has auto_backend "
                f"'{picked}' in {label} (want dense or mfree)"
            )
        picked_ms = dense_ms if picked == "dense" else mfree_ms
        fastest_ms = min(dense_ms, mfree_ms)
        check(label, picked_ms <= routing_slack * fastest_ms,
              f"auto picks {picked} at {picked_ms:.2f} ms, fastest "
              f"{fastest_ms:.2f} ms (want <= {routing_slack:g}x)")
        if num(row, "tau", label) != speedup_tau:
            continue
        states = num(row, "states", label)
        speedup = num(row, "speedup", label)
        big_speedup = max(big_speedup, speedup)
        if states >= speedup_floor_states:
            check(label, speedup >= 1.0,
                  f"speedup {speedup:.2f}x at {states:g} states (want >= 1)")
    check("crossover", big_speedup >= 10.0,
          f"best speedup at tau={speedup_tau:g} {big_speedup:.1f}x "
          "(want >= 10)")

    max_states = 0.0
    min_states = float("inf")
    for row in rows("scaling"):
        label = f"scaling[n={row.get('n')},f={row.get('f')},r={row.get('r')}]"
        states = num(row, "states", label)
        max_states = max(max_states, states)
        min_states = min(min_states, states)
        check(label, row.get("auto_backend") == "mfree",
              f"backend '{row.get('auto_backend')}' (want 'mfree')")
        solve_ms = num(row, "solve_ms", label)
        check(label, solve_ms > 0.0, f"solve_ms {solve_ms:g} (want > 0)")
        nnz = num(row, "stored_nonzeros", label)
        check(label, nnz <= nonzeros_per_state * states,
              f"stored_nonzeros {nnz:g} (want <= {nonzeros_per_state} "
              "per state)")
        mass = num(row, "prob_mass_error", label)
        check(label, mass <= mass_budget,
              f"prob_mass_error {mass:.2e} (want <= {mass_budget:g})")
    check("scaling", min_states >= min_scaling_states,
          f"smallest family {min_states:g} states "
          f"(want >= {min_scaling_states})")
    check("scaling", max_states >= max_scaling_states_floor,
          f"largest family {max_states:g} states "
          f"(want >= {max_scaling_states_floor})")

    if failures:
        print(f"FAIL: {failures} mrgp gate(s) violated")
        return 1
    print("OK: matrix-free MRGP contract holds")
    return 0

def check_store(report: dict, report_path: str) -> int:
    status = check_table(report, report_path, STORE_CHECKS, "store",
                         "persistent-store warm-start contract holds")
    # Every synthetic read probe must have hit: a short count means get()
    # rejected entries the same process just wrote. A self-relative gate
    # (reads_hit == ops), so it cannot live in the static table.
    latency = report["latency"]
    if "reads_hit" in latency and "ops" in latency:
        if not evaluate("latency.reads_hit", float(latency["reads_hit"]),
                        "eq", float(latency["ops"])):
            print("FAIL: store read probes missed")
            return 1
    return status


def check_service(report: dict, report_path: str) -> int:
    scenarios = report.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        raise SystemExit(
            f"error: service report '{report_path}' has no scenarios"
        )
    if SERVICE_BURST_SCENARIO not in scenarios:
        raise SystemExit(
            f"error: service report '{report_path}' lacks the "
            f"'{SERVICE_BURST_SCENARIO}' scenario"
        )

    failures = 0
    for name, block in sorted(scenarios.items()):
        if not isinstance(block, dict):
            raise SystemExit(
                f"error: scenario '{name}' in '{report_path}' is not an "
                "object"
            )
        checks = list(SERVICE_COMMON_CHECKS)
        if name == SERVICE_BURST_SCENARIO:
            checks = SERVICE_BURST_CHECKS + checks
        for field, op, bound in checks:
            if field not in block:
                raise SystemExit(
                    f"error: service report '{report_path}' lacks "
                    f"'{name}.{field}'"
                )
            failures += 0 if evaluate(f"{name}.{field}",
                                      float(block[field]), op, bound) else 1
    if failures:
        print(f"FAIL: {failures} service gate(s) violated")
        return 1
    print("OK: service load-test contract holds")
    return 0


# ---------------------------------------------------------------------------
# Mode registry: flag name -> (checks table, label, success line). Modes
# with extra logic beyond the table (runtime, mrgp, service, store's
# self-relative probe check, monitor's recorded-margin comparison) wrap the
# shared pieces in their own check_* function above.

TABLE_MODES = {
    "sweep": (SWEEP_CHECKS, "staged-sweep",
              "staged sweep reuse within contract"),
    "archspace": (ARCHSPACE_CHECKS, "archspace",
                  "heterogeneous architecture-space contract holds"),
}


def self_test() -> int:
    """Unit checks of the gating logic against synthetic documents."""
    failures = 0

    def expect(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"self-test {name}: {'ok' if ok else 'FAIL'}")
        failures += 0 if ok else 1

    # Op semantics, including the boundary cases that gates rely on.
    expect("ops.ge_boundary", OPS["ge"][0](5.0, 5.0))
    expect("ops.gt_boundary", not OPS["gt"][0](0.0, 0.0))
    expect("ops.le_boundary", OPS["le"][0](1.0, 1.0))
    expect("ops.eq", OPS["eq"][0](1.0, 1.0) and not OPS["eq"][0](1.0, 0.0))

    # Table evaluation: a passing and a failing document through the same
    # table the monitor mode uses.
    good = {
        "drift": {"adaptive_beats_best_static": 1, "margin": 0.01,
                  "best_static_interval": 150},
        "controller": {"degraded_updates": 0, "structure_explorations": 1,
                       "resolves": 39, "retunes": 14},
    }
    bad = json.loads(json.dumps(good))
    bad["controller"]["structure_explorations"] = 2
    expect("table.pass", check_table(good, "<mem>", MONITOR_CHECKS,
                                     "monitor", "synthetic") == 0)
    expect("table.fail", check_table(bad, "<mem>", MONITOR_CHECKS,
                                     "monitor", "synthetic") == 1)

    # Missing-field walking exits with a one-line error, not a traceback.
    try:
        walk_field({}, "drift", "margin", "<mem>", "monitor")
        expect("walk.missing", False)
    except SystemExit as e:
        expect("walk.missing", "drift.margin" in str(e.code))

    # Margin floor arithmetic: tolerance shrinks the recorded margin and a
    # negative record cannot license a loss.
    expect("margin.floor", monitor_margin_floor(0.02, 0.25) == 0.015)
    expect("margin.nonneg", monitor_margin_floor(-0.5, 0.25) == 0.0)

    # Schema gating: newer documents exit with the dedicated code.
    try:
        check_schema({"schema_version": SUPPORTED_SCHEMA_VERSION + 1},
                     "<mem>", "baseline")
        expect("schema.newer", False)
    except SystemExit as e:
        expect("schema.newer", e.code == EXIT_SCHEMA)
    check_schema({"schema_version": SUPPORTED_SCHEMA_VERSION}, "<mem>",
                 "baseline")
    expect("schema.current", True)

    # MRGP routing: kAuto's pick may trail the faster backend by at most
    # 1.5x on any cell; the speedup floors read the tau = 600 rows only.
    def mrgp_doc(dense_ms: float, mfree_ms: float, picked: str) -> dict:
        cell = {"n": 6, "f": 1, "r": 1, "states": 70, "max_abs_diff": 0.0}
        far = dict(cell, tau=600.0, states=676, dense_ms=100.0,
                   mfree_ms=5.0, speedup=20.0, auto_backend="mfree")
        probe = dict(cell, tau=3000.0, dense_ms=dense_ms, mfree_ms=mfree_ms,
                     speedup=dense_ms / mfree_ms, auto_backend=picked)
        scaling = [{"n": n, "f": 2, "r": 4, "states": states,
                    "auto_backend": "mfree", "solve_ms": 1.0,
                    "stored_nonzeros": states, "prob_mass_error": 0.0}
                   for n, states in ((40, 10_935), (100, 72_285))]
        return {"crossover": [far, probe], "scaling": scaling}

    with contextlib.redirect_stdout(io.StringIO()):
        routed_ok = check_mrgp(mrgp_doc(2.0, 2.9, "mfree"), "<mem>")
        routed_bad = check_mrgp(mrgp_doc(2.0, 3.1, "mfree"), "<mem>")
        routed_dense = check_mrgp(mrgp_doc(2.0, 40.0, "dense"), "<mem>")
    expect("mrgp.routing_within_slack", routed_ok == 0)
    expect("mrgp.routing_beyond_slack", routed_bad == 1)
    expect("mrgp.routing_dense_pick", routed_dense == 0)

    # Metric flattening covers nested objects and row arrays, skips bools.
    names = metric_names({"a": 1, "b": {"c": 2.5, "flag": True},
                          "rows": [{"x": 1}, 3]})
    expect("metrics.flatten",
           names == ["a", "b.c", "rows.0.x", "rows.1"])

    if failures:
        print(f"FAIL: {failures} self-test check(s) violated")
        return 1
    print("OK: gating logic self-test passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "report",
        nargs="?",
        help="JSON report: google-benchmark output (runtime mode) or the "
        "bench document of the selected mode",
    )
    parser.add_argument(
        "--baseline",
        default="bench_results/BENCH_runtime.json",
        help="baseline JSON with the recorded reference values",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("NVP_BENCH_TOLERANCE", "0.25")),
        help="allowed fractional drift against the recorded baseline "
        "(default 0.25, or NVP_BENCH_TOLERANCE)",
    )
    parser.add_argument(
        "--sweep",
        action="store_true",
        help="gate a bench_sweep_throughput report instead of the "
        "google-benchmark runtime report",
    )
    parser.add_argument(
        "--service",
        action="store_true",
        help="gate a tools/loadgen BENCH_service.json report instead of "
        "the google-benchmark runtime report",
    )
    parser.add_argument(
        "--mrgp",
        action="store_true",
        help="gate a bench_mrgp_scaling BENCH_mrgp_scaling.json report "
        "instead of the google-benchmark runtime report",
    )
    parser.add_argument(
        "--store",
        action="store_true",
        help="gate a bench_store_persistence BENCH_store.json report "
        "instead of the google-benchmark runtime report",
    )
    parser.add_argument(
        "--archspace",
        action="store_true",
        help="gate a bench_archspace_hetero BENCH_archspace.json report "
        "instead of the google-benchmark runtime report",
    )
    parser.add_argument(
        "--monitor",
        action="store_true",
        help="gate a bench_monitor BENCH_monitor.json report (fresh-run "
        "table plus the recorded-margin comparison against --baseline)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the numeric metric names in the baseline file and exit",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the tool's own unit checks against synthetic documents "
        "and exit",
    )
    args = parser.parse_args()
    if args.tolerance < 0:
        parser.error("--tolerance must be non-negative")
    mode_flags = [args.sweep, args.service, args.mrgp, args.store,
                  args.archspace, args.monitor]
    if sum(mode_flags) > 1:
        parser.error("--sweep, --service, --mrgp, --store, --archspace, "
                     "and --monitor are mutually exclusive")

    if args.self_test:
        return self_test()

    if args.list:
        for name in metric_names(load_json(args.baseline, "baseline")):
            print(name)
        return 0

    if args.report is None:
        parser.error("a report file is required unless --list or "
                     "--self-test is given")
    report = load_json(args.report, "report")
    if args.sweep:
        checks, label, ok_message = TABLE_MODES["sweep"]
        return check_table(report, args.report, checks, label, ok_message)
    if args.service:
        return check_service(report, args.report)
    if args.mrgp:
        return check_mrgp(report, args.report)
    if args.store:
        return check_store(report, args.report)
    if args.archspace:
        checks, label, ok_message = TABLE_MODES["archspace"]
        return check_table(report, args.report, checks, label, ok_message)
    if args.monitor:
        baseline = args.baseline
        if baseline == "bench_results/BENCH_runtime.json":
            baseline = "bench_results/BENCH_monitor.json"
        return check_monitor(report, args.report, baseline, args.tolerance)
    return check_runtime(report, args.baseline, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
