#!/usr/bin/env python3
"""CI fault gauntlet: drive nvpcli sweeps under forced fault injection.

Each run sweeps the rejuvenation interval over `--points` points for a paper
model while NVP_FAULT_INJECT arms one injection site at rate 1.0. The gate
asserts the robustness contract end to end:

  * the process never aborts (exit code 0, full CSV on stdout),
  * every point still appears in the output — failed points carry a
    structured error envelope instead of a reliability value,
  * schedules that hit an unexercised or value-neutral site (uniformization
    on the CTMC-only 4v model, forced cache misses anywhere) leave the
    results bit-identical to the clean baseline,
  * every other armed run shows its site fired (`fault.injected.<site>` in
    the run's --metrics-json): kAuto's dispatch must not quietly route a
    schedule around the code it is meant to break,
  * the `pool` schedule (every parallel_for dispatch fails) gives the same
    bytes over three runs at --jobs 4 as at --jobs 1.

One JSON artifact per run plus a summary land in --out (default
gauntlet-out/) so CI uploads them for post-mortem on failure.

Service mode (--service) runs the same schedules against a live nvpd
daemon: for each schedule the daemon is started under NVP_FAULT_INJECT, a
loadgen burst hammers it, and remote analyze requests probe both models.
The gate asserts the daemon never aborts (loadgen sees no transport
errors, the daemon exits 0 after a protocol shutdown), failed responses
carry structured error envelopes, and value-neutral schedules return
byte-identical results to the clean baseline. Schedules arming the mfree
site probe 6v at a 100 s interval, where kAuto routes it to the operator,
and its response must name the mfree backend.

Store mode (--store) proves the persistent solve store's corruption
contract against live on-disk entries: a cold sweep populates a fresh
store, a warm re-run must perform zero explorations/solves (counter-
verified) with bit-identical results and a wall-clock win, then every
entry is mutated three ways (truncate, bit-flip header, bit-flip payload)
and each re-run must detect the damage (`store.corrupt` counters), exit 0,
and still emit bit-identical results. The store-read / store-write fault
injection schedules close the loop: forced read misses and failed writes
change costs only, never values.

Archspace mode (--archspace) drives the heterogeneous architecture-space
explorer (`nvpcli archspace --hetero`, every two-group split up to
--max-n) under the same injection sites. The explorer must never abort:
failed candidates degrade into per-candidate error envelopes while the
rest of the family keeps its values, forced cache misses stay
bit-identical, and the MRGP-only uniformization site must split the family
exactly along the rejuvenation axis — candidates with the deterministic
rejuvenation clock (MRGP solves) envelope, plain candidates (pure CTMC
solves) match the clean baseline bit for bit.

Monitor mode (--monitor) drives a closed-loop `nvpcli monitor` session
(drifting attack rate, online estimation, rates-only re-solves steering the
rejuvenation clock) under the same injection sites. The controller must
never abort: forced cache misses and store read/write faults are cost-only
(the per-update CSV stays bit-identical to the clean baseline), the
matrix-free stage failure degrades to the fallback chain (values for every
update, no envelopes), and allocation faults — which kill every re-solve —
must degrade each update into an envelope row that holds the last-good
target (the clock keeps its initial set-point) while the session still
exits 0 with a full CSV.

Usage: tools/fault_gauntlet.py [--cli build/tools/nvpcli] [--points 50]
                               [--out gauntlet-out]
                               [--service [--loadgen build/tools/loadgen]]
                               [--store]
                               [--archspace [--max-n 7]]
                               [--monitor]
"""

import argparse
import csv
import glob
import io
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time

# Expectation per run: "envelopes" means every row must carry an error
# envelope and no value; "clean" means no error column and every row must
# carry a value; "identical" additionally pins values to the clean baseline
# of the same model (injection at that site must not perturb results).
# The optional fourth element is extra nvpcli arguments for the run (e.g. a
# --solver-config that pins the fallback chain).
SCHEDULES = [
    ("clean", None, {"4v": "clean", "6v": "clean"}, []),
    # The 6v model's deterministic rejuvenation clock forces the MRGP
    # uniformization path; the 4v preset solves as a pure CTMC, so the armed
    # site is never reached and results must match the baseline exactly.
    ("solver", "uniformization:1.0:11", {"4v": "identical", "6v": "envelopes"},
     []),
    # Dense-assembly allocation faults hit every solve of either model.
    ("alloc", "alloc:1.0:23", {"4v": "envelopes", "6v": "envelopes"}, []),
    # Forced cache misses change only costs, never values.
    ("cache", "cache:1.0:5", {"4v": "identical", "6v": "identical"}, []),
    # The matrix-free stage: kAuto routes the 6v points with short clock
    # series (intervals below ~315 s, 3 of the 50) through the operator
    # backend, whose default chain is [mfree, power] — the injected stage
    # failure must degrade to power iteration, still yielding a value for
    # every point, and the site must have fired. The 4v pure-CTMC solve is
    # dense at this size and never arms the site, so its results must match
    # the baseline exactly.
    ("mfree-fallback", "mfree:1.0:31", {"4v": "identical", "6v": "clean"},
     []),
    # Pinning the chain to the mfree rung alone removes every rescue path:
    # both models must degrade into per-point error envelopes, not aborts.
    ("mfree-pinned", "mfree:1.0:37", {"4v": "envelopes", "6v": "envelopes"},
     ["--solver-config", "backend=mfree,fallback=mfree"]),
]


def run_sweep(cli, model, spec, points, extra_args, metrics_path):
    env = dict(os.environ)
    env.pop("NVP_FAULT_INJECT", None)
    if spec is not None:
        env["NVP_FAULT_INJECT"] = spec
    cmd = [
        cli, "sweep", "--paper", model, "--param", "interval",
        "--from", "200", "--to", "3000", "--points", str(points),
        "--format", "csv", "--metrics-json", metrics_path,
    ] + list(extra_args)
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    rows = []
    counters = {}
    if proc.returncode == 0:
        reader = csv.DictReader(io.StringIO(proc.stdout))
        rows = list(reader)
        with open(metrics_path) as f:
            counters = json.load(f)["metrics"]["counters"]
    return {
        "command": " ".join(cmd),
        "fault_inject": spec,
        "model": model,
        "exit_code": proc.returncode,
        "stderr": proc.stderr.strip(),
        "stdout": proc.stdout,
        "counters": counters,
        "rows": rows,
    }


# The pool site fails parallel_for dispatch. The decision is drawn once per
# loop on the calling thread, before any index runs, so the degraded sweep
# (values and envelope text alike) must be byte-identical over repeated
# runs at --jobs 4 and equal to the --jobs 1 output.
POOL_SPEC = "pool:1.0:0"
POOL_JOBS = ["4", "4", "4", "1"]


def check_pool(runs, points):
    errors = []
    for run in runs:
        if run["exit_code"] != 0:
            errors.append("aborted with exit code %d: %s"
                          % (run["exit_code"], run["stderr"]))
    if errors:
        return errors
    if runs[0]["counters"].get("fault.injected.pool", 0) <= 0:
        errors.append("fault site pool never armed")
    if len(runs[0]["rows"]) != points:
        errors.append("expected %d sweep rows, got %d"
                      % (points, len(runs[0]["rows"])))
    if not any(row.get("error", "") for row in runs[0]["rows"]):
        errors.append("no point degraded into an envelope")
    for jobs, run in zip(POOL_JOBS[1:], runs[1:]):
        if run["stdout"] != runs[0]["stdout"]:
            errors.append("--jobs %s output differs from the first --jobs 4 "
                          "run" % jobs)
    return errors


def check(run, expectation, points, baseline):
    errors = []
    if run["exit_code"] != 0:
        errors.append("aborted with exit code %d: %s"
                      % (run["exit_code"], run["stderr"]))
        return errors
    # A schedule that is meant to perturb a run must actually have reached
    # its site (kAuto may route every point around it).
    spec = run["fault_inject"]
    if spec is not None and expectation != "identical":
        site = spec.split(":")[0]
        if run["counters"].get("fault.injected.%s" % site, 0) <= 0:
            errors.append("fault site %s never armed" % site)
    rows = run["rows"]
    if len(rows) != points:
        errors.append("expected %d sweep rows, got %d" % (points, len(rows)))
        return errors
    for i, row in enumerate(rows):
        value = row.get("E[R_sys]", "")
        envelope = row.get("error", "")
        if expectation == "envelopes":
            if not envelope:
                errors.append("row %d: expected an error envelope" % i)
            if value:
                errors.append("row %d: degraded point still has a value" % i)
        else:
            if envelope:
                errors.append("row %d: unexpected envelope: %s" % (i, envelope))
            if not value:
                errors.append("row %d: missing reliability value" % i)
    if expectation == "identical" and not errors:
        clean = [r["E[R_sys]"] for r in baseline["rows"]]
        got = [r["E[R_sys]"] for r in rows]
        if clean != got:
            errors.append("results differ from the clean baseline")
    return errors


# ---------------------------------------------------------------------------
# Service mode: the same schedules, but injected into a live nvpd daemon.


class Daemon:
    """nvpd under a fault-injection schedule, with stderr drained."""

    def __init__(self, cli, spec):
        env = dict(os.environ)
        env.pop("NVP_FAULT_INJECT", None)
        if spec is not None:
            env["NVP_FAULT_INJECT"] = spec
        self.proc = subprocess.Popen(
            [cli, "serve", "--port", "0"], env=env,
            stderr=subprocess.PIPE, text=True)
        self.endpoint = None
        line = self.proc.stderr.readline()
        match = re.search(r"nvpd listening on (\S+:\d+)", line)
        if match:
            self.endpoint = match.group(1)
        # Keep draining so the daemon's shutdown report can't block the pipe.
        self.stderr_tail = []
        self.drainer = threading.Thread(target=self._drain, daemon=True)
        self.drainer.start()

    def _drain(self):
        for line in self.proc.stderr:
            self.stderr_tail.append(line)

    def stop(self, cli, timeout=60):
        """Protocol shutdown; returns the daemon's exit code (None = hung)."""
        subprocess.run([cli, "shutdown", "--remote", self.endpoint],
                       capture_output=True, text=True, timeout=timeout)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return None
        self.drainer.join(timeout=5)
        return code


# Service mode probes one analyze per model. kAuto sends the 6v model at its
# default 600 s interval to the dense backend, which never reaches the mfree
# site; at 100 s its clock series are short and it routes to the operator,
# so schedules arming that site probe 6v there and, where the response
# carries a value, require it to name the mfree backend.
MFREE_PROBE_ARGS = ["--interval", "100"]


def remote_analyze(cli, endpoint, model, extra_args):
    proc = subprocess.run(
        [cli, "analyze", "--remote", endpoint, "--paper", model]
        + list(extra_args),
        capture_output=True, text=True, timeout=120)
    return {"exit_code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr.strip()}


def check_remote(run, expectation, baseline):
    errors = []
    if expectation == "envelopes":
        if run["exit_code"] != 2:
            errors.append("expected a structured remote error (exit 2), "
                          "got exit %d" % run["exit_code"])
        if "error: remote analyze failed" not in run["stderr"]:
            errors.append("missing structured error envelope: %r"
                          % run["stderr"])
    else:
        if run["exit_code"] != 0:
            errors.append("expected success, got exit %d: %s"
                          % (run["exit_code"], run["stderr"]))
        elif expectation == "identical" and run["stdout"] != baseline["stdout"]:
            errors.append("results differ from the clean baseline")
    return errors


def run_service_gauntlet(args):
    os.makedirs(args.out, exist_ok=True)
    summary = {"mode": "service", "runs": [], "failures": 0}
    baselines = {}
    failed = False
    for schedule, spec, expectations, extra_args in SCHEDULES:
        daemon = Daemon(args.cli, spec)
        if daemon.endpoint is None:
            print("[FAIL] %s: daemon did not start" % schedule)
            summary["runs"].append({"name": schedule, "ok": False,
                                    "errors": ["daemon did not start"]})
            summary["failures"] += 1
            failed = True
            continue
        runs = []
        # Hammer first: the daemon must survive a pipelined burst whatever
        # the schedule does to its solves (structured errors, not aborts).
        load = subprocess.run(
            [args.loadgen, "--port", daemon.endpoint.split(":")[1],
             "--connections", "4", "--window", "64", "--requests", "512",
             "--distinct", "4", "--label", "gauntlet-" + schedule,
             "--out", os.path.join(args.out, "gauntlet_load.json")],
            capture_output=True, text=True, timeout=300)
        if load.returncode != 0:
            runs.append(("loadgen", ["loadgen failed (exit %d): %s"
                                     % (load.returncode,
                                        load.stderr.strip())]))
        for model, expectation in sorted(expectations.items()):
            mfree_probe = (spec is not None and spec.startswith("mfree:")
                           and model == "6v")
            probe_args = list(extra_args)
            if mfree_probe:
                probe_args += MFREE_PROBE_ARGS
            run = remote_analyze(args.cli, daemon.endpoint, model, probe_args)
            if schedule == "clean":
                baselines[model] = run
            errors = check_remote(run, expectation, baselines.get(model))
            if mfree_probe and expectation != "envelopes" and not errors \
                    and not re.search(r'"backend":\s*"mfree"', run["stdout"]):
                errors.append("the mfree probe did not run on the mfree "
                              "backend: %r" % run["stdout"][:200])
            runs.append(("%s-%s" % (schedule, model), errors))
        code = daemon.stop(args.cli)
        if code != 0:
            runs.append(("shutdown",
                         ["daemon exit code %s after graceful shutdown"
                          % code]))
        for name, errors in runs:
            status = "ok" if not errors else "FAIL"
            print("[%s] service %s: %s" % (status, name, errors or "pass"))
            summary["runs"].append({"name": name, "ok": not errors,
                                    "errors": errors})
            if errors:
                failed = True
                summary["failures"] += 1
    with open(os.path.join(args.out, "service_summary.json"), "w") as f:
        json.dump(summary, f, indent=2)
    if failed:
        print("service gauntlet FAILED (%d check(s)); artifacts in %s"
              % (summary["failures"], args.out))
        return 1
    print("service gauntlet passed; artifacts in %s" % args.out)
    return 0


# ---------------------------------------------------------------------------
# Store mode: corrupt live persistent-store entries and prove detection.


# Each mutation damages every on-disk entry a different way; all three must
# trip a distinct validation rung in Store::get (short read, header checksum,
# payload checksum). Offsets follow the v1 entry layout: 64-byte header
# (kind at byte 12, covered by the header checksum over bytes [0, 40)),
# payload from byte 64.
STORE_MUTATIONS = ["truncate", "header-flip", "payload-flip"]


def mutate_entry(path, mutation):
    size = os.path.getsize(path)
    with open(path, "r+b") as f:
        if mutation == "truncate":
            f.truncate(max(size // 2, 1))
        elif mutation == "header-flip":
            f.seek(12)
            byte = f.read(1)[0]
            f.seek(12)
            f.write(bytes([byte ^ 0x40]))
        elif mutation == "payload-flip":
            offset = 67 if size > 67 else size - 1
            f.seek(offset)
            byte = f.read(1)[0]
            f.seek(offset)
            f.write(bytes([byte ^ 0x01]))
        else:
            raise ValueError("unknown mutation %r" % mutation)


def parse_counters(stderr):
    """Counter lines from `nvpcli --metrics` look like `name = 123`.

    Counters are registered lazily, so one that never fired is simply
    absent from the dump — callers must treat a missing name as zero.
    """
    counters = {}
    for line in stderr.splitlines():
        match = re.match(r"^\s*([\w.\-]+)\s*=\s*(\d+)\s*$", line)
        if match:
            counters[match.group(1)] = int(match.group(2))
    return counters


def run_store_sweep(cli, points, store_dir, spec=None):
    env = dict(os.environ)
    env.pop("NVP_FAULT_INJECT", None)
    env.pop("NVP_STORE", None)
    env.pop("NVP_STORE_CAP_MB", None)
    if spec is not None:
        env["NVP_FAULT_INJECT"] = spec
    cmd = [
        cli, "sweep", "--paper", "6v", "--param", "interval",
        "--from", "200", "--to", "3000", "--points", str(points),
        "--format", "csv", "--store", store_dir, "--metrics",
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    elapsed = time.monotonic() - started
    return {
        "command": " ".join(cmd),
        "fault_inject": spec,
        "exit_code": proc.returncode,
        "stdout": proc.stdout,
        "stderr": proc.stderr.strip(),
        "counters": parse_counters(proc.stderr),
        "elapsed_s": elapsed,
    }


def check_store_run(run, baseline, require=(), forbid=()):
    """exit 0, bit-identical CSV to the cold baseline, counter constraints.

    `require` names counters that must be > 0; `forbid` names counters that
    must be absent or zero (lazily-registered counters never dumped count
    as zero).
    """
    errors = []
    if run["exit_code"] != 0:
        errors.append("aborted with exit code %d: %s"
                      % (run["exit_code"], run["stderr"]))
        return errors
    if baseline is not None and run["stdout"] != baseline["stdout"]:
        errors.append("sweep output is not bit-identical to the cold run")
    for name in require:
        if run["counters"].get(name, 0) <= 0:
            errors.append("expected counter %s > 0 (got %d)"
                          % (name, run["counters"].get(name, 0)))
    for name in forbid:
        if run["counters"].get(name, 0) != 0:
            errors.append("expected counter %s == 0 (got %d)"
                          % (name, run["counters"].get(name, 0)))
    return errors


def run_store_gauntlet(args):
    os.makedirs(args.out, exist_ok=True)
    store_dir = os.path.join(args.out, "gauntlet-store")
    shutil.rmtree(store_dir, ignore_errors=True)
    summary = {"mode": "store", "points": args.points, "runs": [],
               "failures": 0}
    failed = False

    def record(name, run, errors):
        nonlocal failed
        run["check_errors"] = errors
        with open(os.path.join(args.out, "store-%s.json" % name), "w") as f:
            json.dump(run, f, indent=2)
        status = "ok" if not errors else "FAIL"
        print("[%s] store %s: %s" % (status, name, errors or "pass"))
        summary["runs"].append({"name": name, "ok": not errors,
                                "errors": errors})
        if errors:
            failed = True
            summary["failures"] += 1

    # Cold: a fresh store must fill (writes) without hitting.
    cold = run_store_sweep(args.cli, args.points, store_dir)
    record("cold", cold,
           check_store_run(cold, None, require=["store.write"],
                           forbid=["store.hit", "store.corrupt"]))

    # Warm: every rewards-stage result must come off disk — zero
    # state-space explorations, zero solves (both counters are lazily
    # registered, so "absent" is the passing shape) — bit-identical and
    # faster.
    warm = run_store_sweep(args.cli, args.points, store_dir)
    warm_errors = check_store_run(
        warm, cold, require=["store.hit"],
        forbid=["store.miss", "store.corrupt", "core.analyzer.solves",
                "petri.reachability.builds"])
    if not warm_errors and warm["elapsed_s"] >= cold["elapsed_s"]:
        warm_errors.append(
            "warm run (%.3fs) was not faster than cold (%.3fs)"
            % (warm["elapsed_s"], cold["elapsed_s"]))
    record("warm", warm, warm_errors)

    # Corruption rounds: damage EVERY live entry, then re-run. The sweep
    # must detect each mutation (store.corrupt), silently recompute, exit 0
    # with bit-identical output, and repair the store (puts overwrite the
    # damaged files), so each round starts from a healthy store again.
    for mutation in STORE_MUTATIONS:
        entries = sorted(glob.glob(os.path.join(store_dir, "entries",
                                                "*.nvps")))
        if not entries:
            record(mutation, {"exit_code": -1, "stderr": "", "stdout": "",
                              "counters": {}, "elapsed_s": 0.0},
                   ["no store entries left to corrupt"])
            continue
        for path in entries:
            mutate_entry(path, mutation)
        run = run_store_sweep(args.cli, args.points, store_dir)
        run["mutation"] = mutation
        run["mutated_entries"] = len(entries)
        record(mutation, run,
               check_store_run(run, cold, require=["store.corrupt",
                                                   "store.write"]))

    # Injection schedules: forced read misses and failed writes are pure
    # cost faults — results stay bit-identical either way.
    read_faults = run_store_sweep(args.cli, args.points, store_dir,
                                  spec="store-read:1.0:41")
    record("fault-read", read_faults,
           check_store_run(read_faults, cold,
                           require=["fault.injected.store-read"],
                           forbid=["store.hit"]))
    # Writes only happen on misses, so this run needs a cold store: a warm
    # one would satisfy every lookup from disk and never arm the site.
    write_store = os.path.join(args.out, "gauntlet-store-writefault")
    shutil.rmtree(write_store, ignore_errors=True)
    write_faults = run_store_sweep(args.cli, args.points, write_store,
                                   spec="store-write:1.0:43")
    record("fault-write", write_faults,
           check_store_run(write_faults, cold,
                           require=["fault.injected.store-write"],
                           forbid=["store.write", "store.hit"]))

    with open(os.path.join(args.out, "store_summary.json"), "w") as f:
        json.dump(summary, f, indent=2)
    if failed:
        print("store gauntlet FAILED (%d check(s)); artifacts in %s"
              % (summary["failures"], args.out))
        return 1
    print("store gauntlet passed; artifacts in %s" % args.out)
    return 0


# ---------------------------------------------------------------------------
# Archspace mode: the heterogeneous architecture-space explorer under the
# same injection sites — one command enumerates dozens of candidate models,
# so a single armed site must degrade per candidate, never per process.

# (schedule name, NVP_FAULT_INJECT spec, expectation). "split" pins the
# MRGP-only uniformization site: candidates with the deterministic
# rejuvenation clock must envelope, plain CTMC candidates must match the
# clean baseline exactly.
ARCHSPACE_SCHEDULES = [
    ("clean", None, "clean"),
    ("solver", "uniformization:1.0:11", "split"),
    # Dense-assembly allocation faults hit every candidate's solve.
    ("alloc", "alloc:1.0:23", "envelopes"),
    # Forced cache misses recompute duplicate candidates; values unchanged.
    ("cache", "cache:1.0:5", "identical"),
]


def run_archspace(cli, spec, max_n):
    env = dict(os.environ)
    env.pop("NVP_FAULT_INJECT", None)
    if spec is not None:
        env["NVP_FAULT_INJECT"] = spec
    # hardened-weight 1 keeps every two-group split quota-feasible, so the
    # family is maximal and the gauntlet covers the most candidates.
    cmd = [
        cli, "archspace", "--paper", "6v", "--hetero",
        "--max-n", str(max_n), "--hardened-weight", "1", "--format", "csv",
    ]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    rows = []
    if proc.returncode == 0:
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    return {
        "command": " ".join(cmd),
        "fault_inject": spec,
        "exit_code": proc.returncode,
        "stderr": proc.stderr.strip(),
        "rows": rows,
    }


def check_archspace_run(run, expectation, baseline):
    errors = []
    if run["exit_code"] != 0:
        errors.append("aborted with exit code %d: %s"
                      % (run["exit_code"], run["stderr"]))
        return errors
    rows = run["rows"]
    if not rows:
        errors.append("no candidates in the output")
        return errors
    # Results are sorted by reliability, which envelopes perturb — match
    # candidates by label instead of row order.
    by_label = {row["architecture"]: row for row in rows}
    if len(by_label) != len(rows):
        errors.append("duplicate architecture labels in the output")
    if baseline is not None and len(rows) != len(baseline["rows"]):
        errors.append("expected %d candidates, got %d"
                      % (len(baseline["rows"]), len(rows)))
    for label in sorted(by_label):
        row = by_label[label]
        value = row.get("E[R_sys]", "")
        envelope = row.get("error", "")
        rejuvenating = row.get("rejuv") == "yes"
        if expectation == "envelopes" or (expectation == "split"
                                          and rejuvenating):
            if not envelope:
                errors.append("%s: expected an error envelope" % label)
            if value:
                errors.append("%s: degraded candidate still has a value"
                              % label)
        else:
            if envelope:
                errors.append("%s: unexpected envelope: %s"
                              % (label, envelope))
            if not value:
                errors.append("%s: missing reliability value" % label)
    if expectation in ("identical", "split") and baseline and not errors:
        clean = {r["architecture"]: r["E[R_sys]"] for r in baseline["rows"]}
        for label, row in by_label.items():
            if expectation == "split" and row.get("rejuv") == "yes":
                continue
            if clean.get(label) != row.get("E[R_sys]", ""):
                errors.append("%s: value differs from the clean baseline"
                              % label)
    return errors


def run_archspace_gauntlet(args):
    os.makedirs(args.out, exist_ok=True)
    baseline = None
    summary = {"mode": "archspace", "max_n": args.max_n, "runs": [],
               "failures": 0}
    failed = False
    for schedule, spec, expectation in ARCHSPACE_SCHEDULES:
        run = run_archspace(args.cli, spec, args.max_n)
        if schedule == "clean":
            baseline = run
        errors = check_archspace_run(run, expectation, baseline)
        run["expectation"] = expectation
        run["check_errors"] = errors
        name = "archspace-%s" % schedule
        with open(os.path.join(args.out, name + ".json"), "w") as f:
            json.dump(run, f, indent=2)
        status = "ok" if not errors else "FAIL"
        print("[%s] %s (%s, %d candidates): %s"
              % (status, name, expectation, len(run["rows"]),
                 errors or "pass"))
        summary["runs"].append({"name": name, "expectation": expectation,
                                "ok": not errors, "errors": errors})
        if errors:
            failed = True
            summary["failures"] += 1
    with open(os.path.join(args.out, "archspace_summary.json"), "w") as f:
        json.dump(summary, f, indent=2)
    if failed:
        print("archspace gauntlet FAILED (%d run(s)); artifacts in %s"
              % (summary["failures"], args.out))
        return 1
    print("archspace gauntlet passed; artifacts in %s" % args.out)
    return 0


# ---------------------------------------------------------------------------
# Monitor mode: the closed-loop rejuvenation controller under injection.
# The perception campaign's RNG is independent of the analytic solves, so
# cost-only schedules replay the exact same frames and must reproduce the
# per-update CSV byte for byte; only the alloc and pool schedules — which
# fail evaluations of every re-solve — change the records, and then only
# into envelope rows.

# (schedule, NVP_FAULT_INJECT spec, expectation, needs_store). "identical"
# pins the CSV to the clean baseline; "clean" requires values everywhere
# (the mfree site degrades onto the fallback chain, whose last ulps may
# differ); "envelopes" requires every re-solve to degrade into an error row
# that falls back to the last-good target.
MONITOR_SCHEDULES = [
    ("clean", None, "clean", False),
    ("cache", "cache:1.0:5", "identical", False),
    ("store-read", "store-read:1.0:41", "identical", True),
    ("store-write", "store-write:1.0:43", "identical", True),
    ("mfree-fallback", "mfree:1.0:31", "clean", False),
    ("alloc", "alloc:1.0:23", "envelopes", False),
    ("pool", "pool:1.0:0", "envelopes", False),
]

# The session's initial set-point (the paper default): with every re-solve
# failing from the first update, last-good never moves off it.
MONITOR_INITIAL_INTERVAL = 600.0


def run_monitor(cli, spec, store_dir=None):
    env = dict(os.environ)
    env.pop("NVP_FAULT_INJECT", None)
    env.pop("NVP_STORE", None)
    env.pop("NVP_STORE_CAP_MB", None)
    if spec is not None:
        env["NVP_FAULT_INJECT"] = spec
    cmd = [
        cli, "monitor", "--paper", "6v", "--schedule", "step",
        "--multiplier", "10", "--period", "8000", "--horizon", "25000",
        "--update-every", "2500", "--interval-hi", "2400", "--seed", "1",
        "--format", "csv", "--metrics",
    ]
    if store_dir is not None:
        cmd += ["--store", store_dir]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=600)
    rows = []
    if proc.returncode == 0:
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    return {
        "command": " ".join(cmd),
        "fault_inject": spec,
        "exit_code": proc.returncode,
        "stdout": proc.stdout,
        "stderr": proc.stderr.strip(),
        "counters": parse_counters(proc.stderr),
        "rows": rows,
    }


def check_monitor_run(run, expectation, baseline):
    errors = []
    if run["exit_code"] != 0:
        errors.append("aborted with exit code %d: %s"
                      % (run["exit_code"], run["stderr"]))
        return errors
    rows = run["rows"]
    if not rows:
        errors.append("no controller updates in the output")
        return errors
    if baseline is not None and len(rows) != len(baseline["rows"]):
        errors.append("expected %d updates, got %d"
                      % (len(baseline["rows"]), len(rows)))
    solved = 0
    for i, row in enumerate(rows):
        value = row.get("E[R_sys]", "")
        envelope = row.get("error", "")
        if not row.get("mttc_hat", ""):
            # Evidence-gated update: no solve was attempted, so neither a
            # value nor an envelope belongs here, whatever the schedule.
            if envelope:
                errors.append("row %d: envelope on an evidence-gated update"
                              % i)
            continue
        solved += 1
        if expectation == "envelopes":
            if not envelope:
                errors.append("row %d: expected an error envelope" % i)
            if value:
                errors.append("row %d: degraded update still has a value"
                              % i)
            # Degraded updates fall back to the last-good target, which
            # never moves off the initial set-point when every solve fails.
            if float(row.get("target", "0") or 0) != MONITOR_INITIAL_INTERVAL:
                errors.append("row %d: degraded target %s is not the "
                              "last-good set-point" % (i, row.get("target")))
            if float(row.get("applied", "0") or 0) \
                    != MONITOR_INITIAL_INTERVAL:
                errors.append("row %d: degraded session retuned the clock "
                              "to %s" % (i, row.get("applied")))
        else:
            if envelope:
                errors.append("row %d: unexpected envelope: %s"
                              % (i, envelope))
            if not value:
                errors.append("row %d: missing reliability value" % i)
    if solved == 0:
        errors.append("no update ever reached the re-solve path")
    if expectation == "identical" and baseline is not None and not errors:
        if run["stdout"] != baseline["stdout"]:
            errors.append("per-update CSV differs from the clean baseline")
    if expectation == "envelopes" and not errors:
        if run["counters"].get("monitor.degraded", 0) <= 0:
            errors.append("monitor.degraded counter never fired")
    return errors


def run_monitor_gauntlet(args):
    os.makedirs(args.out, exist_ok=True)
    baseline = None
    summary = {"mode": "monitor", "runs": [], "failures": 0}
    failed = False
    for schedule, spec, expectation, needs_store in MONITOR_SCHEDULES:
        store_dir = None
        if needs_store:
            store_dir = os.path.join(args.out,
                                     "gauntlet-monitor-%s" % schedule)
            shutil.rmtree(store_dir, ignore_errors=True)
        run = run_monitor(args.cli, spec, store_dir)
        if schedule == "clean":
            baseline = run
        errors = check_monitor_run(run, expectation, baseline)
        if spec is not None and not errors:
            site = spec.split(":")[0]
            if run["counters"].get("fault.injected.%s" % site, 0) <= 0:
                errors.append("fault site %s never armed" % site)
        run["expectation"] = expectation
        run["check_errors"] = errors
        name = "monitor-%s" % schedule
        with open(os.path.join(args.out, name + ".json"), "w") as f:
            json.dump(run, f, indent=2)
        status = "ok" if not errors else "FAIL"
        print("[%s] %s (%s, %d updates): %s"
              % (status, name, expectation, len(run["rows"]),
                 errors or "pass"))
        summary["runs"].append({"name": name, "expectation": expectation,
                                "ok": not errors, "errors": errors})
        if errors:
            failed = True
            summary["failures"] += 1
    with open(os.path.join(args.out, "monitor_summary.json"), "w") as f:
        json.dump(summary, f, indent=2)
    if failed:
        print("monitor gauntlet FAILED (%d run(s)); artifacts in %s"
              % (summary["failures"], args.out))
        return 1
    print("monitor gauntlet passed; artifacts in %s" % args.out)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cli", default="build/tools/nvpcli")
    parser.add_argument("--points", type=int, default=50)
    parser.add_argument("--out", default="gauntlet-out")
    parser.add_argument("--service", action="store_true",
                        help="run the schedules against a live nvpd daemon")
    parser.add_argument("--loadgen", default="build/tools/loadgen")
    parser.add_argument("--store", action="store_true",
                        help="run the persistent-store corruption gauntlet")
    parser.add_argument("--archspace", action="store_true",
                        help="run the heterogeneous architecture-space "
                             "explorer gauntlet")
    parser.add_argument("--max-n", type=int, default=7,
                        help="archspace mode: largest module count in the "
                             "candidate family")
    parser.add_argument("--monitor", action="store_true",
                        help="run the closed-loop rejuvenation monitor "
                             "gauntlet")
    args = parser.parse_args()

    if sum([args.service, args.store, args.archspace, args.monitor]) > 1:
        parser.error("--service, --store, --archspace, and --monitor are "
                     "mutually exclusive")
    if args.service:
        return run_service_gauntlet(args)
    if args.store:
        return run_store_gauntlet(args)
    if args.archspace:
        return run_archspace_gauntlet(args)
    if args.monitor:
        return run_monitor_gauntlet(args)

    os.makedirs(args.out, exist_ok=True)
    baselines = {}
    summary = {"points": args.points, "runs": [], "failures": 0}
    failed = False
    for schedule, spec, expectations, extra_args in SCHEDULES:
        for model, expectation in sorted(expectations.items()):
            name = "%s-%s" % (schedule, model)
            run = run_sweep(args.cli, model, spec, args.points, extra_args,
                            os.path.join(args.out, name + ".metrics.json"))
            if schedule == "clean":
                baselines[model] = run
            errors = check(run, expectation, args.points,
                           baselines.get(model))
            run["expectation"] = expectation
            run["check_errors"] = errors
            with open(os.path.join(args.out, name + ".json"), "w") as f:
                json.dump(run, f, indent=2)
            status = "ok" if not errors else "FAIL"
            print("[%s] %s (%s): %s"
                  % (status, name, expectation, errors or "pass"))
            summary["runs"].append({"name": name, "expectation": expectation,
                                    "ok": not errors, "errors": errors})
            if errors:
                failed = True
                summary["failures"] += 1
    pool_runs = [
        run_sweep(args.cli, "6v", POOL_SPEC, args.points, ["--jobs", jobs],
                  os.path.join(args.out, "pool-6v-%d.metrics.json" % i))
        for i, jobs in enumerate(POOL_JOBS)]
    errors = check_pool(pool_runs, args.points)
    with open(os.path.join(args.out, "pool-6v.json"), "w") as f:
        json.dump({"runs": pool_runs, "check_errors": errors}, f, indent=2)
    print("[%s] pool-6v (identical for any --jobs): %s"
          % ("ok" if not errors else "FAIL", errors or "pass"))
    summary["runs"].append({"name": "pool-6v",
                            "expectation": "identical for any --jobs",
                            "ok": not errors, "errors": errors})
    if errors:
        failed = True
        summary["failures"] += 1
    with open(os.path.join(args.out, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2)
    if failed:
        print("fault gauntlet FAILED (%d run(s)); artifacts in %s"
              % (summary["failures"], args.out))
        return 1
    print("fault gauntlet passed; artifacts in %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
