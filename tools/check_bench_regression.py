#!/usr/bin/env python3
"""Gate a benchmark report by the rules its rows carry.

    python3 tools/check_bench_regression.py REPORT
    python3 tools/check_bench_regression.py --self-test

REPORT is a schema-2 document as every bench (and tools/loadgen) writes it
through bench::JsonResult: a provenance header ("bench", "git_sha",
"build_type", "cores", "recorded", "note") plus "rows", each
{"case", "layer", "metric", "unit", "value", "config"}. A row may carry a
rule, and the gate is nothing but these rules:

  {"op": OP, "bound": B}   holds when value OP B;
  {"op": OP, "ratio": R}   holds when value OP R x the value of the row with
                           the same (case, metric, config) in the recorded
                           baseline; a missing baseline row fails the rule.

OP is one of eq, ge, gt, le, lt. The baseline is the file of the same name
in bench_results/ (gating a recorded file compares it with itself). Every
rule the baseline carries must appear unchanged in REPORT, so a rule can be
dropped or relaxed only by re-recording the baseline, where the diff shows
it.

Exit codes: 0 every rule holds, 1 a rule failed, 2 usage error (unreadable
or malformed file, or a document older than schema 2: re-run the bench that
writes it), 3 a document newer than this tool understands.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
from pathlib import Path

SCHEMA_VERSION = 2
EXIT_USAGE = 2
EXIT_SCHEMA = 3
BASELINE_DIR = Path(__file__).resolve().parent.parent / "bench_results"

OPS = {
    "eq": (lambda value, limit: value == limit, "=="),
    "ge": (lambda value, limit: value >= limit, ">="),
    "gt": (lambda value, limit: value > limit, ">"),
    "le": (lambda value, limit: value <= limit, "<="),
    "lt": (lambda value, limit: value < limit, "<"),
}
ROW_FIELDS = ("case", "layer", "metric", "unit", "value", "config")


class UsageError(Exception):
    """A document the gate cannot read; exit 2 (or 3 when newer)."""

    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_document(doc, path: str) -> list[dict]:
    """The rows of a schema-2 document, or UsageError."""
    if not isinstance(doc, dict):
        raise UsageError(f"error: '{path}' is not a JSON object")
    version = doc.get("schema_version", 1)
    if not number(version):
        raise UsageError(f"error: '{path}' has a non-numeric schema_version")
    if version > SCHEMA_VERSION:
        raise UsageError(
            f"error: '{path}' has schema_version {version:g}, but this tool "
            f"reads {SCHEMA_VERSION}; update tools/check_bench_regression.py",
            EXIT_SCHEMA)
    if version < SCHEMA_VERSION:
        writer = doc.get("bench") or str(doc.get("source", "")).split(" ")[0]
        writer = writer.rstrip(",") or "the bench that writes it"
        raise UsageError(
            f"error: '{path}' has schema_version {version:g}; re-run "
            f"{writer} to record schema {SCHEMA_VERSION}")
    rows = doc.get("rows")
    if not isinstance(rows, list):
        raise UsageError(f"error: '{path}' has no 'rows' array")
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or any(f not in row for f in ROW_FIELDS):
            raise UsageError(f"error: '{path}' row {i} lacks one of "
                             f"{', '.join(ROW_FIELDS)}")
        if not number(row["value"]):
            raise UsageError(f"error: '{path}' row {i} has a non-numeric "
                             "value")
        rule = row.get("rule")
        if rule is None:
            continue
        kinds = [k for k in ("bound", "ratio") if k in rule] \
            if isinstance(rule, dict) else []
        if (len(kinds) != 1 or rule.get("op") not in OPS
                or not number(rule[kinds[0]])):
            raise UsageError(f"error: '{path}' row {i} has a malformed rule "
                             f"{rule!r}")
    return rows


def load(path: Path) -> list[dict]:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise UsageError(f"error: cannot read '{path}': {e.strerror}")
    except json.JSONDecodeError as e:
        raise UsageError(f"error: '{path}' is not valid JSON: {e}")
    return check_document(doc, str(path))


def key(row: dict) -> tuple:
    return (row["case"], row["metric"], row["config"])


def label(row: dict) -> str:
    return f"{row['case']} / {row['metric']} [{row['config']}]"


def gate(rows: list[dict], baseline: list[dict] | None) -> int:
    """Prints one line per rule and returns the number that failed."""
    recorded = {}
    for row in baseline or []:
        recorded.setdefault(key(row), row)
    failures = 0
    for row in rows:
        rule = row.get("rule")
        if rule is None:
            continue
        predicate, symbol = OPS[rule["op"]]
        value = row["value"]
        if "bound" in rule:
            limit = rule["bound"]
            detail = f"{value:g} {symbol} {limit:g}"
        elif key(row) in recorded:
            base = recorded[key(row)]["value"]
            limit = rule["ratio"] * base
            detail = (f"{value:g} {symbol} {limit:g} "
                      f"({rule['ratio']:g} x recorded {base:g})")
        else:
            limit = math.nan
            detail = f"{value:g}: no recorded row to take {rule['ratio']:g} x"
        ok = not math.isnan(limit) and predicate(value, limit)
        print(f"{'ok  ' if ok else 'FAIL'} {label(row)}: {detail}")
        failures += 0 if ok else 1
    present = {(key(row), json.dumps(row["rule"], sort_keys=True))
               for row in rows if "rule" in row}
    for row in baseline or []:
        if "rule" not in row:
            continue
        if (key(row), json.dumps(row["rule"], sort_keys=True)) not in present:
            print(f"FAIL {label(row)}: recorded rule "
                  f"{json.dumps(row['rule'], sort_keys=True)} is missing or "
                  "changed in the report")
            failures += 1
    return failures


def run(report_path: str) -> int:
    try:
        rows = load(Path(report_path))
        baseline_path = BASELINE_DIR / Path(report_path).name
        baseline = load(baseline_path) if baseline_path.is_file() else None
    except UsageError as e:
        print(e)
        return e.code
    if baseline is None:
        print(f"note: no recorded baseline at {baseline_path}")
    failures = gate(rows, baseline)
    rules = sum(1 for row in rows if "rule" in row)
    if failures:
        print(f"FAIL: {failures} rule(s) violated in {report_path}")
        return 1
    print(f"OK: {rules} rule(s) hold in {report_path}")
    return 0


def self_test() -> int:
    """Checks of the gate itself on synthetic documents."""
    failures = 0

    def expect(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"self-test {name}: {'ok' if ok else 'FAIL'}")
        failures += 0 if ok else 1

    def row(metric, value, rule=None, case="c", config="cfg"):
        out = {"case": case, "layer": "core.analyze", "metric": metric,
               "unit": "ms", "value": value, "config": config}
        if rule is not None:
            out["rule"] = rule
        return out

    def failed(rows, baseline=None) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return gate(rows, baseline)

    # Op boundaries: equality passes the inclusive ops only.
    for op, at_bound in (("eq", True), ("ge", True), ("le", True),
                         ("gt", False), ("lt", False)):
        expect(f"op.{op}_at_bound",
               failed([row("m", 5.0, {"op": op, "bound": 5.0})])
               == (0 if at_bound else 1))
    expect("op.eq_off_bound",
           failed([row("m", 5.5, {"op": "eq", "bound": 5.0})]) == 1)
    expect("bound.fail",
           failed([row("m", 2.0, {"op": "le", "bound": 1.5})]) == 1)

    # Ratio rules read the recorded row with the same (case, metric, config).
    rule = {"op": "le", "ratio": 1.25}
    baseline = [row("ms", 4.0, rule)]
    expect("ratio.pass", failed([row("ms", 5.0, rule)], baseline) == 0)
    expect("ratio.fail", failed([row("ms", 5.1, rule)], baseline) == 1)
    expect("ratio.missing_baseline_row",
           failed([row("ms", 1.0, rule, config="other")], baseline) == 2)
    expect("ratio.no_baseline", failed([row("ms", 1.0, rule)], None) == 1)

    # A recorded rule must reappear unchanged: dropped or relaxed fails.
    baseline = [row("ms", 1.0, {"op": "le", "bound": 2.0})]
    expect("baseline.kept",
           failed([row("ms", 1.0, {"op": "le", "bound": 2.0})],
                  baseline) == 0)
    expect("baseline.dropped", failed([row("ms", 1.0)], baseline) == 1)
    expect("baseline.relaxed",
           failed([row("ms", 1.0, {"op": "le", "bound": 3.0})],
                  baseline) == 1)

    # A negative recorded margin shrinks the ratio floor below zero; the
    # margin's own gt-0 rule still refuses a loss.
    margin = [row("margin", -0.01, {"op": "gt", "bound": 0.0}),
              row("margin", -0.01, {"op": "ge", "ratio": 0.75})]
    fresh = [row("margin", -0.005, {"op": "gt", "bound": 0.0}),
             row("margin", -0.005, {"op": "ge", "ratio": 0.75})]
    expect("margin.negative_record", failed(fresh, margin) == 1)

    # Schema: older is a usage error naming the writer, newer exits 3.
    for version, code in ((1, EXIT_USAGE), (SCHEMA_VERSION + 1, EXIT_SCHEMA)):
        try:
            check_document({"schema_version": version,
                            "source": "bench_monitor (Release)",
                            "rows": []}, "<mem>")
            expect(f"schema.{version}", False)
        except UsageError as e:
            expect(f"schema.{version}", e.code == code and
                   (version > SCHEMA_VERSION or "bench_monitor" in str(e)))
    expect("schema.current",
           check_document({"schema_version": SCHEMA_VERSION,
                           "rows": [row("m", 1.0)]}, "<mem>") != [])
    try:
        check_document({"schema_version": SCHEMA_VERSION,
                        "rows": [row("m", 1.0, {"op": "ne", "bound": 1})]},
                       "<mem>")
        expect("schema.bad_op", False)
    except UsageError as e:
        expect("schema.bad_op", e.code == EXIT_USAGE)

    if failures:
        print(f"FAIL: {failures} self-test check(s) violated")
        return 1
    print("OK: gate self-test passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="See the module docstring for the rule semantics.")
    parser.add_argument("report", nargs="?", help="schema-2 bench report")
    parser.add_argument("--self-test", action="store_true",
                        help="check the gate itself and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.report is None:
        parser.error("a report file is required unless --self-test is given")
    return run(args.report)


if __name__ == "__main__":
    sys.exit(main())
