"""Compare two full runs of the e2e benchmark: ``compare.py a.json b.json``.

``a`` is the baseline, ``b`` the candidate; both are ``out/e2e.json``
files.  For every workload x end-to-end metric the bound of
``BENCHMARK.json`` is applied to the relative change in the metric's
worse direction:

* ``ok``          the change is within the bound;
* ``unresolved``  it exceeds the bound, but by less than the wider of the
  two sides' pass spreads (IQR of the per-pass walls / their median), so
  the runs cannot tell a regression from noise;
* ``worse``       it exceeds the bound by more than that.

Layer metrics that are exact counts (``"exact": true`` in ``layers.json``)
and ``space_amp`` must be identical.  Exit status is non-zero on any
``worse`` or any differing count.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def worsening(metric: dict, base: float, new: float) -> float:
    """Relative change in the direction that counts as worse."""
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def compare(a: dict, b: dict, benchmark: dict, exact_layers: list[str]):
    """Rows ``(workload, metric, base, new, verdict)`` and the bad count."""
    rows = []
    bad = 0
    for workload in (w["name"] for w in benchmark["workloads"]):
        left, right = a["workloads"][workload], b["workloads"][workload]
        noise = max(left["pass_spread"], right["pass_spread"])
        for metric in benchmark["end_to_end"]:
            base = left["end_to_end"][metric["name"]]["value"]
            new = right["end_to_end"][metric["name"]]["value"]
            excess = worsening(metric, base, new) - metric["bound"]
            if metric["name"] == "space_amp" and base != new:
                verdict = "differs"
            elif excess <= 0:
                verdict = "ok"
            elif excess <= noise:
                verdict = "unresolved"
            else:
                verdict = "worse"
            bad += verdict in ("worse", "differs")
            rows.append((workload, metric["name"], base, new, verdict))
        for name in exact_layers + ["answers_crc"]:
            if name == "answers_crc":
                base, new = left[name], right[name]
            else:
                base = left["per_layer"][name]["value"]
                new = right["per_layer"][name]["value"]
            if base != new:
                bad += 1
                rows.append((workload, name, base, new, "differs"))
    return rows, bad


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = load(argv[0]), load(argv[1])
    benchmark = load(os.path.join(ROOT, "BENCHMARK.json"))
    layers = load(os.path.join(HERE, "layers.json"))["layers"]
    exact = [layer["name"] for layer in layers if layer["exact"]]
    rows, bad = compare(a, b, benchmark, exact)
    print("%-10s %-34s %14s %14s  %s" % ("workload", "metric", "a", "b", "verdict"))
    for workload, name, base, new, verdict in rows:
        print("%-10s %-34s %14.6g %14.6g  %s" % (workload, name, base, new, verdict))
    print("%d exact counts compared per workload; %d problem(s)" % (len(exact) + 1, bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
