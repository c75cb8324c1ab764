#!/usr/bin/env python3
"""Check that the benchmark's output checks catch wrong outputs.

    python3 bench/selftest.py

Runs one round of each workload (threshold-sweep on one scene per
layout and noise, large-scene with one entropy kind), requires that no
operation fails, then feeds the checks perturbed copies of single
outputs: a criterion value raised by 1e-3, a recovered transform moved
by 1 px, one pixel's cluster label changed, a threshold kappa raised by
1e-3.  Each perturbation must be counted as exactly one failed
operation.  Exits 1 on the first that is not.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer  # noqa: E402
from workloads import LargeScene, Matrix, Outputs, ThresholdSweep  # noqa: E402


def run_round(wl, outputs):
    tracer = Tracer()
    wl.setup(tracer)
    records = wl.operations([wl.round(outputs, tracer)])
    wl.check(records)
    bad = [r["fail"] for r in records if r["fail"] is not None]
    if bad:
        raise SystemExit(f"{wl.name}: unperturbed outputs failed: {bad[:3]}")
    return records


def failed_after(wl, records, pick, perturb) -> int:
    """Failures when the first record that ``pick`` selects is perturbed."""
    fresh = [dict(r, fail=None) for r in records]
    target = next(r for r in fresh if pick(r))
    perturb(target)
    wl.check(fresh)
    return sum(r["fail"] is not None for r in fresh)


def raise_value(metric, by=1e-3):
    def perturb(rec):
        rec["rows"] = [dataclasses.replace(r, value=r.value + by)
                       if r.metric == metric else r for r in rec["rows"]]
    return perturb


def above_bound(sweep, rec) -> float:
    """The raise that puts a criterion value 1e-3 above its upper bound."""
    _, bound = sweep.optimum[rec["dataset"], rec["kind"], rec["level"]]
    return bound - rec["rows"][0].value + 1e-3


def move_transform(rec):
    res = rec["result"]
    moved = dataclasses.replace(res.transform, dx=res.transform.dx + 1.0)
    rec["result"] = dataclasses.replace(res, transform=moved)


def change_one_label(rec):
    lab = rec["labelmap"].copy()
    lab[0, 0] = (lab[0, 0] + 1) % 5
    rec["labelmap"] = lab


def main() -> int:
    outputs = Outputs()
    out = ROOT / ".bench_out"
    cases = []

    sweep = ThresholdSweep(0, out)
    sweep.SCENES_PER = 1
    recs = run_round(sweep, outputs)
    cases += [
        (sweep, recs, "criterion +1e-3, level 2",
         lambda r: r["level"] == 2, raise_value("criterion")),
        (sweep, recs, "criterion +1e-3, level 4 at the optimum",
         lambda r: r["level"] == 4 and r["kind"] != "cross" and r["optimal"],
         raise_value("criterion")),
        (sweep, recs, "criterion 1e-3 above the tsallis level 5 bound",
         lambda r: r["level"] == 5 and r["kind"] == "tsallis:2",
         lambda r: raise_value("criterion", above_bound(sweep, r))(r)),
    ]

    large = LargeScene(0, out)
    large.kinds = large.kinds[:1]
    recs = run_round(large, outputs)
    cases += [
        (large, recs, "transform moved 1 px",
         lambda r: r["task"] == "register", move_transform),
        (large, recs, "one cluster label changed",
         lambda r: r["task"] == "cluster", change_one_label),
    ]

    matrix = Matrix(0, out)
    recs = run_round(matrix, outputs)
    cases += [
        (matrix, recs, "threshold kappa +1e-3",
         lambda r: r["task"] == "threshold", raise_value("kappa")),
        (matrix, recs, "transform moved 1 px",
         lambda r: r["task"] == "register", move_transform),
        (matrix, recs, "one cluster label changed",
         lambda r: r["task"] == "cluster", change_one_label),
    ]

    ok = True
    for wl, recs, what, pick, perturb in cases:
        n = failed_after(wl, recs, pick, perturb)
        ok &= n == 1
        print(f"{'ok  ' if n == 1 else 'FAIL'} {wl.name}: {what} -> {n} failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
