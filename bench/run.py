#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload matrix --seed 0 --seconds 35 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Set-up (importing entrobench and making the
inputs from ``--seed``) is timed apart.  Then whole rounds of the
workload's operations run for about ``--seconds``: at least one round,
and no further round that would, at the mean round time so far, end
past it.  The outputs are checked, and the last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` rounds alternate untraced and traced, and the metrics are
per layer, per traced round.  Outputs go to ``.bench_out/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
PERCENTILES = (50, 75, 90, 95, 99, 99.5, 99.9)
MAX_REPORTED_FAILURES = 10


def tail(times: list[float], per_round: int) -> tuple[float, float] | None:
    """Highest listed percentile with at least 10 of one round's calls above it.

    Choosing it from one round's call count keeps the percentile the
    same however many rounds ran; it is then read, by nearest rank, from
    all calls.  None below 40 calls a round, where no such percentile is
    a tail.
    """
    if per_round < 40:
        return None
    p = max(q for q in PERCENTILES if per_round * (100 - q) / 100 >= 10)
    return p, sorted(times)[math.ceil(p / 100 * len(times)) - 1]


def install_tracing(tracer, counters) -> None:
    """Wrap every public function a workload reaches, where it is bound."""
    from entrobench import clustering, harness, registration

    def count(key, value):
        counters[key] = counters.get(key, 0) + value

    def with_cluster_trace(args, kwargs):
        if kwargs.get("trace") is None:
            kwargs = dict(kwargs, trace={})
        return kwargs

    def after_cluster(args, kwargs, result):
        n = args[0].n
        count("samples", n)
        count("descent_passes", sum(len(t) - 1 for t in kwargs["trace"].values()))
        counters["kernel_mb"] = max(counters.get("kernel_mb", 0.0), n * n * 8 / 1e6)

    def after_register(args, kwargs, result):
        count("mi_evals", result.evaluations)

    for attr, name in (
            ("run_threshold_cell", "harness.run_threshold_cell"),
            ("run_register_cell", "harness.run_register_cell"),
            ("run_cluster_cell", "harness.run_cluster_cell")):
        tracer.wrap(harness, attr, name, new_op=True)
    for attr, name in (
            ("named_scene", "scenes.named_scene"),
            ("scene_pair", "scenes.scene_pair"),
            ("median_filter_3x3", "raster.median_filter_3x3"),
            ("histogram", "entropy.histogram"),
            ("exhaustive_search", "thresholding.exhaustive_search"),
            ("heuristic_search", "thresholding.heuristic_search"),
            ("apply_thresholds", "thresholding.apply_thresholds"),
            ("extract_features", "clustering.extract_features"),
            ("assignment_to_labelmap", "clustering.assignment_to_labelmap"),
            ("align_labels", "metrics.align_labels"),
            ("confusion", "metrics.confusion"),
            ("kappa", "metrics.kappa"),
            ("overall_accuracy", "metrics.overall_accuracy")):
        tracer.wrap(harness, attr, name)
    tracer.wrap(harness, "register", "registration.register", after=after_register)
    tracer.wrap(harness, "cluster", "clustering.cluster",
                before=with_cluster_trace, after=after_cluster)
    for attr, name in (
            ("mi_objective", "registration.mi_objective"),
            ("transform_apply", "registration.transform_apply"),
            ("nccc", "registration.nccc"),
            ("joint_histogram", "entropy.joint_histogram"),
            ("mutual_information", "entropy.mutual_information")):
        tracer.wrap(registration, attr, name)
    tracer.wrap(clustering, "cef", "clustering.cef")


def per_layer(spans, counters, records, n_rounds, untraced, traced) -> dict:
    """Per-layer metrics per traced round (set-up spans per set-up)."""
    from spans import layer_times

    total, own, calls = {}, {}, {}
    for (phase, name), (t, s, c) in layer_times(spans).items():
        div = SETUP_REPEATS if phase == "setup" else n_rounds
        total[name] = total.get(name, 0.0) + t / div
        own[name] = own.get(name, 0.0) + s / div
        calls[name] = calls.get(name, 0) + c / div

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def per_round(key):
        return counters.get(key, 0) / n_rounds

    es = [r for r in records if r.get("level", 0) >= 4 and r["kind"] != "tsallis:2"]
    reached = sum(1 for r in es if r.get("optimal"))
    evals = per_round("mi_evals")
    m = {
        ("harness.self_s", "s"): own.get("harness.run_matrix", 0.0),
        ("raster.median_filter_s", "s"): t("raster.median_filter_3x3"),
        ("scenes.generate_s", "s"): t("scenes.named_scene", "scenes.scene_pair"),
        ("entropy.histogram_s", "s"): t("entropy.histogram"),
        ("entropy.joint_histogram_s", "s"): t("entropy.joint_histogram"),
        ("entropy.joint_histogram.calls", "count"): calls.get("entropy.joint_histogram", 0),
        ("entropy.mutual_information_s", "s"): t("entropy.mutual_information"),
        ("thresholding.exhaustive_s", "s"): t("thresholding.exhaustive_search"),
        ("thresholding.exhaustive.calls", "count"): calls.get("thresholding.exhaustive_search", 0),
        ("thresholding.heuristic_s", "s"): t("thresholding.heuristic_search"),
        ("thresholding.heuristic.calls", "count"): calls.get("thresholding.heuristic_search", 0),
        ("thresholding.apply_s", "s"): t("thresholding.apply_thresholds"),
        ("thresholding.optimal_ratio", "ratio"): reached / len(es) if es else 0.0,
        ("registration.register_s", "s"): t("registration.register"),
        ("registration.register.calls", "count"): calls.get("registration.register", 0),
        ("registration.self_s", "s"): own.get("registration.register", 0.0),
        ("registration.mi_evals", "count"): evals,
        ("registration.eval_ms", "ms"): (1000 * t("registration.mi_objective") / evals
                                         if evals else 0.0),
        ("registration.warp_s", "s"): t("registration.transform_apply"),
        ("registration.nccc_s", "s"): t("registration.nccc"),
        ("clustering.cluster_s", "s"): t("clustering.cluster"),
        ("clustering.cluster.calls", "count"): calls.get("clustering.cluster", 0),
        ("clustering.cef_s", "s"): t("clustering.cef"),
        ("clustering.cef.calls", "count"): calls.get("clustering.cef", 0),
        ("clustering.samples", "count"): per_round("samples"),
        ("clustering.descent_passes", "count"): per_round("descent_passes"),
        ("clustering.kernel_mb", "MB"): counters.get("kernel_mb", 0.0),
        ("clustering.features_s", "s"): t("clustering.extract_features"),
        ("clustering.paint_s", "s"): t("clustering.assignment_to_labelmap"),
        ("metrics.align_s", "s"): t("metrics.align_labels"),
        ("metrics.kappa_s", "s"): t("metrics.confusion", "metrics.kappa",
                                    "metrics.overall_accuracy"),
        ("trace.overhead_s", "s"): statistics.median(traced) - statistics.median(untraced),
    }
    if es:
        print(f"thresholding.optimal_ratio: {reached} of {len(es)} level 4-5 "
              f"additive cells reach the exact optimum")
    print("clustering.kernel_mb is computed as n^2 * 8 bytes, not measured")
    print(f"trace.overhead_s: traced round {statistics.median(traced):.4f} s, "
          f"untraced round {statistics.median(untraced):.4f} s")
    return {name: {"value": int(v) if u == "count" and float(v).is_integer() else v,
                   "unit": u} for (name, u), v in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("matrix", "threshold-sweep", "large-scene"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "entrobench" / "__init__.py").is_file():
        print(f"run.py: no entrobench package under {SRC}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import entrobench.cli  # noqa: F401  -- imports harness and every module
    import_s = time.perf_counter() - t0
    if Path(entrobench.cli.__file__).resolve().parent != SRC / "entrobench":
        print(f"run.py: imported entrobench from {entrobench.cli.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    from spans import Tracer
    from workloads import WORKLOADS, Outputs

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, OUT)
    outputs = Outputs()
    tracer, counters = Tracer(), {}
    if args.trace:
        install_tracing(tracer, counters)
        tracer.enabled = True

    gen = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup(tracer)
        gen.append(time.perf_counter() - t0)

    tracer.phase = "round"
    rounds, untraced, traced = [], [], []
    start = time.perf_counter()
    while True:
        tracer.enabled = bool(args.trace) and len(rounds) % 2 == 1
        t0 = time.perf_counter()
        rounds.append(wl.round(outputs, tracer))
        (traced if tracer.enabled else untraced).append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        # start another round only if one more, as long as the mean so
        # far, still ends within the run length
        if (elapsed * (len(rounds) + 1) / len(rounds) > args.seconds
                and (not args.trace or traced)):
            break
    tracer.enabled = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    records = wl.operations(rounds)
    wl.check(records)
    failures = [r for r in records if r["fail"] is not None]
    for r in failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED round {r['round']} {r['task']} {r['kind']} {r['dataset']}"
              f"{' level %d' % r['level'] if 'level' in r else ''}: {r['fail']}")
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{len(records)} operations, {len(failures)} failed")

    if args.trace:
        metrics = per_layer(tracer.spans, counters,
                            [r for r in records if r["round"] % 2 == 1],
                            len(traced), untraced, traced)
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
    else:
        setup_s = import_s + statistics.median(gen)
        wall_s = statistics.median(untraced)
        print(f"setup_s {setup_s:.4f} s (import {import_s:.4f} s + inputs "
              f"{statistics.median(gen):.4f} s, median of {SETUP_REPEATS})")
        print(f"wall_s {wall_s:.4f} s (median of rounds "
              f"{', '.join(f'{t:.3f}' for t in untraced)})")
        print(f"peak_rss_mb {peak_rss_mb:.1f} MB")
        for task in ("threshold", "register", "cluster"):
            times = [r["seconds"] for r in records
                     if r["task"] == task and "seconds" in r]
            if not times:
                continue
            print(f"{task}_cell_s {statistics.median(times):.4f} s "
                  f"(median of {len(times)} calls)")
            pt = tail(times, len(times) // len(rounds))
            if pt is not None:
                print(f"{task}_cell_tail_s {pt[1]:.4f} s "
                      f"(p{pt[0]:g} of {len(times)} calls)")
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "wall_s": {"value": wall_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}

    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
