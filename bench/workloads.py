"""The benchmark's workloads: set-up, one round of operations, checks.

A round is one pass over a workload's operations on inputs made during
set-up; every round repeats the same operations on the same inputs.
``operations`` turns the rounds' outputs into one record per operation,
holding whatever the checks need, and ``check``, run after the timed
phase, sets each record's ``fail`` to None or to the reason it failed.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

from entrobench import harness, scenes
from entrobench.raster import median_filter_3x3

import oracle

KINDS = ("shannon", "renyi:2", "tsallis:2")
# criterion as oracle.class_terms names it, per harness entropy spec
ORACLE_CRIT = {"shannon": ("shannon", None), "renyi:2": ("renyi", 2.0),
               "tsallis:2": ("tsallis", 2.0), "cross": ("cross", None)}
RMSE_MAX = 0.5      # acceptance criterion 4
NCCC_MIN = 0.95     # acceptance criterion 4
KAPPA_MIN = 0.8     # acceptance criterion 6


class Outputs:
    """Keeps what cells compute but do not return, for the checks.

    ``harness.register`` and ``harness.assignment_to_labelmap`` are
    replaced, where the harness binds them, by wrappers that record
    each RegistrationResult and label map in call order.
    """

    def __init__(self):
        self.registrations: list = []
        self.labelmaps: list = []
        reg, paint = harness.register, harness.assignment_to_labelmap

        def register(*args, **kwargs):
            res = reg(*args, **kwargs)
            self.registrations.append(res)
            return res

        def assignment_to_labelmap(*args, **kwargs):
            lab = paint(*args, **kwargs)
            self.labelmaps.append(lab)
            return lab

        harness.register = register
        harness.assignment_to_labelmap = assignment_to_labelmap

    def take(self) -> tuple[list, list]:
        regs, labs = self.registrations, self.labelmaps
        self.registrations, self.labelmaps = [], []
        return regs, labs


def _by_metric(rows) -> dict[str, float]:
    return {r.metric: r.value for r in rows}


def _params(T) -> tuple[float, float, float, float]:
    return T.dx, T.dy, T.theta, T.scale


IDENTITY = (0.0, 0.0, 0.0, 1.0)


def _check_register(rows, res, true_params, shape) -> str | None:
    m = _by_metric(rows)
    if set(m) != {"nccc", "rmse"}:
        return f"register rows {sorted(m)}"
    rmse = oracle.control_point_rmse(_params(res.transform), true_params, shape)
    if not rmse <= RMSE_MAX:
        return f"rmse {rmse:.4f} > {RMSE_MAX}"
    if not abs(m["rmse"] - rmse) <= 1e-9:
        return f"reported rmse {m['rmse']!r} != {rmse!r}"
    if not m["nccc"] >= NCCC_MIN:
        return f"nccc {m['nccc']:.4f} < {NCCC_MIN}"
    return None


def _check_cluster(rows, labelmap, truth) -> str | None:
    m = _by_metric(rows)
    if set(m) != {"kappa", "overall_accuracy", "score"}:
        return f"cluster rows {sorted(m)}"
    kap, oa = oracle.aligned_kappa_oa(labelmap, truth)
    if not kap >= KAPPA_MIN:
        return f"kappa {kap:.4f} < {KAPPA_MIN}"
    if m["kappa"] != kap or m["overall_accuracy"] != oa:
        return f"reported kappa/oa {m['kappa']!r}/{m['overall_accuracy']!r} != {kap!r}/{oa!r}"
    if not math.isfinite(m["score"]):
        return "score not finite"
    return None


def _same_partition(records) -> None:
    """Mark cluster records whose kappa/oa differ from the dataset's first.

    The entropy kind never changes the partition, so every kind must
    report the same agreement on one dataset.
    """
    first = {}
    for r in records:
        if r["task"] != "cluster" or r["fail"] is not None:
            continue
        m = _by_metric(r["rows"])
        got = (m["kappa"], m["overall_accuracy"])
        want = first.setdefault((r["round"], r["dataset"]), got)
        if got != want:
            r["fail"] = f"kappa/oa {got} differ from another kind's {want}"


def _run_cell(fn, *args) -> dict:
    """Time one cell call; a raised exception fails the operation."""
    t0 = time.perf_counter()
    try:
        rows, fail = fn(*args), None
    except Exception as e:  # the run goes on and counts the failure
        rows, fail = [], f"raised {type(e).__name__}: {e}"
    return {"rows": rows, "seconds": time.perf_counter() - t0, "fail": fail}


class Matrix:
    """The README bench matrix, run as the ``bench`` verb runs it."""

    name = "matrix"
    LEVEL = 2
    SIZE = 128

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out / f"matrix-{seed}"
        # --seed 0 gives the README's datasets, except that `five` has
        # no pair_seed: tsallis:2 misses some 128-px shifted pairs
        # (see CHANGES.md), so both datasets self-register here and
        # large-scene registers a shifted pair at 256 px
        self.datasets = (("two", "two-region", seed), ("five", "five-region", seed + 1))

    def setup(self, tracer) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        lines = ["[run]", "tasks = threshold register cluster",
                 f"entropies = {' '.join(KINDS)}", "seeds = 0", "",
                 "[threshold]", f"levels = {self.LEVEL}", "",
                 "[cluster]", "k = 5", "stride = 4", "", "[datasets]"]
        for name, layout, s in self.datasets:
            lines.append(f"{name} = scene:{layout} width={self.SIZE} "
                         f"height={self.SIZE} seed={s}")
        self.config = self.out / "bench.ini"
        self.config.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def plan(self):
        for ds, _, _ in self.datasets:
            for task in ("threshold", "register", "cluster"):
                for kind in KINDS:
                    yield task, kind, ds

    def round(self, outputs: Outputs, tracer) -> list[dict]:
        cfg = harness.parse_config(self.config)
        with tracer.span("harness.run_matrix"):
            rows = harness.run_matrix(cfg)
        harness.emit_csv(rows, self.out / "results.csv")
        regs, labs = outputs.take()
        return [{"rows": rows, "registrations": regs, "labelmaps": labs}]

    def operations(self, rounds: list[list[dict]]) -> list[dict]:
        """Split each round's matrix output into its 18 cells."""
        records = []
        for i, (out,) in enumerate(rounds):
            regs = iter(out["registrations"])
            labs = iter(out["labelmaps"])
            cells = {}
            for r in out["rows"]:
                spec = r.entropy if r.param == "-" else f"{r.entropy}:{float(r.param):g}"
                cells.setdefault((r.task, spec, r.dataset), []).append(r)
            planned = list(self.plan())
            stray = set(cells) - set(planned)
            for task, kind, ds in planned:
                rows = cells.get((task, kind, ds), [])
                rec = {"round": i, "task": task, "kind": kind, "dataset": ds,
                       "rows": rows, "fail": None}
                if task == "register":
                    rec["result"] = next(regs, None)
                elif task == "cluster":
                    rec["labelmap"] = next(labs, None)
                if stray:
                    rec["fail"] = f"unplanned cells {sorted(stray)}"
                elif len(out["rows"]) != 42:
                    rec["fail"] = f"{len(out['rows'])} rows, want 42"
                elif any(x.metric == "error" for x in rows) or not rows:
                    rec["fail"] = "error row"
                records.append(rec)
        return records

    def check(self, records: list[dict]) -> None:
        inputs = {}
        for name, layout, s in self.datasets:
            img, truth = scenes.named_scene(layout, self.SIZE, self.SIZE, 8.0, s)
            inputs[name] = (median_filter_3x3(img), truth)
        want_kappa = {}
        for name, (img, truth) in inputs.items():
            values, counts = oracle.occupied(img)
            for kind in KINDS:
                T = oracle.class_terms(values, counts, ORACLE_CRIT[kind])
                if kind == "tsallis:2":
                    _, ends = oracle.best_tsallis(T, self.LEVEL, 2.0)
                else:
                    _, ends = oracle.best_additive(T, self.LEVEL)
                t = oracle.thresholds_from_ends(values, ends)
                want_kappa[name, kind] = oracle.aligned_kappa_oa(
                    oracle.threshold_labels(img, t), truth)
        for rec in records:
            if rec["fail"] is not None:
                continue
            img, truth = inputs[rec["dataset"]]
            if rec["task"] == "threshold":
                m = _by_metric(rec["rows"])
                kap, oa = want_kappa[rec["dataset"], rec["kind"]]
                if set(m) != {"kappa", "overall_accuracy"}:
                    rec["fail"] = f"threshold rows {sorted(m)}"
                elif m["kappa"] != kap or m["overall_accuracy"] != oa:
                    rec["fail"] = (f"kappa/oa {m['kappa']!r}/{m['overall_accuracy']!r}"
                                   f" != oracle {kap!r}/{oa!r}")
            elif rec["task"] == "register":
                if rec["result"] is None:
                    rec["fail"] = "no registration result"
                else:
                    rec["fail"] = _check_register(rec["rows"], rec["result"],
                                                  IDENTITY, img.shape)
            elif rec["labelmap"] is None:
                rec["fail"] = "no label map"
            else:
                rec["fail"] = _check_cluster(rec["rows"], rec["labelmap"], truth)
        _same_partition(records)


class _Calls:
    """A workload whose round records each cell call as it runs."""

    def operations(self, rounds: list[list[dict]]) -> list[dict]:
        return [dict(rec, round=i) for i, recs in enumerate(rounds) for rec in recs]


class ThresholdSweep(_Calls):
    """run_threshold_cell without truth over many histograms and levels."""

    name = "threshold-sweep"
    LAYOUTS = ("two-region", "five-region")
    NOISES = (8.0, 20.0)     # sparse (55-145 occupied bins) and dense (130-256)
    SCENES_PER = 4           # scene seeds per layout and noise
    CRITERIA = KINDS + ("cross",)
    LEVELS = (1, 2, 3, 4, 5)
    SIZE = 128

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.params = harness.ThresholdParams()
        self.kinds = {c: None if c == "cross" else harness.parse_entropy(c)
                      for c in self.CRITERIA}

    def setup(self, tracer) -> None:
        self.scenes = []
        for layout in self.LAYOUTS:
            for noise in self.NOISES:
                for i in range(self.SCENES_PER):
                    s = self.SCENES_PER * self.seed + i
                    with tracer.span("scenes.named_scene"):
                        img, _ = scenes.named_scene(layout, self.SIZE, self.SIZE, noise, s)
                    with tracer.span("raster.median_filter_3x3"):
                        img = median_filter_3x3(img)
                    self.scenes.append((f"{layout}/{noise:g}/{s}", s, img))

    def round(self, outputs: Outputs, tracer) -> list[dict]:
        records = []
        for name, s, img in self.scenes:
            for crit in self.CRITERIA:
                for level in self.LEVELS:
                    rec = _run_cell(harness.run_threshold_cell, img, None,
                                    self.kinds[crit], self.params, level, s, name)
                    records.append(dict(rec, task="threshold", dataset=name,
                                        kind=crit, level=level))
        return records


    def optima(self) -> dict:
        """(scene, criterion, level) -> (exact optimum or None, upper bound)."""
        best = {}
        for name, _, img in self.scenes:
            values, counts = oracle.occupied(img)
            for crit in self.CRITERIA:
                T = oracle.class_terms(values, counts, ORACLE_CRIT[crit])
                for level in self.LEVELS:
                    additive, _ = oracle.best_additive(T, level)
                    if crit != "tsallis:2":
                        best[name, crit, level] = (additive, additive)
                    elif level <= 3:
                        exact, _ = oracle.best_tsallis(T, level, 2.0)
                        best[name, crit, level] = (exact, exact)
                    else:
                        # q = 2: the product term is >= 0 and subtracted,
                        # so the best plain sum bounds the optimum
                        best[name, crit, level] = (None, additive)
        return best

    def check(self, records: list[dict]) -> None:
        self.optimum = self.optima()
        for rec in records:
            if rec["fail"] is not None:
                continue
            rows = rec["rows"]
            if len(rows) != 1 or rows[0].metric != "criterion":
                rec["fail"] = f"rows {[r.metric for r in rows]}"
                continue
            v = rows[0].value
            score = -v if rec["kind"] == "cross" else v
            exact, bound = self.optimum[rec["dataset"], rec["kind"], rec["level"]]
            if not math.isfinite(score):
                rec["fail"] = "criterion not finite"
            elif rec["level"] <= 3 and not oracle.close(score, exact):
                rec["fail"] = f"criterion {score!r} != optimum {exact!r}"
            elif score > bound + oracle.ABS_TOL + oracle.REL_TOL * abs(bound):
                rec["fail"] = f"criterion {score!r} above bound {bound!r}"
            rec["optimal"] = exact is not None and oracle.close(score, exact)


class LargeScene(_Calls):
    """One 256-px five-region scene and its shifted registration pair."""

    name = "large-scene"
    SIZE = 256

    # tsallis:2 misses some shifted 256-px pairs (seeds 105 and 106 of
    # the pairs tried, see CHANGES.md); a failure that comes and goes
    # with the seed cannot be compared between runs, so it only clusters
    REGISTER_KINDS = ("shannon", "renyi:2")

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.kinds = [(k, harness.parse_entropy(k)) for k in KINDS]
        self.register_params = harness.RegisterParams()
        self.cluster_params = harness.ClusterParams(k=5)   # automatic stride

    def setup(self, tracer) -> None:
        n, s = self.SIZE, self.seed
        with tracer.span("scenes.named_scene"):
            img, self.truth = scenes.named_scene("five-region", n, n, 8.0, s)
        with tracer.span("scenes.scene_pair"):
            ref, mov, self.t_true = scenes.scene_pair("five-region", n, n, 8.0, s, s)
        with tracer.span("raster.median_filter_3x3"):
            self.img = median_filter_3x3(img)
            self.ref = median_filter_3x3(ref)
            self.mov = median_filter_3x3(mov)

    def round(self, outputs: Outputs, tracer) -> list[dict]:
        records = []
        for spec, kind in self.kinds:
            if spec in self.REGISTER_KINDS:
                rec = _run_cell(harness.run_register_cell, self.ref, self.mov,
                                self.t_true, kind, self.register_params,
                                self.seed, "large")
                regs, _ = outputs.take()
                records.append(dict(rec, task="register", kind=spec, dataset="large",
                                    result=regs[0] if len(regs) == 1 else None))
            rec = _run_cell(harness.run_cluster_cell, self.img, self.truth,
                            kind, self.cluster_params, self.seed, "large")
            _, labs = outputs.take()
            records.append(dict(rec, task="cluster", kind=spec, dataset="large",
                                labelmap=labs[0] if len(labs) == 1 else None))
        return records


    def check(self, records: list[dict]) -> None:
        for rec in records:
            if rec["fail"] is not None:
                continue
            if rec["task"] == "register":
                rec["fail"] = ("no registration result" if rec["result"] is None
                               else _check_register(rec["rows"], rec["result"],
                                                    _params(self.t_true),
                                                    self.ref.shape))
            else:
                rec["fail"] = ("no label map" if rec["labelmap"] is None
                               else _check_cluster(rec["rows"], rec["labelmap"],
                                                   self.truth))
        _same_partition(records)


WORKLOADS = {w.name: w for w in (Matrix, ThresholdSweep, LargeScene)}
