"""Experiment-matrix runner with CSV reporting.

A run config names tasks, entropy kinds, datasets, and seeds; the
runner executes the Cartesian product, one cell at a time, and emits
one CSV row per metric with the schema

    task,entropy,param,dataset,level,metric,value,runtime_s,runtime_cat,seed

Values are printed with 6 significant digits; runtime categories follow
the low < 30 s, medium 30-60 s, high > 60 s convention.  A bad setting
fails when its settings class is built, so ``parse_config`` raises it
before any cell runs.  A failure that depends on the data, such as an
unreadable file, a constant image or too few samples, becomes rows with
metric "error" and never suppresses other cells.  The CLI verbs read
their files through the loader ``run_matrix`` uses and run the same
single-cell entry points, so replaying any row through the CLI
reproduces its metric value exactly.
"""

from __future__ import annotations

import configparser
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .clustering import (_check_k, _check_restarts, _check_sigma, _check_stride,
                         assignment_to_labelmap, cluster, extract_features)
from .entropy import SHANNON, EntropyKind, entropy, histogram, normalize
from .metrics import align_labels, confusion, kappa, overall_accuracy
from .raster import decode_pgm, median_filter_3x3
from .registration import RegisterConfig, SimilarityTransform, register
from .scenes import named_scene, scene_pair, scene_spec
from .thresholding import (MAX_LEVELS, Criterion, _check_budget,
                           apply_thresholds, exhaustive_search,
                           heuristic_search)

__all__ = [
    "SCHEMA_VERSION",
    "CSV_HEADER",
    "ReportRow",
    "DatasetSpec",
    "ThresholdParams",
    "RegisterParams",
    "ClusterParams",
    "RunConfig",
    "parse_entropy",
    "parse_config",
    "runtime_category",
    "format_row",
    "emit_csv",
    "run_threshold_cell",
    "run_register_cell",
    "run_cluster_cell",
    "run_matrix",
]

SCHEMA_VERSION = "1"
CSV_HEADER = "task,entropy,param,dataset,level,metric,value,runtime_s,runtime_cat,seed"

_TASKS = ("threshold", "register", "cluster")
_TARGET_SAMPLES = 4096  # auto stride bounds the per-sample descent time


def runtime_category(seconds: float) -> str:
    if seconds < 30.0:
        return "low"
    if seconds <= 60.0:
        return "medium"
    return "high"


@dataclass(frozen=True)
class ReportRow:
    task: str
    entropy: str
    param: str
    dataset: str
    level: str
    metric: str
    value: float
    runtime_s: float
    seed: int

    @property
    def runtime_cat(self) -> str:
        # category derived from the printed (rounded) runtime so the
        # two columns can never disagree
        return runtime_category(round(self.runtime_s, 3))


def format_row(row: ReportRow) -> str:
    return (f"{row.task},{row.entropy},{row.param},{row.dataset},{row.level},"
            f"{row.metric},{row.value:#.6g},{row.runtime_s:.3f},"
            f"{row.runtime_cat},{row.seed}")


def emit_csv(rows, path) -> Path:
    """Write rows (nonempty) as UTF-8 CSV under the fixed header."""
    if not rows:
        raise ValueError("no rows to emit")
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    lines = [CSV_HEADER] + [format_row(r) for r in rows]
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


def _reject_repeats(what: str, values) -> None:
    seen = set()
    for v in values:
        if v in seen:
            raise ValueError(f"duplicate {what} {v!r}")
        seen.add(v)


@dataclass(frozen=True)
class ThresholdParams:
    levels: tuple[int, ...] = (2,)
    budget: int = 5000  # the evolution strategy's, where no exact search runs
    criterion: str = "max-entropy"

    def __post_init__(self):
        if self.criterion not in ("max-entropy", "cross-entropy"):
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if not self.levels:
            raise ValueError("no threshold levels configured")
        for level in self.levels:
            if not 1 <= level <= MAX_LEVELS:
                raise ValueError(f"threshold level {level} outside "
                                 f"1-{MAX_LEVELS}")
        _reject_repeats("threshold level", self.levels)
        _check_budget(self.budget, max(self.levels))


# the [register] section is the registration config itself; its seed
# is the cell's, set per run
RegisterParams = RegisterConfig


@dataclass(frozen=True)
class ClusterParams:
    """A cluster cell's settings, checked when built by the rules
    ``cluster`` and ``extract_features`` apply: k in [2, 8], restarts at
    least 1, a stride at least 1 and a positive finite sigma.  A stride
    or sigma of None or 0 is automatic."""

    k: int = 5
    stride: int | None = None  # None or 0: keep samples near 4096 (descent time)
    restarts: int = 2
    sigma: float | None = None  # None or 0: Silverman's rule

    def __post_init__(self):
        _check_k(self.k)
        _check_restarts(self.restarts)
        if self.stride:
            _check_stride(self.stride)
        if self.sigma:
            _check_sigma(self.sigma)


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    source: str  # "scene" or "file"
    scene: str | None = None
    width: int = 256
    height: int = 256
    noise: float = 8.0
    seed: int = 0
    pair_seed: int | None = None
    img_path: str | None = None
    truth_path: str | None = None
    mov_path: str | None = None

    def __post_init__(self):
        # CSV schema 1 quotes no field: a name must not split a row
        if any(c in self.name for c in ",\r\n"):
            raise ValueError(f"dataset name {self.name!r} holds a comma "
                             "or line break")
        if self.source not in ("scene", "file"):
            raise ValueError(f"dataset {self.name}: unknown source {self.source!r}")
        if self.source == "scene":
            if not self.scene:
                raise ValueError(f"dataset {self.name}: missing scene name")
            try:
                scene_spec(self.scene, self.width, self.height, self.noise)
            except ValueError as e:
                raise ValueError(f"dataset {self.name}: {e}") from None
        if self.source == "file" and not self.img_path:
            raise ValueError(f"dataset {self.name}: missing image path")


@dataclass(frozen=True)
class RunConfig:
    tasks: tuple[str, ...]
    kinds: tuple[EntropyKind, ...]
    datasets: tuple[DatasetSpec, ...]
    seeds: tuple[int, ...]
    out: str | None = None
    preprocess: bool = True
    truth_points: int | None = None  # per class; None or <= 0: every pixel
    threshold: ThresholdParams = field(default_factory=ThresholdParams)
    register: RegisterConfig = field(default_factory=RegisterConfig)
    cluster: ClusterParams = field(default_factory=ClusterParams)

    def __post_init__(self):
        if not self.tasks:
            raise ValueError("no tasks configured")
        for t in self.tasks:
            if t not in _TASKS:
                raise ValueError(f"unknown task {t!r}")
        if not self.kinds:
            raise ValueError("no entropy kinds configured")
        if not self.datasets:
            raise ValueError("no datasets configured")
        if not self.seeds:
            raise ValueError("no seeds configured; seeds must be explicit")
        # a repeated entry would repeat its rows under the same CSV key
        _reject_repeats("task", self.tasks)
        _reject_repeats("entropy kind", self.kinds)
        _reject_repeats("seed", self.seeds)
        _reject_repeats("dataset name", [d.name for d in self.datasets])


def parse_entropy(spec: str) -> EntropyKind:
    """Parse 'shannon', 'renyi[:order]' or 'tsallis[:order]'; an omitted
    order is 2.  A bad spec raises a ValueError that names it."""
    name, colon, order = spec.strip().partition(":")
    try:
        if name == "shannon":
            if colon:
                raise ValueError("shannon takes no parameter")
            return SHANNON
        if name not in ("renyi", "tsallis"):
            raise ValueError(f"unknown entropy kind {name!r}")
        make = getattr(EntropyKind, name)
        if not colon:
            return make()
        try:
            value = float(order)
        except ValueError:
            raise ValueError(f"order {order!r} is not a number") from None
        return make(value)
    except ValueError as e:
        raise ValueError(f"entropy spec {spec!r}: {e}") from None


def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in ("on", "true", "yes", "1"):
        return True
    if v in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"bad boolean {value!r}")


def _levels(value: str) -> tuple[int, ...]:
    return tuple(int(x) for x in value.split())


def _auto(read):
    """A reader that maps "auto" to None, the task's own choice."""
    return lambda value: None if value == "auto" else read(value)


# a reader per key of each parameter section, keyed like the section's
# dataclass fields; a key a config leaves out keeps its dataclass
# default, and any other key fails instead of being ignored
_PARAM_SECTIONS = {
    "threshold": (ThresholdParams, {"levels": _levels, "budget": int,
                                    "criterion": str}),
    "register": (RegisterConfig, {"bins": int, "budget": int, "restarts": int}),
    "cluster": (ClusterParams, {"k": int, "stride": _auto(int),
                                "restarts": int, "sigma": _auto(float)}),
}
_RUN_KEYS = {"tasks", "entropies", "seeds", "out", "preprocess", "truth_points"}
_SCENE_KEYS = {"width": int, "height": int, "noise": float, "seed": int,
               "pair_seed": int}


def _parse_dataset(name: str, value: str) -> DatasetSpec:
    tokens = value.split()
    if not tokens:
        raise ValueError(f"dataset {name}: empty definition")
    head = tokens[0]
    opts = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ValueError(f"dataset {name}: bad token {tok!r}")
        k, v = tok.split("=", 1)
        opts[k] = v
    if head.startswith("scene:"):
        bad = set(opts) - set(_SCENE_KEYS)
        if bad:
            raise ValueError(f"dataset {name}: unknown keys {sorted(bad)}")
        return DatasetSpec(name=name, source="scene", scene=head[len("scene:"):],
                           **{k: _SCENE_KEYS[k](v) for k, v in opts.items()})
    if head.startswith("file:"):
        allowed = {"truth", "mov"}
        bad = set(opts) - allowed
        if bad:
            raise ValueError(f"dataset {name}: unknown keys {sorted(bad)}")
        return DatasetSpec(name=name, source="file", img_path=head[len("file:"):],
                           truth_path=opts.get("truth"), mov_path=opts.get("mov"))
    raise ValueError(f"dataset {name}: expected scene:<name> or file:<path>")


def parse_config(path) -> RunConfig:
    """Read a sectioned key = value config file into a RunConfig."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    text = Path(path).read_text(encoding="utf-8")
    cp.read_string(text, source=str(path))
    # [datasets] keys are dataset names
    for name in [n for n in cp.sections() if n != "datasets"]:
        if name == "run":
            keys = _RUN_KEYS
        elif name in _PARAM_SECTIONS:
            keys = set(_PARAM_SECTIONS[name][1])
        else:
            raise ValueError(f"config: unknown section [{name}]")
        bad = set(cp[name]) - keys
        if bad:
            raise ValueError(f"config [{name}]: unknown keys {sorted(bad)}")
    if "run" not in cp:
        raise ValueError("config missing [run] section")
    run = cp["run"]
    for key in ("tasks", "entropies", "seeds"):
        if key not in run:
            raise ValueError(f"config [run] missing {key!r}")
    if "datasets" not in cp or not cp["datasets"]:
        raise ValueError("config missing [datasets] entries")
    tasks = tuple(run["tasks"].split())
    kinds = tuple(parse_entropy(s) for s in run["entropies"].split())
    seeds = tuple(int(s) for s in run["seeds"].split())
    datasets = tuple(_parse_dataset(n, v) for n, v in cp["datasets"].items())
    params = {}
    for name, (cls, readers) in _PARAM_SECTIONS.items():
        values = cp[name] if name in cp else {}
        params[name] = cls(**{k: readers[k](v) for k, v in values.items()})
    return RunConfig(tasks=tasks, kinds=kinds, datasets=datasets, seeds=seeds,
                     out=run.get("out"), preprocess=_parse_bool(run.get("preprocess", "on")),
                     truth_points=(int(run["truth_points"]) if "truth_points" in run
                                   else None),
                     **params)


@dataclass
class _Loaded:
    img: np.ndarray
    truth: np.ndarray | None
    ref: np.ndarray
    mov: np.ndarray
    t_true: SimilarityTransform | None


def _load_dataset(spec: DatasetSpec, preprocess: bool) -> _Loaded:
    if spec.source == "scene":
        img, truth = named_scene(spec.scene, spec.width, spec.height,
                                 spec.noise, spec.seed)
        if spec.pair_seed is not None:
            ref, mov, t_true = scene_pair(spec.scene, spec.width, spec.height,
                                          spec.noise, spec.seed, spec.pair_seed)
        else:
            ref, mov, t_true = img, img, SimilarityTransform.identity()
    else:
        img = decode_pgm(Path(spec.img_path).read_bytes())
        truth = (decode_pgm(Path(spec.truth_path).read_bytes())
                 if spec.truth_path else None)
        if spec.mov_path:
            ref = img
            mov = decode_pgm(Path(spec.mov_path).read_bytes())
            t_true = None
        else:
            ref, mov, t_true = img, img, SimilarityTransform.identity()
    if preprocess:
        ref_is_img, mov_is_ref = ref is img, mov is ref
        img = median_filter_3x3(img)
        ref = img if ref_is_img else median_filter_3x3(ref)
        mov = ref if mov_is_ref else median_filter_3x3(mov)
    return _Loaded(img, truth, ref, mov, t_true)


def _rows(task: str, kind: EntropyKind | None, dataset: str, level: str,
          seed: int, runtime_s: float, **metrics: float) -> list[ReportRow]:
    """One cell's rows, one per metric in argument order.

    A None kind is the cross-entropy rule; its param, like Shannon's,
    prints as "-".
    """
    entropy = "cross-entropy" if kind is None else kind.name
    param = "-" if kind is None or kind.name == "shannon" else str(kind.param)
    return [ReportRow(task=task, entropy=entropy, param=param, dataset=dataset,
                      level=level, metric=metric, value=value,
                      runtime_s=runtime_s, seed=seed)
            for metric, value in metrics.items()]


def scored_points(n: int | None) -> int | None:
    """The truth-points setting: n points per class when n is positive,
    else None, which scores every pixel."""
    return n if n is not None and n > 0 else None


def truth_point_mask(truth: np.ndarray, points_per_class: int,
                     seed: int) -> np.ndarray:
    """Seeded subsample of evaluation positions, n per true class."""
    if points_per_class < 1:
        raise ValueError("points per class must be >= 1")
    rng = np.random.default_rng((seed, 7919))
    mask = np.zeros(truth.size, dtype=bool)
    flat = np.asarray(truth).ravel()
    for c in np.unique(flat):
        idx = np.flatnonzero(flat == c)
        if idx.size > points_per_class:
            idx = rng.choice(idx, points_per_class, replace=False)
        mask[idx] = True
    return mask.reshape(np.asarray(truth).shape)


def _agreement(pred, truth, truth_points, seed) -> tuple[float, float]:
    aligned = align_labels(pred, truth)
    points = scored_points(truth_points)
    if points:
        m = truth_point_mask(truth, points, seed)
        cm = confusion(aligned[m], truth[m])
    else:
        cm = confusion(aligned, truth)
    return kappa(cm), overall_accuracy(cm)


def run_threshold_cell(img, truth, kind: EntropyKind | None,
                       params: ThresholdParams, level: int, seed: int,
                       dataset: str, truth_points: int | None = None
                       ) -> list[ReportRow]:
    """One thresholding cell: search, label, score against truth.

    The cell runs ``exhaustive_search`` where it is exact (``level <=
    crit.max_exact_level``) and the evolution strategy, with
    ``params.budget`` evaluations, everywhere else: for Tsallis at
    levels 4-5 only.  Without ground truth the cell reports the
    criterion value instead of agreement metrics, and labels no pixels.
    """
    crit = Criterion(kind)
    t0 = time.perf_counter()
    h = histogram(img)
    if level <= crit.max_exact_level:
        thresholds, value = exhaustive_search(h, level, crit)
    else:
        thresholds, value = heuristic_search(h, level, crit, seed=seed,
                                             budget=params.budget)
    labels = None if truth is None else apply_thresholds(img, thresholds)
    elapsed = time.perf_counter() - t0
    cell = ("threshold", kind, dataset, str(level), seed, elapsed)
    if truth is None:
        return _rows(*cell, criterion=value)
    kap, oa = _agreement(labels, truth, truth_points, seed)
    return _rows(*cell, kappa=kap, overall_accuracy=oa)


def run_register_cell(ref, mov, t_true, kind: EntropyKind,
                      params: RegisterConfig, seed: int, dataset: str
                      ) -> list[ReportRow]:
    """One registration cell: recover the transform, report quality.

    The cell's seed replaces ``params.seed``.  The nccc row shows the
    value clamped at 0 (table convention); the raw correlation stays
    available from register() itself.
    """
    res = register(ref, mov, kind, replace(params, seed=seed),
                   true_transform=t_true)
    return _rows("register", kind, dataset, "-", seed, res.runtime,
                 nccc=max(res.nccc, 0.0), rmse=res.rmse)


def _auto_stride(shape) -> int:
    pixels = int(shape[0]) * int(shape[1])
    stride = 1
    while pixels // (stride * stride) > _TARGET_SAMPLES:
        stride += 1
    return stride


def _within_class_entropy(img, labelmap, kind: EntropyKind) -> float:
    """Size-weighted entropy of the per-class intensity histograms."""
    total = labelmap.size
    score = 0.0
    for c in np.unique(labelmap):
        px = np.asarray(img)[labelmap == c]
        counts = np.bincount(px.astype(np.int64), minlength=256)
        score += px.size / total * entropy(normalize(counts), kind)
    return score


def _partition(img, params: ClusterParams, seed: int) -> tuple:
    """A cluster cell's kind-free part: the sampled features, their
    clusters and CEF, and the seconds extraction and clustering took."""
    stride = params.stride or _auto_stride(img.shape)
    t0 = time.perf_counter()
    xs = extract_features([img], stride)
    assignment, cef_val = cluster(xs, params.k, params.sigma or None,
                                  seed=seed, restarts=params.restarts)
    return xs, assignment, cef_val, time.perf_counter() - t0


def _cluster_rows(img, truth, kind: EntropyKind, partition: tuple, k: int,
                  seed: int, dataset: str, truth_points: int | None
                  ) -> list[ReportRow]:
    """A cluster cell's own part: paint the partition, score it."""
    xs, assignment, cef_val, seconds = partition
    t0 = time.perf_counter()
    labelmap = assignment_to_labelmap(assignment, xs)
    elapsed = seconds + time.perf_counter() - t0
    if kind.name == "renyi":
        score = cef_val
    else:
        score = _within_class_entropy(img, labelmap, kind)
    cell = ("cluster", kind, dataset, str(k), seed, elapsed)
    if truth is None:
        return _rows(*cell, score=score)
    kap, oa = _agreement(labelmap, truth, truth_points, seed)
    return _rows(*cell, kappa=kap, overall_accuracy=oa, score=score)


def run_cluster_cell(img, truth, kind: EntropyKind, params: ClusterParams,
                     seed: int, dataset: str, truth_points: int | None = None
                     ) -> list[ReportRow]:
    """One clustering cell: cluster features, paint labels, score.

    The partition takes no entropy kind; only the score does.  The
    score metric is the plain CEF for the Renyi kind and the
    within-class histogram entropy for Shannon and Tsallis, per the
    kind plug-in convention; kappa and accuracy always come from the
    aligned label map.  Without ground truth only the score row is
    produced.  ``runtime_s`` covers feature extraction, clustering and
    painting.
    """
    return _cluster_rows(img, truth, kind, _partition(img, params, seed),
                         params.k, seed, dataset, truth_points)


def _threshold_kinds(params: ThresholdParams, kinds) -> tuple:
    """The kinds threshold cells run under: the configured ones, or the
    one kind None for the cross-entropy rule, which takes no kind."""
    return (None,) if params.criterion == "cross-entropy" else tuple(kinds)


def _plan(cfg: RunConfig) -> list[tuple[str, EntropyKind | None, str, int]]:
    """One dataset's cells as (task, kind, level, seed), in run order.

    The order is task, kind, seed, level.  The cross-entropy rule
    replaces the per-kind threshold criterion, so its cells carry the
    kind None.
    """
    cells = []
    for task in cfg.tasks:
        kinds = cfg.kinds
        if task == "threshold":
            kinds = _threshold_kinds(cfg.threshold, kinds)
            levels = [str(level) for level in cfg.threshold.levels]
        else:
            levels = ["-" if task == "register" else str(cfg.cluster.k)]
        cells += [(task, kind, level, seed) for kind in kinds
                  for seed in cfg.seeds for level in levels]
    return cells


def run_matrix(cfg: RunConfig) -> list[ReportRow]:
    """Execute the full task x kind x dataset x seed matrix.

    Preprocessing runs once per dataset, and clustering once per
    (dataset, seed): the partition takes no entropy kind, so the seed's
    first cluster cell makes it and each kind's cell paints and scores
    it.  A cluster row's ``runtime_s`` is the partition's seconds plus
    the cell's own, as ``run_cluster_cell`` reports it.  A failing cell
    gives error rows carrying its elapsed time, and a partition that
    raised is not kept, so each cell that needs it fails on its own.
    An unreadable dataset gives every one of its cells an error row
    with runtime 0.  Neither stops the rest.  Rows come back sorted by
    task, entropy, param, dataset, level, metric, seed.  Metric values
    are a pure function of the config.
    """
    plan = _plan(cfg)
    rows: list[ReportRow] = []
    for spec in cfg.datasets:
        try:
            ds = _load_dataset(spec, cfg.preprocess)
        except Exception:
            ds = None
        partitions: dict[int, tuple] = {}  # by seed
        for task, kind, level, seed in plan:
            t0 = time.perf_counter()
            try:
                if ds is None:
                    raise ValueError(f"dataset {spec.name} is unreadable")
                # what runs a cell is looked up at call time, so a
                # replaced module attribute is the one that runs
                if task == "threshold":
                    rows += run_threshold_cell(
                        ds.img, ds.truth, kind, cfg.threshold, int(level),
                        seed, spec.name, cfg.truth_points)
                elif task == "register":
                    rows += run_register_cell(ds.ref, ds.mov, ds.t_true, kind,
                                              cfg.register, seed, spec.name)
                else:
                    if seed not in partitions:
                        partitions[seed] = _partition(ds.img, cfg.cluster, seed)
                    rows += _cluster_rows(ds.img, ds.truth, kind, partitions[seed],
                                          cfg.cluster.k, seed, spec.name,
                                          cfg.truth_points)
            except Exception:
                elapsed = 0.0 if ds is None else time.perf_counter() - t0
                rows += _rows(task, kind, spec.name, level, seed, elapsed,
                              error=float("nan"))
    rows.sort(key=lambda r: (r.task, r.entropy, r.param, r.dataset,
                             r.level, r.metric, r.seed))
    return rows
