"""Experiment-matrix runner with CSV reporting.

A run config names tasks, entropy kinds, datasets, and seeds; the
runner executes the Cartesian product, one cell at a time, and emits
one CSV row per metric with the schema

    task,entropy,param,dataset,level,metric,value,runtime_s,runtime_cat,seed

Values are printed with 6 significant digits; runtime categories follow
the low < 30 s, medium 30-60 s, high > 60 s convention.  Each setting
has one reader, and a bad one fails naming its key or when its settings
class is built, so ``parse_config`` raises it before any cell runs.  A
failure that depends on the data, such as an unreadable file, a constant
image or too few samples, becomes rows with metric "error" and never
suppresses other cells.  The CLI verbs read
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
from .raster import PgmError, decode_pgm, median_filter_3x3
from .registration import RegisterConfig, SimilarityTransform, register
from .scenes import _warp_shape, named_scene, scene_pair, scene_spec
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
# failures on the data (PgmError and LinAlgError are ValueErrors)
_DATA_ERRORS = (ValueError, OSError)


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
    or sigma of None is automatic."""

    k: int = 5
    stride: int | None = None  # None: keep samples near 4096 (descent time)
    restarts: int = 2
    sigma: float | None = None  # None: Silverman's rule

    def __post_init__(self):
        _check_k(self.k)
        _check_restarts(self.restarts)
        if self.stride is not None:
            _check_stride(self.stride)
        if self.sigma is not None:
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


def _check_truth_points(points: int) -> None:
    if points < 1:
        raise ValueError(f"truth points per class must be >= 1, got {points}")


@dataclass(frozen=True)
class RunConfig:
    tasks: tuple[str, ...]
    kinds: tuple[EntropyKind, ...]
    datasets: tuple[DatasetSpec, ...]
    seeds: tuple[int, ...]
    out: str | None = None
    preprocess: bool = True
    truth_points: int | None = None  # per class, at least 1; None: every pixel
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
        if self.truth_points is not None:
            _check_truth_points(self.truth_points)
        # a scene too large to warp fails here, before it is rendered
        for d in self.datasets:
            if "register" in self.tasks and d.source == "scene":
                try:
                    _warp_shape(d.width, d.height, d.pair_seed is not None)
                except ValueError as e:
                    raise ValueError(f"dataset {d.name}: {e}") from None


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
    try:  # on/off, true/false, yes/no, 1/0, as configparser reads them
        return configparser.ConfigParser.BOOLEAN_STATES[value.strip().lower()]
    except KeyError:
        raise ValueError(f"bad boolean {value!r}") from None


def _words(read):
    """A reader of a space-separated list, each word read by ``read``."""
    return lambda value: tuple(read(word) for word in value.split())


def _auto(read):
    """A reader that maps "auto" to None, the task's own choice."""
    def auto_or(value):
        return None if value == "auto" else read(value)
    auto_or.__name__ = f"{read.__name__} or auto"  # argparse's usage error names it
    return auto_or


def _read(where: str, values, readers: dict) -> dict:
    """Each key's value read by the key's reader.  An unknown key, or a
    value its reader refuses, fails naming ``where`` and the key."""
    bad = set(values) - set(readers)
    if bad:
        raise ValueError(f"{where}: unknown keys {sorted(bad)}")
    read = {}
    for key, value in values.items():
        try:
            read[key] = readers[key](value)
        except ValueError as e:
            raise ValueError(f"{where}: {key}: {e}") from None
    return read


# a reader per key, keyed by the config's own key names; a key a config
# leaves out keeps its dataclass default, and any other key fails
# instead of being ignored
_RUN_KEYS = {"tasks": _words(str), "entropies": _words(parse_entropy),
             "seeds": _words(int), "out": str, "preprocess": _parse_bool,
             "truth_points": int}
_PARAM_SECTIONS = {
    "threshold": (ThresholdParams, {"levels": _words(int), "budget": int,
                                    "criterion": str}),
    "register": (RegisterConfig, {"bins": int, "budget": int, "restarts": int}),
    "cluster": (ClusterParams, {"k": int, "stride": _auto(int),
                                "restarts": int, "sigma": _auto(float)}),
}
_SCENE_KEYS = {"width": int, "height": int, "noise": float, "seed": int,
               "pair_seed": int}
_FILE_KEYS = {"truth": str, "mov": str}


def _parse_dataset(name: str, value: str) -> DatasetSpec:
    where = f"dataset {name}"
    tokens = value.split()
    if not tokens:
        raise ValueError(f"{where}: empty definition")
    head = tokens[0]
    opts = {}
    for tok in tokens[1:]:
        key, eq, text = tok.partition("=")
        if not eq:
            raise ValueError(f"{where}: bad token {tok!r}")
        opts[key] = text
    if head.startswith("scene:"):
        return DatasetSpec(name=name, source="scene", scene=head[len("scene:"):],
                           **_read(where, opts, _SCENE_KEYS))
    if head.startswith("file:"):
        opts = _read(where, opts, _FILE_KEYS)
        return DatasetSpec(name=name, source="file", img_path=head[len("file:"):],
                           truth_path=opts.get("truth"), mov_path=opts.get("mov"))
    raise ValueError(f"{where}: expected scene:<name> or file:<path>")


def parse_config(path) -> RunConfig:
    """Read a sectioned key = value config file into a RunConfig."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp.read_string(Path(path).read_text(encoding="utf-8"), source=str(path))
    for name in cp.sections():
        if name not in ("run", "datasets", *_PARAM_SECTIONS):
            raise ValueError(f"config: unknown section [{name}]")
    run = _read("config [run]", cp["run"] if "run" in cp else {}, _RUN_KEYS)
    for key in ("tasks", "entropies", "seeds"):
        if key not in run:
            raise ValueError(f"config [run] missing {key!r}")
    if "datasets" not in cp or not cp["datasets"]:
        raise ValueError("config missing [datasets] entries")
    datasets = tuple(_parse_dataset(n, v) for n, v in cp["datasets"].items())
    params = {name: cls(**_read(f"config [{name}]",
                                cp[name] if name in cp else {}, readers))
              for name, (cls, readers) in _PARAM_SECTIONS.items()}
    return RunConfig(kinds=run.pop("entropies"), datasets=datasets, **run,
                     **params)


@dataclass
class _Loaded:
    img: np.ndarray
    truth: np.ndarray | None
    ref: np.ndarray
    mov: np.ndarray
    t_true: SimilarityTransform | None


def _read_pgm(path: str) -> np.ndarray:
    """The PGM file at path, decoded; a malformed one fails naming it."""
    try:
        return decode_pgm(Path(path).read_bytes())
    except PgmError as e:
        e.args = (f"{path}: {e}",)
        raise


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
        img = _read_pgm(spec.img_path)
        truth = _read_pgm(spec.truth_path) if spec.truth_path else None
        if spec.mov_path:
            ref = img
            mov = _read_pgm(spec.mov_path)
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


def truth_point_mask(truth: np.ndarray, points_per_class: int,
                     seed: int) -> np.ndarray:
    """Seeded subsample of evaluation positions, n per true class."""
    _check_truth_points(points_per_class)
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
    if truth_points is not None:
        m = truth_point_mask(truth, truth_points, seed)
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
    stride = _auto_stride(img.shape) if params.stride is None else params.stride
    t0 = time.perf_counter()
    xs = extract_features([img], stride)
    assignment, cef_val = cluster(xs, params.k, params.sigma,
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
    the cell's own, as ``run_cluster_cell`` reports it.  A cell that
    fails on its data gives error rows carrying its elapsed time, and a
    partition that raised is not kept, so each cell that needs it fails
    on its own.  An unreadable dataset gives every one of its cells an
    error row with runtime 0.  Neither stops the rest; any exception
    but ``_DATA_ERRORS`` does.  Rows come back sorted by
    task, entropy, param, dataset, level, metric, seed.  Metric values
    are a pure function of the config.
    """
    plan = _plan(cfg)
    rows: list[ReportRow] = []
    for spec in cfg.datasets:
        try:
            ds = _load_dataset(spec, cfg.preprocess)
        except _DATA_ERRORS:
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
            except _DATA_ERRORS:
                elapsed = 0.0 if ds is None else time.perf_counter() - t0
                rows += _rows(task, kind, spec.name, level, seed, elapsed,
                              error=float("nan"))
    rows.sort(key=lambda r: (r.task, r.entropy, r.param, r.dataset,
                             r.level, r.metric, r.seed))
    return rows
