"""Tests for the experiment-matrix runner and its CSV reporting."""

import itertools
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from entrobench import harness, scenes
from entrobench.entropy import SHANNON, EntropyKind, histogram
from entrobench.harness import (CSV_HEADER, ClusterParams, DatasetSpec,
                                RegisterParams, ReportRow, RunConfig,
                                ThresholdParams, emit_csv, format_row,
                                parse_config, parse_entropy, run_cluster_cell,
                                run_matrix, run_register_cell,
                                run_threshold_cell, runtime_category,
                                truth_point_mask)
from entrobench.metrics import align_labels, confusion, kappa
from entrobench.raster import encode_pgm, median_filter_3x3
from entrobench.scenes import named_scene
from entrobench.thresholding import (Criterion, apply_thresholds,
                                     criterion_value, exhaustive_search,
                                     heuristic_search)

RENYI2 = EntropyKind.renyi(2.0)
TSALLIS2 = EntropyKind.tsallis(2.0)


def small_scene(name="two-region", size=48, noise=4.0, seed=0):
    img, truth = named_scene(name, size, size, noise, seed)
    return median_filter_3x3(img), truth


# ---------------------------------------------------------------- reporting

def test_runtime_category_bounds():
    assert runtime_category(0.0) == "low"
    assert runtime_category(29.999) == "low"
    assert runtime_category(30.0) == "medium"
    assert runtime_category(60.0) == "medium"
    assert runtime_category(60.001) == "high"
    assert runtime_category(3600.0) == "high"


def row(**kw):
    base = dict(task="threshold", entropy="shannon", param="-", dataset="d",
                level="2", metric="kappa", value=0.5, runtime_s=0.1, seed=0)
    base.update(kw)
    return ReportRow(**base)


def test_runtime_cat_agrees_with_printed_runtime():
    # 29.99966 prints as 30.000, so the category must already be medium
    r = row(runtime_s=29.99966)
    assert format_row(r).split(",")[7] == "30.000"
    assert r.runtime_cat == "medium"
    r = row(runtime_s=29.9990)
    assert format_row(r).split(",")[7] == "29.999"
    assert r.runtime_cat == "low"


def test_format_row_layout():
    r = ReportRow(task="register", entropy="renyi", param="2.0",
                  dataset="scene5", level="-", metric="nccc", value=0.81,
                  runtime_s=12.3456, seed=7)
    assert format_row(r) == "register,renyi,2.0,scene5,-,nccc,0.810000,12.346,low,7"


def test_format_row_value_digits():
    assert format_row(row(value=123456.7)).split(",")[6] == "123457."
    assert format_row(row(value=1.5e-7)).split(",")[6] == "1.50000e-07"
    assert format_row(row(value=2.0)).split(",")[6] == "2.00000"
    assert format_row(row(value=float("nan"))).split(",")[6] == "nan"


def test_csv_header_columns():
    cols = CSV_HEADER.split(",")
    assert cols == ["task", "entropy", "param", "dataset", "level", "metric",
                    "value", "runtime_s", "runtime_cat", "seed"]
    assert len(format_row(row()).split(",")) == len(cols)


def test_emit_csv_round_trip(tmp_path):
    rows = [row(seed=s) for s in range(3)]
    path = emit_csv(rows, tmp_path / "deep" / "results.csv")
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1:] == [format_row(r) for r in rows]
    assert text.endswith("\n")


def test_emit_csv_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_csv([], tmp_path / "results.csv")


# ------------------------------------------------------------- param types

def test_threshold_params_validation():
    with pytest.raises(ValueError):
        ThresholdParams(criterion="otsu")
    with pytest.raises(ValueError):
        ThresholdParams(levels=())
    with pytest.raises(ValueError, match="duplicate threshold level 2"):
        ThresholdParams(levels=(2, 1, 2))
    for levels, bad in [((0, 6), 0), ((2, 6), 6), ((-1,), -1)]:
        with pytest.raises(ValueError,
                           match=f"threshold level {bad} outside 1-5"):
            ThresholdParams(levels=levels)
    # the evolution strategy's minimum, 50 evaluations a threshold, at
    # the largest level
    ThresholdParams(levels=(1, 4), budget=200)
    with pytest.raises(ValueError, match="budget 200 below minimum 250"):
        ThresholdParams(levels=(5, 1), budget=200)


def test_dataset_spec_validation():
    for name in ("x,y", "x\ry", "x\ny"):
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            DatasetSpec(name=name, source="scene", scene="two-region")
    with pytest.raises(ValueError):
        DatasetSpec(name="d", source="web")
    with pytest.raises(ValueError):
        DatasetSpec(name="d", source="scene")
    with pytest.raises(ValueError):
        DatasetSpec(name="d", source="file")
    for kw, cause in [(dict(scene="nosuch"), "unknown scene 'nosuch'"),
                      (dict(width=0), "scene dimensions must be positive"),
                      (dict(height=-4), "scene dimensions must be positive"),
                      (dict(noise=-3.0), "noise std must be nonnegative"),
                      (dict(noise=float("nan")), "noise std must be nonnegative"),
                      (dict(width=100000, height=100000),
                       "a 100000x100000 scene has 10000000000 pixels, "
                       "over the 23342213 pixel limit")]:
        with pytest.raises(ValueError, match=f"dataset d: {cause}"):
            DatasetSpec(**{"name": "d", "source": "scene",
                           "scene": "two-region", **kw})


def test_cluster_params_validation():
    # None is the one spelling of automatic for stride and sigma; 0 is
    # refused, as extract_features and cluster refuse it
    ClusterParams(stride=None, sigma=None)
    for bad, named in [(dict(k=1), "k 1 outside"), (dict(k=9), "k 9 outside"),
                       (dict(restarts=0), "restarts must be >= 1"),
                       (dict(stride=0), "stride must be >= 1"),
                       (dict(stride=-2), "stride must be >= 1"),
                       (dict(sigma=0.0), "sigma must be positive"),
                       (dict(sigma=-1.0), "sigma must be positive"),
                       (dict(sigma=float("nan")), "sigma must be positive"),
                       (dict(sigma=float("inf")), "sigma must be positive")]:
        with pytest.raises(ValueError, match=named):
            ClusterParams(**bad)


def scene_ds(name="s1"):
    return DatasetSpec(name=name, source="scene", scene="two-region",
                       width=48, height=48, noise=4.0)


def test_run_config_validation():
    ok = dict(tasks=("threshold",), kinds=(SHANNON,), datasets=(scene_ds(),),
              seeds=(0,))
    RunConfig(**ok)
    RunConfig(**ok, truth_points=1)
    for bad in (dict(tasks=()), dict(tasks=("paint",)), dict(kinds=()),
                dict(datasets=()), dict(seeds=()),
                dict(datasets=(scene_ds(), scene_ds())),
                # None is the one spelling of every pixel
                dict(truth_points=0), dict(truth_points=-3)):
        with pytest.raises(ValueError):
            RunConfig(**{**ok, **bad})


def test_run_config_refuses_scene_too_large_to_warp(monkeypatch):
    """A register task's scene, or with a pair seed the canvas its pair is
    cut from, is checked against the warp's pixel limit before anything
    is rendered."""
    def render(*args, **kwargs):
        raise AssertionError("a scene was rendered")

    monkeypatch.setattr(harness, "named_scene", render)
    monkeypatch.setattr(scenes, "named_scene", render)
    big = DatasetSpec(name="big", source="scene", scene="five-region",
                      width=4000, height=4000)
    paired = replace(big, width=3600, height=3600, pair_seed=1)
    run = dict(kinds=(SHANNON,), seeds=(0,))
    for ds, shape in [(big, "4000x4000 raster has 16000000"),
                      (paired, "3680x3680 raster has 13542400")]:
        with pytest.raises(ValueError, match=f"dataset big: a {shape} pixels, "
                                             "over the 13094412 pixel limit"):
            RunConfig(tasks=("threshold", "register"), datasets=(ds,), **run)
        RunConfig(tasks=("threshold", "cluster"), datasets=(ds,), **run)
    RunConfig(tasks=("register",), datasets=(replace(paired, pair_seed=None),),
              **run)


@pytest.mark.parametrize("field, value, named", [
    ("tasks", ("threshold", "cluster", "threshold"), "task 'threshold'"),
    ("kinds", (SHANNON, RENYI2, EntropyKind.renyi()), "entropy kind"),
    ("seeds", (0, 3, 3), "seed 3"),
    ("datasets", (scene_ds("a"), scene_ds("b"), scene_ds("a")),
     "dataset name 'a'"),
])
def test_run_config_rejects_repeats(field, value, named):
    ok = dict(tasks=("threshold",), kinds=(SHANNON,), datasets=(scene_ds(),),
              seeds=(0,))
    with pytest.raises(ValueError, match=f"duplicate {named}"):
        RunConfig(**{**ok, field: value})


# ------------------------------------------------------------------ parsing

def test_parse_entropy_forms():
    assert parse_entropy("shannon") is SHANNON
    assert parse_entropy(" shannon ") is SHANNON
    assert parse_entropy("renyi") == RENYI2
    assert parse_entropy("renyi:3.5") == EntropyKind.renyi(3.5)
    assert parse_entropy("tsallis:0.5") == EntropyKind.tsallis(0.5)


@pytest.mark.parametrize("spec", ["shannon:2", "gibbs", "renyi:1.0",
                                  "renyi:abc", ""])
def test_parse_entropy_rejects(spec):
    with pytest.raises(ValueError):
        parse_entropy(spec)


@pytest.mark.parametrize("spec, cause", [
    ("renyi:abc", "order 'abc' is not a number"),
    ("tsallis:2x", "order '2x' is not a number"),
    # an empty order would be a second spelling of the default
    ("renyi:", "order '' is not a number"),
    ("tsallis:", "order '' is not a number"),
    ("shannon:", "shannon takes no parameter"),
    ("renyi:1", "within"),
    ("gini", "unknown entropy kind 'gini'"),
])
def test_parse_entropy_errors_name_the_spec(tmp_path, spec, cause):
    want = re.escape(f"entropy spec {spec!r}: ") + ".*" + re.escape(cause)
    with pytest.raises(ValueError, match=want):
        parse_entropy(spec)
    text = MINIMAL.replace("renyi:2 tsallis:2", f"renyi:2 {spec}")
    with pytest.raises(ValueError, match=want):
        parse_config(write_config(tmp_path, text))


def write_config(tmp_path, text):
    p = tmp_path / "bench.cfg"
    p.write_text(text, encoding="utf-8")
    return p


MINIMAL = """\
[run]
tasks = threshold
entropies = shannon renyi:2 tsallis:2
seeds = 0 1

[datasets]
s1 = scene:two-region width=64 height=64 seed=3
"""


def test_parse_config_minimal(tmp_path):
    cfg = parse_config(write_config(tmp_path, MINIMAL))
    assert cfg.tasks == ("threshold",)
    assert cfg.kinds == (SHANNON, RENYI2, TSALLIS2)
    assert cfg.seeds == (0, 1)
    assert cfg.preprocess is True
    assert cfg.truth_points is None
    assert cfg.out is None
    ds = cfg.datasets[0]
    assert (ds.name, ds.scene, ds.width, ds.seed) == ("s1", "two-region", 64, 3)
    assert ds.pair_seed is None
    assert cfg.threshold == ThresholdParams()
    assert cfg.register == RegisterParams()
    assert cfg.cluster == ClusterParams()


FULL = """\
[run]
tasks = threshold register cluster
entropies = shannon
seeds = 7
out = results
preprocess = off
truth_points = 30

[threshold]
levels = 2 3

[register]
bins = 32

[cluster]
k = 4
stride = 2
sigma = 0.05

[datasets]
pair = scene:five-region width=96 height=96 noise=6 seed=1 pair_seed=4
disk = file:img.pgm truth=labels.pgm mov=mov.pgm
"""


def test_parse_config_full(tmp_path):
    cfg = parse_config(write_config(tmp_path, FULL))
    assert cfg.tasks == ("threshold", "register", "cluster")
    assert cfg.out == "results"
    assert cfg.preprocess is False
    assert cfg.truth_points == 30
    assert cfg.threshold == ThresholdParams(levels=(2, 3))
    assert cfg.register == RegisterParams(bins=32)
    assert cfg.cluster == ClusterParams(k=4, stride=2, sigma=0.05)
    pair, disk = cfg.datasets
    assert (pair.scene, pair.noise, pair.pair_seed) == ("five-region", 6.0, 4)
    assert (disk.img_path, disk.truth_path, disk.mov_path) == \
        ("img.pgm", "labels.pgm", "mov.pgm")


@pytest.mark.parametrize("mangle", [
    lambda t: t.replace("[run]", "[go]"),
    lambda t: t.replace("entropies = shannon renyi:2 tsallis:2\n", ""),
    lambda t: t.replace("seeds = 0 1\n", ""),
    lambda t: t.split("[datasets]")[0],
    lambda t: t.split("[datasets]")[0] + "[datasets]\n",
    lambda t: t.replace("scene:two-region", "disk:two-region"),
    lambda t: t.replace("width=64", "radius=64"),
    lambda t: t.replace("width=64", "width"),
    lambda t: t.replace("tasks = threshold", "tasks = threshold paint"),
    lambda t: t.replace("[run]\n", "[run]\npreprocess = maybe\n"),
    lambda t: t.replace("[datasets]", "[register]\nbudjet = 400\n\n[datasets]"),
    lambda t: t.replace("seeds = 0 1\n", "seeds = 0 1\nsede = 4\n"),
    lambda t: t.replace("[datasets]", "[clustr]\nk = 4\n\n[datasets]"),
])
def test_parse_config_rejects_malformed(tmp_path, mangle):
    with pytest.raises(ValueError):
        parse_config(write_config(tmp_path, mangle(MINIMAL)))


def test_parse_config_names_unknown_sections_and_keys(tmp_path):
    for old, new, named in [
            ("[datasets]", "[register]\nbudjet = 400\n\n[datasets]",
             r"\[register\]: unknown keys \['budjet'\]"),
            ("seeds = 0 1\n", "seeds = 0 1\nsede = 4\n",
             r"\[run\]: unknown keys \['sede'\]"),
            ("[datasets]", "[threshold]\nbins = 256\n\n[datasets]",
             r"\[threshold\]: unknown keys \['bins'\]"),
            # which search runs at a level is fixed, not a setting
            ("[datasets]", "[threshold]\nsearch = heuristic\n\n[datasets]",
             r"\[threshold\]: unknown keys \['search'\]"),
            # nor is how long a search runs
            ("[datasets]", "[threshold]\nbudget = 800\n\n[datasets]",
             r"\[threshold\]: unknown keys \['budget'\]"),
            ("[datasets]", "[register]\nbudget = 400\n\n[datasets]",
             r"\[register\]: unknown keys \['budget'\]"),
            ("[datasets]", "[register]\nrestarts = 2\n\n[datasets]",
             r"\[register\]: unknown keys \['restarts'\]"),
            ("[datasets]", "[cluster]\nrestarts = 1\n\n[datasets]",
             r"\[cluster\]: unknown keys \['restarts'\]"),
            ("scene:two-region width=64 height=64 seed=3", "file:x.pgm mask=y",
             r"dataset s1: unknown keys \['mask'\]"),
            ("[datasets]", "[clustr]\nk = 4\n\n[datasets]",
             r"unknown section \[clustr\]"),
            # configparser would copy its keys into every section
            ("[run]", "[DEFAULT]\nk = 4\n\n[run]",
             r"^config: unknown section \[DEFAULT\]$")]:
        with pytest.raises(ValueError, match=named):
            parse_config(write_config(tmp_path, MINIMAL.replace(old, new)))


@pytest.mark.parametrize("old, new, named", [
    ("seeds = 0 1", "seeds = 0 x",
     "config [run]: seeds: invalid literal for int() with base 10: 'x'"),
    ("[run]\n", "[run]\npreprocess = maybe\n",
     "config [run]: preprocess: bad boolean 'maybe'"),
    ("[datasets]", "[cluster]\nk = five\n\n[datasets]",
     "config [cluster]: k: invalid literal for int() with base 10: 'five'"),
    ("[datasets]", "[cluster]\nsigma = wide\n\n[datasets]",
     "config [cluster]: sigma: could not convert string to float: 'wide'"),
    ("[datasets]", "[threshold]\nlevels = 2 three\n\n[datasets]",
     "config [threshold]: levels: invalid literal for int() with base 10: "
     "'three'"),
    ("width=64", "width=abc",
     "dataset s1: width: invalid literal for int() with base 10: 'abc'"),
    ("seed=3", "seed=3 pair_seed=x",
     "dataset s1: pair_seed: invalid literal for int() with base 10: 'x'"),
], ids=["run-seeds", "run-preprocess", "cluster-k", "cluster-sigma",
        "threshold-levels", "scene-width", "scene-pair-seed"])
def test_parse_config_names_the_key_a_reader_refuses(tmp_path, old, new, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        parse_config(write_config(tmp_path, MINIMAL.replace(old, new)))


def test_parse_config_refuses_comma_in_dataset_name(tmp_path):
    """Schema 1 quotes no field, so the name would split every row."""
    text = MINIMAL.replace("s1 = ", "x,y = ")
    with pytest.raises(ValueError, match="dataset name 'x,y'"):
        parse_config(write_config(tmp_path, text))


def test_readme_config_parses(tmp_path):
    """The README's example config, less its file dataset, whose paths
    are placeholders, names only keys the parser knows."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    lines = blocks[0].splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith("pic = ")]
    assert len(kept) == len(lines) - 1
    cfg = parse_config(write_config(tmp_path, "".join(kept)))
    assert [d.name for d in cfg.datasets] == ["two", "five"]


@pytest.mark.parametrize("old, new, named", [
    ("tasks = threshold", "tasks = threshold threshold", "task 'threshold'"),
    ("renyi:2 tsallis:2", "renyi:2 tsallis:2 renyi", "entropy kind"),
    ("seeds = 0 1", "seeds = 0 1 0", "seed 0"),
    ("[datasets]\n", "[threshold]\nlevels = 3 3\n\n[datasets]\n",
     "threshold level 3"),
])
def test_parse_config_rejects_repeats(tmp_path, old, new, named):
    with pytest.raises(ValueError, match=f"duplicate {named}"):
        parse_config(write_config(tmp_path, MINIMAL.replace(old, new)))


def test_parse_config_file_dataset_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, MINIMAL.replace(
        "scene:two-region width=64 height=64 seed=3", "file:only.pgm")))
    ds = cfg.datasets[0]
    assert (ds.source, ds.img_path, ds.truth_path, ds.mov_path) == \
        ("file", "only.pgm", None, None)


# --------------------------------------------------------------- truth mask

def test_truth_point_mask_counts_and_determinism():
    truth = np.repeat(np.arange(3), (400, 300, 12)).reshape(-1)
    rng = np.random.default_rng(0)
    truth = rng.permutation(truth).reshape(4, 178)
    mask = truth_point_mask(truth, 30, seed=5)
    assert mask.shape == truth.shape
    counts = [np.count_nonzero(mask & (truth == c)) for c in range(3)]
    assert counts == [30, 30, 12]  # small classes kept whole
    assert np.array_equal(mask, truth_point_mask(truth, 30, seed=5))
    assert not np.array_equal(mask, truth_point_mask(truth, 30, seed=6))
    with pytest.raises(ValueError):
        truth_point_mask(truth, 0, seed=5)


# ------------------------------------------------------------------- cells

def test_run_threshold_cell_scored_rows():
    img, truth = small_scene()
    rows = run_threshold_cell(img, truth, SHANNON, ThresholdParams(), 1, 0,
                              "demo")
    assert [r.metric for r in rows] == ["kappa", "overall_accuracy"]
    for r in rows:
        assert (r.task, r.entropy, r.param, r.dataset, r.level) == \
            ("threshold", "shannon", "-", "demo", "1")
        assert r.seed == 0 and r.runtime_s >= 0.0
    assert rows[0].value > 0.9
    assert rows[1].value > 0.95


def test_run_threshold_cell_criterion_row_without_truth():
    img, _ = small_scene()
    rows = run_threshold_cell(img, None, RENYI2, ThresholdParams(), 1, 3, "d")
    assert len(rows) == 1 and rows[0].metric == "criterion"
    _, expected = exhaustive_search(histogram(img), 1, Criterion(RENYI2))
    assert rows[0].value == expected
    assert (rows[0].entropy, rows[0].param) == ("renyi", "2.0")


def test_run_threshold_cell_without_truth_labels_no_pixels(monkeypatch):
    def refuse(img, thresholds):
        raise AssertionError("a truthless cell has no use for a label map")

    monkeypatch.setattr(harness, "apply_thresholds", refuse)
    img, _ = small_scene()
    rows = run_threshold_cell(img, None, SHANNON, ThresholdParams(), 2, 0, "d")
    assert [r.metric for r in rows] == ["criterion"]


def test_run_threshold_cell_cross_entropy_labeling():
    img, _ = small_scene()
    rows = run_threshold_cell(img, None, None, ThresholdParams(), 1, 0, "d")
    assert (rows[0].entropy, rows[0].param) == ("cross-entropy", "-")
    _, expected = exhaustive_search(histogram(img), 1,
                                    Criterion.cross_entropy())
    assert rows[0].value == expected


def test_run_threshold_cell_additive_level_4_scores_exact_tuple():
    img, truth = small_scene("five-region", 64, 6.0)
    rows = run_threshold_cell(img, truth, SHANNON,
                              ThresholdParams(budget=1500), 4, 0, "d")
    t, _ = exhaustive_search(histogram(img), 4, Criterion(SHANNON))
    pred = align_labels(apply_thresholds(img, t), truth)
    assert rows[0].metric == "kappa"
    assert rows[0].value == kappa(confusion(pred, truth))


def small_support_image():
    """A 48x48 image over 12 gray levels with unequal counts."""
    rng = np.random.default_rng(11)
    levels = np.array([3, 9, 10, 40, 41, 77, 120, 121, 122, 180, 230, 254])
    return rng.choice(levels, size=(48, 48),
                      p=rng.dirichlet(np.ones(levels.size))).astype(np.uint8)


def brute_optimum(h, k, crit):
    """Best criterion over every threshold tuple, scored by criterion_value.

    A threshold inside a run of empty bins gives the same classes as the
    occupied bin that starts the run, so the tuples of occupied bins (but
    the last) cover every partition.
    """
    cand = np.flatnonzero(h)[:-1]
    sign = -1.0 if crit.is_cross_entropy else 1.0
    return max(sign * criterion_value(h, t, crit)
               for t in itertools.combinations(cand.tolist(), k))


@pytest.mark.parametrize("level", [4, 5])
@pytest.mark.parametrize("kind", [SHANNON, RENYI2, None],
                         ids=["shannon", "renyi2", "cross-entropy"])
def test_run_threshold_cell_additive_high_level_is_exact(kind, level):
    img = small_support_image()
    h = histogram(img)
    assert np.count_nonzero(h) <= 14
    crit = Criterion.cross_entropy() if kind is None else Criterion(kind)
    # the smallest budget the ES accepts: the exact search ignores it
    params = ThresholdParams(budget=250)
    rows = run_threshold_cell(img, None, kind, params, level, 0, "d")
    sign = -1.0 if kind is None else 1.0
    assert sign * rows[0].value == pytest.approx(brute_optimum(h, level, crit),
                                                 abs=1e-9)


@pytest.mark.parametrize("level", [4, 5])
def test_run_threshold_cell_tsallis_high_level_uses_heuristic(level):
    img, _ = small_scene("five-region", 64, 6.0)
    params = ThresholdParams(budget=1500)
    rows = run_threshold_cell(img, None, TSALLIS2, params, level, 3, "d")
    _, expected = heuristic_search(histogram(img), level, Criterion(TSALLIS2),
                                   seed=3, budget=1500)
    assert rows[0].value == expected


def test_run_threshold_cell_runs_exact_search_exactly_where_it_is_exact(
        monkeypatch):
    calls = []

    def recorder(name, search):
        def record(h, level, crit, **kw):
            calls.append((name, level, crit))
            return search(h, level, crit, **kw)
        return record

    monkeypatch.setattr(harness, "exhaustive_search",
                        recorder("exact", exhaustive_search))
    monkeypatch.setattr(harness, "heuristic_search",
                        recorder("es", heuristic_search))
    img = small_support_image()
    kinds = (SHANNON, RENYI2, TSALLIS2, None)
    assert [Criterion(k).max_exact_level for k in kinds] == [5, 5, 3, 5]
    for kind, level in itertools.product(kinds, range(1, 6)):
        crit = Criterion(kind)
        calls.clear()
        run_threshold_cell(img, None, kind, ThresholdParams(budget=250),
                           level, 0, "d")
        exact = level <= crit.max_exact_level
        assert calls == [("exact" if exact else "es", level, crit)]


def test_run_register_cell_self_pair():
    img, _ = small_scene("five-region", 64, 6.0)
    rows = run_register_cell(img, img, None, RENYI2,
                             RegisterParams(budget=400, restarts=1), 0, "d")
    by_metric = {r.metric: r for r in rows}
    assert set(by_metric) == {"nccc", "rmse"}
    assert by_metric["nccc"].value >= 0.99
    assert np.isnan(by_metric["rmse"].value)  # no ground-truth transform
    assert all(r.level == "-" for r in rows)


def test_run_register_cell_reports_rmse_against_truth():
    from entrobench.registration import SimilarityTransform, transform_apply
    img, _ = small_scene("five-region", 96, 6.0)
    t_gen = SimilarityTransform(3.0, -2.0, 0.0, 1.0)
    mov, _ = transform_apply(img, t_gen)
    rows = run_register_cell(img, mov, t_gen.inverse(), SHANNON,
                             RegisterParams(), 0, "d")
    by_metric = {r.metric: r for r in rows}
    assert by_metric["rmse"].value <= 0.5
    assert by_metric["nccc"].value >= 0.95


def test_run_cluster_cell_scored_rows():
    img, truth = small_scene("five-region", 64, 6.0)
    params = ClusterParams(k=5, stride=2)
    rows = run_cluster_cell(img, truth, RENYI2, params, 0, "d")
    assert [r.metric for r in rows] == ["kappa", "overall_accuracy", "score"]
    assert rows[0].value >= 0.8
    assert all(r.level == "5" for r in rows)
    again = run_cluster_cell(img, truth, RENYI2, params, 0, "d")
    assert [r.value for r in rows] == [r.value for r in again]


def test_run_cluster_cell_score_only_without_truth():
    img, _ = small_scene("five-region", 64, 6.0)
    rows = run_cluster_cell(img, None, TSALLIS2, ClusterParams(k=3, stride=4),
                            1, "d")
    assert [r.metric for r in rows] == ["score"]
    assert np.isfinite(rows[0].value)


# ------------------------------------------------------------------- matrix

def matrix_config(**kw):
    base = dict(tasks=("threshold",), kinds=(SHANNON, RENYI2, TSALLIS2),
                datasets=(scene_ds(),), seeds=(0,),
                threshold=ThresholdParams(levels=(1, 2)))
    base.update(kw)
    return RunConfig(**base)


def test_run_matrix_shape_and_order():
    rows = run_matrix(matrix_config())
    # 3 kinds x 2 levels x 2 metrics on the one scored dataset
    assert len(rows) == 12
    keys = [(r.task, r.entropy, r.param, r.dataset, r.level, r.metric, r.seed)
            for r in rows]
    assert keys == sorted(keys)
    assert {r.metric for r in rows} == {"kappa", "overall_accuracy"}


def test_run_matrix_metric_values_reproducible():
    a = run_matrix(matrix_config())
    b = run_matrix(matrix_config())
    assert [format_row(r).split(",")[:7] for r in a] == \
        [format_row(r).split(",")[:7] for r in b]


def test_run_matrix_isolates_bad_dataset(tmp_path, monkeypatch):
    bad = DatasetSpec(name="broken", source="file", img_path="missing.pgm")
    rows = run_matrix(matrix_config(datasets=(bad, scene_ds())))
    errors = [r for r in rows if r.metric == "error"]
    good = [r for r in rows if r.metric != "error"]
    assert len(errors) == 6  # 3 kinds x 2 levels for the unreadable dataset
    assert all(r.dataset == "broken" and np.isnan(r.value) for r in errors)
    assert len(good) == 12 and all(r.dataset == "s1" for r in good)

    # a dataset loads only what its planned cells read: a missing file no
    # cell reads fails no cell, and a pair no cell registers is not made
    img_p = tmp_path / "img.pgm"
    img_p.write_bytes(encode_pgm(small_scene()[0]))
    pairs = []
    monkeypatch.setattr(harness, "scene_pair", lambda *a: pairs.append(a))
    for task, spec in [
            ("threshold", DatasetSpec(name="d", source="file", img_path=str(img_p),
                                      mov_path="missing.pgm")),
            ("register", DatasetSpec(name="d", source="file", img_path=str(img_p),
                                     truth_path="missing.pgm")),
            ("threshold", replace(scene_ds(), pair_seed=3))]:
        rows = run_matrix(matrix_config(tasks=(task,), kinds=(SHANNON,),
                                        datasets=(spec,)))
        assert rows and all(r.metric != "error" for r in rows), task
    assert pairs == []


@pytest.mark.parametrize("criterion", ["max-entropy", "cross-entropy"])
def test_run_matrix_unreadable_dataset_errors_every_cell(criterion):
    bad = DatasetSpec(name="broken", source="file", img_path="missing.pgm")
    cfg = matrix_config(tasks=("threshold", "register", "cluster"),
                        kinds=(SHANNON, RENYI2), datasets=(bad,), seeds=(0, 3),
                        threshold=ThresholdParams(levels=(1, 2),
                                                  criterion=criterion),
                        cluster=ClusterParams(k=4))
    rows = run_matrix(cfg)
    labels = [("shannon", "-"), ("renyi", "2.0")]
    th = [("cross-entropy", "-")] if criterion == "cross-entropy" else labels
    want = sorted(
        [("threshold", e, p, lv, s) for e, p in th for s in (0, 3)
         for lv in ("1", "2")]
        + [("register", e, p, "-", s) for e, p in labels for s in (0, 3)]
        + [("cluster", e, p, "4", s) for e, p in labels for s in (0, 3)])
    assert [(r.task, r.entropy, r.param, r.level, r.seed) for r in rows] == want
    assert all(r.metric == "error" and r.dataset == "broken"
               and np.isnan(r.value) and r.runtime_s == 0.0 for r in rows)


def test_run_matrix_failing_cell_errors_only_itself():
    # 6x6 at stride 2 is 9 samples, under the 10 k clustering needs
    tiny = DatasetSpec(name="tiny", source="scene", scene="two-region",
                       width=6, height=6, noise=4.0, seed=1)
    cfg = matrix_config(tasks=("threshold", "cluster"), kinds=(SHANNON, RENYI2),
                        datasets=(tiny, scene_ds()),
                        threshold=ThresholdParams(levels=(2,)),
                        cluster=ClusterParams(k=5, stride=2, restarts=1))
    rows = run_matrix(cfg)
    errors = [r for r in rows if r.metric == "error"]
    assert [(r.task, r.dataset, r.entropy) for r in errors] == \
        [("cluster", "tiny", "renyi"), ("cluster", "tiny", "shannon")]
    assert all(np.isnan(r.value) and r.runtime_s >= 0.0 for r in errors)

    def values(rows):
        return {(r.task, r.entropy, r.param, r.dataset, r.level, r.metric,
                 r.seed): r.value for r in rows if r.metric != "error"}

    alone = values(run_matrix(replace(cfg, datasets=(scene_ds(),))))
    tiny_threshold = values(run_matrix(replace(cfg, tasks=("threshold",),
                                               datasets=(tiny,))))
    assert values(rows) == {**alone, **tiny_threshold}
    assert len(tiny_threshold) == 4 and len(alone) == 10


def test_run_matrix_lets_a_program_fault_through(monkeypatch):
    """Only a failure on the data becomes an error row: a TypeError in a
    cell or in the loader is a fault of the program and propagates."""
    def fault(*args, **kwargs):
        raise TypeError("a fault")

    monkeypatch.setattr(harness, "run_threshold_cell", fault)
    with pytest.raises(TypeError, match="a fault"):
        run_matrix(matrix_config())
    monkeypatch.undo()
    monkeypatch.setattr(harness, "_load_dataset", fault)
    with pytest.raises(TypeError, match="a fault"):
        run_matrix(matrix_config())


def test_run_matrix_calls_in_dataset_task_kind_seed_order(monkeypatch):
    calls = []
    register, paint = harness.register, harness.assignment_to_labelmap

    def record_register(ref, mov, kind, config, **kw):
        calls.append(("register", ref.shape, kind, config.seed))
        return register(ref, mov, kind, config, **kw)

    def record_paint(a, xs):
        calls.append(("paint", xs.shape))
        return paint(a, xs)

    monkeypatch.setattr(harness, "register", record_register)
    monkeypatch.setattr(harness, "assignment_to_labelmap", record_paint)
    small = DatasetSpec(name="a", source="scene", scene="two-region",
                        width=40, height=40, noise=4.0)
    kinds, seeds = (TSALLIS2, SHANNON), (1, 0)
    run_matrix(matrix_config(tasks=("cluster", "threshold", "register"),
                             kinds=kinds, datasets=(scene_ds("b"), small),
                             seeds=seeds,
                             register=RegisterParams(budget=200, restarts=0),
                             cluster=ClusterParams(k=2, stride=4, restarts=1)))
    want = []
    for shape in ((48, 48), (40, 40)):
        want += [("paint", shape)] * 4
        want += [("register", shape, k, s) for k in kinds for s in seeds]
    assert calls == want


def test_run_matrix_clusters_once_per_dataset_and_seed(monkeypatch):
    calls = {"cluster": 0, "paint": 0}
    cluster, paint = harness.cluster, harness.assignment_to_labelmap

    def count(name, fn):
        def counted(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return counted

    monkeypatch.setattr(harness, "cluster", count("cluster", cluster))
    monkeypatch.setattr(harness, "assignment_to_labelmap", count("paint", paint))
    specs = (scene_ds("a"), DatasetSpec(name="b", source="scene",
                                        scene="five-region", width=40,
                                        height=40, noise=4.0, seed=2))
    kinds, seeds = (SHANNON, RENYI2, TSALLIS2), (0, 5)
    params = ClusterParams(k=3, stride=3, restarts=1)
    rows = run_matrix(matrix_config(tasks=("cluster",), kinds=kinds,
                                    datasets=specs, seeds=seeds, cluster=params))
    # one partition per (dataset, seed); one label map per cell
    assert calls == {"cluster": 4, "paint": 12}
    got = {(r.dataset, r.entropy, r.seed, r.metric): r.value for r in rows}
    want = {}
    for spec in specs:
        ds = harness._load_dataset(spec, True, ("cluster",))
        for kind, seed in itertools.product(kinds, seeds):
            for r in run_cluster_cell(ds.img, ds.truth, kind, params, seed,
                                      spec.name):
                want[spec.name, r.entropy, seed, r.metric] = r.value
    assert len(want) == 2 * 3 * 2 * 3
    assert got == want


@pytest.mark.parametrize("source,paired,filters", [
    ("scene", False, 1), ("scene", True, 3), ("file", False, 1), ("file", True, 2)])
def test_load_dataset_filters_each_distinct_raster_once(source, paired, filters,
                                                        tmp_path, monkeypatch):
    """A self-registering dataset's ref and moving image are its image,
    filtered once; a scene pair filters three rasters, a file pair two,
    as the file's image is its ref."""
    img, _ = named_scene("five-region", 32, 32, 8.0, 1)
    if source == "scene":
        spec = DatasetSpec(name="d", source="scene", scene="five-region",
                           width=32, height=32, seed=1,
                           pair_seed=3 if paired else None)
    else:
        (tmp_path / "img.pgm").write_bytes(encode_pgm(img))
        (tmp_path / "mov.pgm").write_bytes(encode_pgm(img[::-1]))
        spec = DatasetSpec(name="d", source="file", img_path=str(tmp_path / "img.pgm"),
                           mov_path=str(tmp_path / "mov.pgm") if paired else None)
    calls = []

    def counting(a):
        calls.append(a.shape)
        return median_filter_3x3(a)

    monkeypatch.setattr(harness, "median_filter_3x3", counting)
    ds = harness._load_dataset(spec, True, ("register",))
    assert len(calls) == filters
    assert ds.img.tobytes() == median_filter_3x3(img).tobytes()
    if not paired:
        assert ds.ref is ds.img and ds.mov is ds.img


def test_run_matrix_cross_entropy_collapses_kinds():
    cfg = matrix_config(threshold=ThresholdParams(levels=(1,),
                                                  criterion="cross-entropy"))
    rows = run_matrix(cfg)
    assert len(rows) == 2  # one cell despite three configured kinds
    assert all(r.entropy == "cross-entropy" and r.param == "-" for r in rows)


def test_run_matrix_register_self_pair_quality():
    cfg = matrix_config(tasks=("register",), kinds=(SHANNON,),
                        register=RegisterParams(budget=400, restarts=1))
    rows = run_matrix(cfg)
    by_metric = {r.metric: r for r in rows}
    assert by_metric["nccc"].value >= 0.99
    assert by_metric["rmse"].value <= 0.1


def test_threshold_cell_truth_points_subsamples():
    # unfiltered noisy scene so dense kappa is strictly below 1
    img, truth = named_scene("two-region", 48, 48, 30.0, 2)
    dense = run_threshold_cell(img, truth, SHANNON, ThresholdParams(), 1, 0,
                               "d")
    sub = run_threshold_cell(img, truth, SHANNON, ThresholdParams(), 1, 0,
                             "d", truth_points=20)
    assert dense[0].value < 1.0
    assert dense[0].value != sub[0].value
