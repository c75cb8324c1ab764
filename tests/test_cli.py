"""End-to-end tests for the command-line front end."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entrobench
from entrobench import cli
from entrobench.cli import _build_parser, main
from entrobench.entropy import PARAM_GUARD, EntropyKind
from entrobench.harness import (CSV_HEADER, ClusterParams, DatasetSpec,
                                ThresholdParams, format_row, parse_config,
                                parse_entropy, run_cluster_cell, run_matrix,
                                run_threshold_cell)
from entrobench.raster import decode_pgm, encode_pgm, median_filter_3x3
from entrobench.registration import (RegisterConfig, SimilarityTransform,
                                     transform_apply)
from entrobench.scenes import named_scene, scene_pair


def write_scene(tmp_path, name="five-region", size=64, noise=6.0, seed=0):
    img, truth = named_scene(name, size, size, noise, seed)
    img_p = tmp_path / "scene.pgm"
    truth_p = tmp_path / "truth.pgm"
    img_p.write_bytes(encode_pgm(img))
    truth_p.write_bytes(encode_pgm(truth))
    return img_p, truth_p, img, truth


def csv_rows(captured):
    lines = captured.strip().splitlines()
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


# ----------------------------------------------------------------- plumbing

def test_version_reports_schema(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("entrobench ")
    assert "csv schema 1" in out


def test_import_loads_no_scipy_optimize_or_spatial():
    """Start-up cost and the runtime dependency: importing the CLI and
    running a cluster cell, label painting included, loads no scipy
    module at all.  The child imports the package these tests import."""
    src = str(Path(entrobench.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import entrobench.cli, sys\n"
            "from entrobench.entropy import SHANNON\n"
            "from entrobench.harness import ClusterParams, run_cluster_cell\n"
            "from entrobench.scenes import named_scene\n"
            "img, truth = named_scene('five-region', 32, 32, 6.0, 0)\n"
            "rows = run_cluster_cell(img, truth, SHANNON, ClusterParams(k=5, stride=2),"
            " 0, 'scene')\n"
            "assert [r.metric for r in rows] == ['kappa', 'overall_accuracy', 'score']\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verb_is_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_verb_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["warp", "x.pgm"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["threshold", "x.pgm", "--entropy", "shannon:2"],
    ["threshold", "x.pgm", "--entropy", "renyi:1"],
    ["threshold", "x.pgm", "--entropy", "tsallis:-2"],
    ["threshold", "x.pgm", "--entropy", "gini"],
    ["threshold", "x.pgm", "--bins", "128"],
    ["threshold", "x.pgm", "--entropy", "renyi", "--alpha", "2"],
    ["threshold", "x.pgm", "--entropy", "tsallis", "--q", "2"],
    ["threshold", "x.pgm", "--search", "heuristic"],
    ["register", "r.pgm", "m.pgm", "--entropy", "renyi", "--alpha", "2"],
    ["cluster", "x.pgm", "--entropy", "tsallis", "--q", "2"],
    ["threshold", "x.pgm", "--truth-points", "5"],
    ["cluster", "x.pgm", "--truth-points", "5", "--k", "2"],
    ["cluster", "x.pgm", "--stride", "abc"],
    # search effort is not a setting
    ["threshold", "x.pgm", "--levels", "5", "--budget", "200"],
    ["register", "r.pgm", "m.pgm", "--budget", "400"],
    ["register", "r.pgm", "m.pgm", "--restarts", "1"],
    ["cluster", "x.pgm", "--restarts", "1"],
])
def test_bad_flag_combinations_exit_with_usage(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("verb", ["threshold", "cluster"])
def test_truth_points_without_truth_names_both_flags(verb, capsys):
    with pytest.raises(SystemExit) as exc:
        main([verb, "x.pgm", "--truth-points", "5"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "--truth-points needs --truth")


@pytest.mark.parametrize("spec", ["shannon:2", "renyi:1", "tsallis:-2", "gini",
                                  "renyi:abc", "renyi:"])
def test_bad_entropy_spec_usage_carries_the_parse_message(spec, capsys):
    with pytest.raises(ValueError) as parsed:
        parse_entropy(spec)
    with pytest.raises(SystemExit) as exc:
        main(["cluster", "x.pgm", "--entropy", spec])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"argument --entropy: {parsed.value}")


def test_entropy_flags_build_the_spec_kind():
    parser = _build_parser()
    for argv, kind in [([], EntropyKind.shannon()),
                       (["--entropy", "shannon"], EntropyKind.shannon()),
                       (["--entropy", "renyi"], EntropyKind.renyi()),
                       (["--entropy", "renyi:0.1"], EntropyKind.renyi(0.1)),
                       (["--entropy", "tsallis:3.5"], EntropyKind.tsallis(3.5))]:
        for verb in (["threshold", "x.pgm"], ["register", "r.pgm", "m.pgm"],
                     ["cluster", "x.pgm"]):
            assert parser.parse_args([*verb, *argv]).kind == kind


_ORDERS = st.floats(min_value=0.05, max_value=20.0).filter(
    lambda v: abs(v - 1.0) >= PARAM_GUARD)


@settings(max_examples=40, deadline=None)
@given(kind=st.one_of(st.just(EntropyKind.shannon()),
                      _ORDERS.map(EntropyKind.renyi),
                      _ORDERS.map(EntropyKind.tsallis)))
def test_csv_kind_columns_read_back_through_entropy_flag(kind):
    """A row's entropy and param columns, written as the spec name or
    name:param, give the threshold verb the row's kind back."""
    img = np.arange(64, dtype=np.uint8).reshape(8, 8)
    rows = run_threshold_cell(img, None, kind, ThresholdParams(levels=(1,)),
                              1, 0, "d")
    parser = _build_parser()
    for r in rows:
        name, param = format_row(r).split(",")[1:3]
        spec = name if param == "-" else f"{name}:{param}"
        assert parser.parse_args(["threshold", "x.pgm", "--entropy",
                                  spec]).kind == kind


def test_parser_defaults_are_the_dataclass_defaults():
    """Each verb takes exactly these flags, so a new one is a deliberate
    change, and a flag left out is its settings class's default."""
    parser = _build_parser()
    cell = {"--entropy", "--seed", "--no-preprocess", "--out"}
    scored = cell | {"--truth", "--truth-points"}
    (verbs,) = [a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)]
    assert {verb: {o for a in p._actions for o in a.option_strings}
            - {"-h", "--help"} for verb, p in verbs.choices.items()} == {
        "threshold": scored | {"--levels", "--criterion"},
        "register": cell | {"--bins", "--true-transform"},
        "cluster": scored | {"--k", "--stride", "--sigma"},
        "bench": {"--config", "--out"},
        "synth": {"--spec", "--width", "--height", "--noise", "--seed",
                  "--pair-seed", "--out"}}
    a = parser.parse_args(["threshold", "x.pgm"])
    assert ThresholdParams(levels=(a.levels,), criterion=a.criterion) \
        == ThresholdParams()
    a = parser.parse_args(["register", "r.pgm", "m.pgm"])
    assert RegisterConfig(bins=a.bins, seed=a.seed) == RegisterConfig()
    a = parser.parse_args(["cluster", "x.pgm"])
    assert ClusterParams(k=a.k, stride=a.stride, sigma=a.sigma) \
        == ClusterParams()
    a = parser.parse_args(["synth", "--spec", "two-region", "--out", "d"])
    spec = DatasetSpec(name="d", source="scene", scene=a.spec)
    assert (a.width, a.height, a.noise, a.seed) == \
        (spec.width, spec.height, spec.noise, spec.seed)


def test_file_stem_with_comma_is_refused_before_the_cell(tmp_path, capsys):
    """Schema 1 quotes no field, so a comma in the dataset column would
    split the row."""
    img_p, _, _, _ = write_scene(tmp_path, size=32)
    bad = tmp_path / "a,b.pgm"
    img_p.rename(bad)
    for argv in (["threshold", str(bad)], ["register", str(bad), str(bad)],
                 ["cluster", str(bad)]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "dataset name 'a,b'" in err


def test_missing_input_reports_error(tmp_path, capsys):
    rc = main(["threshold", str(tmp_path / "absent.pgm")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


# -------------------------------------------------------------------- synth

def test_synth_writes_decodable_scene(tmp_path, capsys):
    out = tmp_path / "d"
    rc = main(["synth", "--spec", "two-region", "--width", "32",
               "--height", "32", "--seed", "4", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    img = decode_pgm((out / "scene.pgm").read_bytes())
    truth = decode_pgm((out / "truth.pgm").read_bytes())
    expected_img, expected_truth = named_scene("two-region", 32, 32, 8.0, 4)
    assert np.array_equal(img, expected_img)
    assert np.array_equal(truth, expected_truth)
    assert str(out / "scene.pgm") in printed
    assert str(out / "truth.pgm") in printed


def test_synth_pair_seed_writes_registration_pair(tmp_path):
    out = tmp_path / "d"
    rc = main(["synth", "--spec", "five-region", "--width", "48",
               "--height", "48", "--seed", "1", "--pair-seed", "2",
               "--out", str(out)])
    assert rc == 0
    ref, mov, t_true = scene_pair("five-region", 48, 48, 8.0, 1, 2)
    assert np.array_equal(decode_pgm((out / "ref.pgm").read_bytes()), ref)
    assert np.array_equal(decode_pgm((out / "mov.pgm").read_bytes()), mov)
    parts = (out / "transform.txt").read_text().strip().split(",")
    assert [float(p) for p in parts] == \
        [t_true.dx, t_true.dy, t_true.theta, t_true.scale]


def test_synth_rejects_unknown_spec(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--spec", "city", "--out", str(tmp_path)])
    assert exc.value.code == 2


# -------------------------------------------------------------- task verbs

def test_threshold_verb_matches_library_cell(tmp_path, capsys):
    img_p, truth_p, img, truth = write_scene(tmp_path)
    rc = main(["threshold", str(img_p), "--truth", str(truth_p),
               "--entropy", "tsallis:2", "--levels", "3",
               "--seed", "1"])
    assert rc == 0
    rows = csv_rows(capsys.readouterr().out)
    expected = run_threshold_cell(median_filter_3x3(img), truth,
                                  EntropyKind.tsallis(2.0),
                                  ThresholdParams(levels=(3,)), 3, 1, "scene")
    assert [r[:7] for r in rows] == \
        [format_row(e).split(",")[:7] for e in expected]
    assert [r[5] for r in rows] == ["kappa", "overall_accuracy"]


def test_threshold_verb_refuses_truth_points_below_one(tmp_path, capsys,
                                                      monkeypatch):
    """--truth-points follows the [run] truth_points rule: a count below 1
    is refused, before the files are read; leaving it out scores every
    pixel."""
    img_p, truth_p, _, _ = write_scene(tmp_path)
    monkeypatch.setattr(cli, "_load_dataset",
                        lambda *a: pytest.fail("a file was read"))
    for points in ("0", "-3"):
        rc = main(["threshold", str(img_p), "--truth", str(truth_p),
                   "--truth-points", points])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: truth points per class must be >= 1, "
                       f"got {points}\n")


def test_threshold_verb_criterion_row_without_truth(tmp_path, capsys):
    img_p, _, img, _ = write_scene(tmp_path)
    rc = main(["threshold", str(img_p), "--no-preprocess"])
    assert rc == 0
    rows = csv_rows(capsys.readouterr().out)
    expected = run_threshold_cell(img, None, EntropyKind.shannon(),
                                  ThresholdParams(), 2, 0, "scene")
    assert len(rows) == 1 and rows[0][5] == "criterion"
    assert rows[0][6] == format_row(expected[0]).split(",")[6]


def test_threshold_verb_out_writes_rows_csv(tmp_path, capsys):
    img_p, truth_p, _, _ = write_scene(tmp_path, "two-region", 48, 4.0)
    out = tmp_path / "report"
    rc = main(["threshold", str(img_p), "--truth", str(truth_p),
               "--levels", "1", "--out", str(out)])
    assert rc == 0
    stdout_lines = capsys.readouterr().out.strip().splitlines()
    assert (out / "rows.csv").read_text(
        encoding="utf-8").strip().splitlines() == stdout_lines


def test_register_verb_recovers_known_shift(tmp_path, capsys):
    img, _ = named_scene("five-region", 128, 128, 6.0, 3)
    mov, _ = transform_apply(img, SimilarityTransform(3.0, -2.0, 0.0, 1.0))
    ref_p = tmp_path / "ref.pgm"
    mov_p = tmp_path / "mov.pgm"
    ref_p.write_bytes(encode_pgm(img))
    mov_p.write_bytes(encode_pgm(mov))
    rc = main(["register", str(ref_p), str(mov_p), "--entropy", "renyi:2",
               "--true-transform=-3,2,0,1"])
    assert rc == 0
    rows = csv_rows(capsys.readouterr().out)
    values = {r[5]: float(r[6]) for r in rows}
    assert values["nccc"] >= 0.95
    assert values["rmse"] <= 0.5
    assert all(r[:3] == ["register", "renyi", "2.0"] for r in rows)


@pytest.mark.parametrize("transform", ["1,2,3", "0,0,0,9", "a,b,c,d"])
def test_register_verb_rejects_bad_transform(tmp_path, transform):
    img_p, _, _, _ = write_scene(tmp_path, size=32)
    with pytest.raises(SystemExit) as exc:
        main(["register", str(img_p), str(img_p),
              "--true-transform", transform])
    assert exc.value.code == 2


def test_cluster_verb_matches_library_cell(tmp_path, capsys):
    img_p, truth_p, img, truth = write_scene(tmp_path)
    rc = main(["cluster", str(img_p), "--truth", str(truth_p), "--k", "5",
               "--stride", "4", "--seed", "0"])
    assert rc == 0
    rows = csv_rows(capsys.readouterr().out)
    expected = run_cluster_cell(median_filter_3x3(img), truth,
                                EntropyKind.shannon(),
                                ClusterParams(k=5, stride=4), 0, "scene")
    assert [r[:7] for r in rows] == \
        [format_row(e).split(",")[:7] for e in expected]


def test_cluster_verb_auto_stride_runs(tmp_path, capsys):
    img_p, _, _, _ = write_scene(tmp_path, "two-region", 32, 4.0)
    rc = main(["cluster", str(img_p), "--k", "2"])
    assert rc == 0
    rows = csv_rows(capsys.readouterr().out)
    assert [r[5] for r in rows] == ["score"]
    # auto is the one spelling of the default, as in a config
    for flag in ("--stride", "--sigma"):
        assert main(["cluster", str(img_p), "--k", "2", flag, "auto"]) == 0
        assert [r[:7] for r in csv_rows(capsys.readouterr().out)] == \
            [r[:7] for r in rows]


# -------------------------------------------------------------------- bench

BENCH_CFG = """\
[run]
tasks = threshold
entropies = shannon renyi:2
seeds = 0

[threshold]
levels = 1

[datasets]
s1 = scene:two-region width=48 height=48 noise=4
"""


def test_bench_runs_matrix_and_replays(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(BENCH_CFG, encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["bench", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    lines = (out / "results.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4  # 2 kinds x (kappa, overall_accuracy)
    assert all(r[5] != "error" for r in rows)

    # replaying a row through the single-cell verb reproduces its value
    synth = tmp_path / "replay"
    main(["synth", "--spec", "two-region", "--width", "48", "--height", "48",
          "--noise", "4", "--seed", "0", "--out", str(synth)])
    capsys.readouterr()
    shannon_rows = [r for r in rows if r[1] == "shannon"]
    rc = main(["threshold", str(synth / "scene.pgm"),
               "--truth", str(synth / "truth.pgm"), "--levels", "1",
               "--seed", "0"])
    assert rc == 0
    replayed = csv_rows(capsys.readouterr().out)
    assert [(r[5], r[6]) for r in replayed] == \
        [(r[5], r[6]) for r in shannon_rows]


def test_bench_requires_output_directory(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(BENCH_CFG, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--config", str(cfg)])
    assert exc.value.code == 2


# bad settings, as opposed to bad data: each must fail where it is read,
# before any cell runs, and not as an error row
BAD_SETTINGS = {
    "register-bins": ("[datasets]", "[register]\nbins = 48\n\n[datasets]",
                      "bins must be a divisor of 256 in [2, 256], got 48"),
    "register-budget": ("[datasets]", "[register]\nbudget = 100\n\n[datasets]",
                        "config [register]: unknown keys ['budget']"),
    "cluster-k": ("[datasets]", "[cluster]\nk = 9\n\n[datasets]",
                  "k 9 outside [2, 8]"),
    "cluster-restarts": ("[datasets]", "[cluster]\nrestarts = 0\n\n[datasets]",
                         "config [cluster]: unknown keys ['restarts']"),
    "cluster-sigma": ("[datasets]", "[cluster]\nsigma = -1\n\n[datasets]",
                      "sigma must be positive and finite, got -1.0"),
    "cluster-stride": ("[datasets]", "[cluster]\nstride = -2\n\n[datasets]",
                       "stride must be >= 1"),
    # None, written auto, is the one spelling of automatic or every pixel
    "cluster-stride-0": ("[datasets]", "[cluster]\nstride = 0\n\n[datasets]",
                         "stride must be >= 1"),
    "cluster-sigma-0": ("[datasets]", "[cluster]\nsigma = 0\n\n[datasets]",
                        "sigma must be positive and finite, got 0.0"),
    "truth-points-0": ("seeds = 0\n", "seeds = 0\ntruth_points = 0\n",
                       "truth points per class must be >= 1, got 0"),
    "truth-points-negative": ("seeds = 0\n", "seeds = 0\ntruth_points = -3\n",
                              "truth points per class must be >= 1, got -3"),
    "threshold-budget": ("levels = 1", "levels = 1 5\nbudget = 200",
                         "config [threshold]: unknown keys ['budget']"),
    "scene-name": ("scene:two-region", "scene:nosuch",
                   "dataset s1: unknown scene 'nosuch'"),
    "scene-width": ("width=48", "width=0",
                    "dataset s1: scene dimensions must be positive"),
    "scene-noise": ("noise=4", "noise=-3",
                    "dataset s1: noise std must be nonnegative"),
}


@pytest.mark.parametrize("old, new, cause", BAD_SETTINGS.values(),
                         ids=BAD_SETTINGS.keys())
def test_bench_bad_setting_fails_before_any_cell(tmp_path, capsys, monkeypatch,
                                                 old, new, cause):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(BENCH_CFG.replace(old, new), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(cause)):
        parse_config(cfg)
    monkeypatch.setattr(cli, "run_matrix",
                        lambda cfg: pytest.fail("a cell ran on a bad setting"))
    rc = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and cause in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, cause", [
    (["cluster", "absent.pgm", "--k", "9"], "k 9 outside [2, 8]"),
    (["cluster", "absent.pgm", "--stride", "-2"], "stride must be >= 1"),
    (["register", "absent.pgm", "absent.pgm", "--bins", "48"],
     "bins must be a divisor of 256"),
    (["threshold", "absent.pgm", "--levels", "6"],
     "threshold level 6 outside 1-5"),
    (["cluster", "absent.pgm", "--stride", "0"], "stride must be >= 1"),
    (["cluster", "absent.pgm", "--sigma", "0"], "sigma must be positive"),
    (["cluster", "absent.pgm", "--truth", "absent.pgm", "--truth-points", "0"],
     "truth points per class must be >= 1, got 0"),
])
def test_verb_bad_setting_fails_before_its_files_are_read(argv, cause, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and cause in err


@pytest.mark.parametrize("argv", [
    ["register", "{img}", "{bad}"],
    ["threshold", "{bad}"],
    ["cluster", "{img}", "--truth", "{bad}"],
])
def test_malformed_pgm_error_names_its_file(tmp_path, capsys, argv):
    img_p, _, _, _ = write_scene(tmp_path, size=32)
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n4 4\n255\n")
    assert main([a.format(img=img_p, bad=bad) for a in argv]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: truncated payload: expected 16 bytes, got 0 "
        "(byte 11)\n")


def test_bench_bad_config_reports_error(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("[run]\ntasks = threshold\n", encoding="utf-8")
    rc = main(["bench", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


PARITY_CFG = """\
[run]
tasks = threshold register cluster
entropies = shannon tsallis:2
seeds = 2
preprocess = {preprocess}

[threshold]
levels = 2

[cluster]
k = 3
stride = 2

[datasets]
scene = file:{img} truth={truth} mov={mov}
"""


@pytest.mark.parametrize("preprocess", ["on", "off"])
def test_verbs_match_matrix_rows_of_a_file_dataset(tmp_path, capsys, preprocess):
    """Each verb's metric columns are the rows run_matrix gives a file:
    dataset of the same files, with preprocessing on and off.  Without a
    true transform the register rmse is nan on both sides."""
    img_p, truth_p, img, _ = write_scene(tmp_path, size=48, seed=1)
    mov_p = tmp_path / "mov.pgm"
    mov_p.write_bytes(encode_pgm(transform_apply(
        img, SimilarityTransform(2.0, -1.0, 0.02, 1.0))[0]))
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(PARITY_CFG.format(preprocess=preprocess, img=img_p,
                                     truth=truth_p, mov=mov_p), encoding="utf-8")
    want = sorted(format_row(r).split(",")[:7] + [str(r.seed)]
                  for r in run_matrix(parse_config(cfg)))
    assert len(want) == 2 * (2 + 2 + 3) and all(r[5] != "error" for r in want)
    flags = ["--seed", "2"] + (["--no-preprocess"] if preprocess == "off" else [])
    got = []
    for spec in ("shannon", "tsallis:2"):
        for argv in (["threshold", str(img_p), "--truth", str(truth_p),
                      "--levels", "2"],
                     ["register", str(img_p), str(mov_p)],
                     ["cluster", str(img_p), "--truth", str(truth_p), "--k", "3",
                      "--stride", "2"]):
            assert main([*argv, "--entropy", spec, *flags]) == 0
            got += [r[:7] + [r[9]] for r in csv_rows(capsys.readouterr().out)]
    assert sorted(got) == want
    assert {r[6] for r in got if r[5] == "rmse"} == {"nan"}
