"""Command-line front end.

Verbs: ``threshold``, ``register``, ``cluster`` run one experiment cell
on PGM inputs and print its report rows as CSV; ``bench`` runs a full
config-driven matrix; ``synth`` writes synthetic scenes (and, with
--pair-seed, a registration pair with its ground-truth transform).
Task verbs read their files as a config's ``file:`` dataset is read and
run the cell functions ``bench`` runs, so replaying a bench row through
the matching verb reproduces its metric value.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import __version__
from .entropy import EntropyKind
from .harness import (_DATA_ERRORS, CSV_HEADER, SCHEMA_VERSION, ClusterParams,
                      DatasetSpec, ThresholdParams, _auto, _check_truth_points,
                      _load_dataset, _threshold_kinds, emit_csv, format_row,
                      parse_config, parse_entropy, run_cluster_cell,
                      run_matrix, run_register_cell, run_threshold_cell)
from .raster import encode_pgm
from .registration import RegisterConfig, SimilarityTransform
from .scenes import SCENE_NAMES, named_scene, scene_pair


def _entropy_spec(spec: str) -> EntropyKind:
    """An argparse type: the spec ``name[:order]``, as a config writes it;
    a bad spec exits with usage and parse_entropy's message."""
    try:
        return parse_entropy(spec)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _check_truth_flags(args, parser):
    """--truth-points picks the truth pixels a score reads, so it needs
    --truth; a count below 1 fails before any file is read."""
    if args.truth_points is not None:
        if args.truth is None:
            parser.error("--truth-points needs --truth")
        _check_truth_points(args.truth_points)


def _load(args, img_path: str, **paths):
    """A verb's input files, read as a config's ``file:`` dataset with
    the image's stem as its name; returns (name, loaded dataset)."""
    spec = DatasetSpec(name=Path(img_path).stem, source="file",
                       img_path=img_path, **paths)
    return spec.name, _load_dataset(spec, not args.no_preprocess)


def _finish(rows, out) -> int:
    print(CSV_HEADER)
    for r in rows:
        print(format_row(r))
    if out:
        emit_csv(rows, Path(out) / "rows.csv")
    return 0


def _cmd_threshold(args, parser) -> int:
    _check_truth_flags(args, parser)
    params = ThresholdParams(levels=(args.levels,), budget=args.budget,
                             criterion=args.criterion)
    (kind,) = _threshold_kinds(params, (args.kind,))
    dataset, ds = _load(args, args.image, truth_path=args.truth)
    rows = run_threshold_cell(ds.img, ds.truth, kind, params, args.levels,
                              args.seed, dataset, args.truth_points)
    return _finish(rows, args.out)


def _cmd_register(args, parser) -> int:
    t_true = None
    if args.true_transform:
        parts = args.true_transform.split(",")
        if len(parts) != 4:
            parser.error("--true-transform needs dx,dy,theta,s")
        try:
            t_true = SimilarityTransform(*(float(x) for x in parts))
        except ValueError as e:
            parser.error(f"bad --true-transform: {e}")
    params = RegisterConfig(bins=args.bins, budget=args.budget,
                            restarts=args.restarts)
    dataset, ds = _load(args, args.ref, mov_path=args.mov)
    rows = run_register_cell(ds.ref, ds.mov, t_true, args.kind, params,
                             args.seed, dataset)
    return _finish(rows, args.out)


def _cmd_cluster(args, parser) -> int:
    _check_truth_flags(args, parser)
    params = ClusterParams(k=args.k, stride=args.stride,
                           restarts=args.restarts, sigma=args.sigma)
    dataset, ds = _load(args, args.image, truth_path=args.truth)
    rows = run_cluster_cell(ds.img, ds.truth, args.kind, params, args.seed,
                            dataset, args.truth_points)
    return _finish(rows, args.out)


def _cmd_bench(args, parser) -> int:
    cfg = parse_config(args.config)
    if args.out:
        cfg = dataclasses.replace(cfg, out=args.out)
    if not cfg.out:
        parser.error("no output directory: set [run] out or pass --out")
    rows = run_matrix(cfg)
    path = emit_csv(rows, Path(cfg.out) / "results.csv")
    errors = sum(1 for r in rows if r.metric == "error")
    print(f"wrote {path} ({len(rows)} rows, {errors} error rows)")
    return 0


def _cmd_synth(args, parser) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    img, truth = named_scene(args.spec, args.width, args.height,
                             args.noise, args.seed)
    written = [out / "scene.pgm", out / "truth.pgm"]
    written[0].write_bytes(encode_pgm(img))
    written[1].write_bytes(encode_pgm(truth))
    if args.pair_seed is not None:
        ref, mov, t_true = scene_pair(args.spec, args.width, args.height,
                                      args.noise, args.seed, args.pair_seed)
        for name, data in (("ref.pgm", encode_pgm(ref)),
                           ("mov.pgm", encode_pgm(mov))):
            p = out / name
            p.write_bytes(data)
            written.append(p)
        p = out / "transform.txt"
        p.write_text(f"{t_true.dx!r},{t_true.dy!r},"
                     f"{t_true.theta!r},{t_true.scale!r}\n", encoding="utf-8")
        written.append(p)
    for p in written:
        print(p)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrobench",
        description="Entropy-functional benchmarks for grayscale rasters: "
                    "thresholding, registration, clustering.")
    parser.add_argument(
        "--version", action="version",
        version=f"entrobench {__version__} (csv schema {SCHEMA_VERSION})")
    sub = parser.add_subparsers(dest="verb", required=True)

    # the flags of every task verb, and the input of each verb that
    # scores one image against truth
    cell = argparse.ArgumentParser(add_help=False)
    cell.add_argument("--entropy", dest="kind", type=_entropy_spec,
                      default="shannon", metavar="SPEC",
                      help="entropy kind as name[:order], e.g. shannon, "
                           "renyi:2 or tsallis:0.5 (default shannon; an "
                           "omitted order is 2)")
    cell.add_argument("--seed", type=int, default=0,
                      help="the cell's seed (default 0)")
    cell.add_argument("--no-preprocess", action="store_true",
                      help="skip the 3x3 median prefilter")
    cell.add_argument("--out", help="directory for rows.csv")
    scored = argparse.ArgumentParser(add_help=False)
    scored.add_argument("image", help="input PGM")
    scored.add_argument("--truth", help="ground-truth label PGM")
    scored.add_argument("--truth-points", type=int, metavar="N",
                        help="score N >= 1 sampled truth pixels per class; "
                             "needs --truth (default: every pixel)")

    p = sub.add_parser("threshold", parents=[cell, scored],
                       help="threshold one image, score vs truth")
    p.add_argument("--levels", type=int, default=ThresholdParams.levels[0],
                   help="threshold count")
    p.add_argument("--budget", type=int, default=ThresholdParams.budget,
                   help="evolution-strategy evaluation budget, used only "
                        "for Tsallis at levels 4-5, where no exact search "
                        "runs")
    p.add_argument("--criterion", choices=("max-entropy", "cross-entropy"),
                   default=ThresholdParams.criterion)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("register", parents=[cell],
                       help="register a moving PGM onto a reference")
    p.add_argument("ref")
    p.add_argument("mov")
    p.add_argument("--bins", type=int, default=RegisterConfig.bins,
                   help="joint-histogram bins of the full-resolution refinement "
                        "(a divisor of 256); the coarse first stage uses at most 16")
    p.add_argument("--budget", type=int, default=RegisterConfig.budget)
    p.add_argument("--restarts", type=int, default=RegisterConfig.restarts)
    p.add_argument("--true-transform",
                   help="ground truth as dx,dy,theta,s for the rmse row")
    p.set_defaults(func=_cmd_register)

    p = sub.add_parser("cluster", parents=[cell, scored],
                       help="cluster pixel features, score vs truth")
    p.add_argument("--k", type=int, default=ClusterParams.k, help="cluster count")
    p.add_argument("--stride", type=_auto(int), default=ClusterParams.stride,
                   help="sample stride, >= 1, or auto: about 4096 samples "
                        "(default auto)")
    p.add_argument("--sigma", type=_auto(float), default=ClusterParams.sigma,
                   help="kernel width, > 0, or auto: Silverman's rule "
                        "(default auto)")
    p.add_argument("--restarts", type=int, default=ClusterParams.restarts)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("bench", help="run a config-driven experiment matrix")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="override the config output directory")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("synth", help="write a synthetic scene (and pair)")
    p.add_argument("--spec", choices=SCENE_NAMES, required=True)
    p.add_argument("--width", type=int, default=DatasetSpec.width)
    p.add_argument("--height", type=int, default=DatasetSpec.height)
    p.add_argument("--noise", type=float, default=DatasetSpec.noise)
    p.add_argument("--seed", type=int, default=DatasetSpec.seed)
    p.add_argument("--pair-seed", type=int, default=None,
                   help="also write ref/mov/transform for registration")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except _DATA_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
