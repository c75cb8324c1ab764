"""Command-line front end.

Verbs: ``threshold``, ``register``, ``cluster`` run one experiment cell
on PGM inputs and print its report rows as CSV; ``bench`` runs a full
config-driven matrix; ``synth`` writes synthetic scenes (and, with
--pair-seed, a registration pair with its ground-truth transform).
Task verbs share the library code paths with ``bench``, so replaying a
bench row through the matching verb reproduces its metric value.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import __version__
from .entropy import SHANNON, EntropyKind
from .harness import (CSV_HEADER, SCHEMA_VERSION, ClusterParams,
                      RegisterParams, ThresholdParams, emit_csv, format_row,
                      parse_config, run_cluster_cell, run_matrix,
                      run_register_cell, run_threshold_cell)
from .raster import decode_pgm, encode_pgm, median_filter_3x3
from .registration import SimilarityTransform
from .scenes import SCENE_NAMES, named_scene, scene_pair

_ENTROPY_CHOICES = ("shannon", "renyi", "tsallis")


def _add_entropy_flags(p: argparse.ArgumentParser):
    p.add_argument("--entropy", choices=_ENTROPY_CHOICES, default="shannon",
                   help="entropy kind (default shannon)")
    p.add_argument("--alpha", type=float, default=None,
                   help="Renyi order (renyi only; default 2)")
    p.add_argument("--q", type=float, default=None,
                   help="Tsallis index (tsallis only; default 2)")


def _entropy_from_args(parser, args) -> EntropyKind:
    if args.entropy == "shannon":
        if args.alpha is not None:
            parser.error("--alpha is not valid with --entropy shannon")
        if args.q is not None:
            parser.error("--q is not valid with --entropy shannon")
        return SHANNON
    if args.entropy == "renyi":
        if args.q is not None:
            parser.error("--q is not valid with --entropy renyi; use --alpha")
        return EntropyKind.renyi(args.alpha) if args.alpha is not None \
            else EntropyKind.renyi()
    if args.alpha is not None:
        parser.error("--alpha is not valid with --entropy tsallis; use --q")
    return EntropyKind.tsallis(args.q) if args.q is not None \
        else EntropyKind.tsallis()


def _load_pgm(path: str):
    return decode_pgm(Path(path).read_bytes())


def _maybe_filter(img, args):
    return img if args.no_preprocess else median_filter_3x3(img)


def _finish(rows, out) -> int:
    print(CSV_HEADER)
    for r in rows:
        print(format_row(r))
    if out:
        emit_csv(rows, Path(out) / "rows.csv")
    return 0


def _cmd_threshold(args, parser) -> int:
    img = _maybe_filter(_load_pgm(args.image), args)
    truth = _load_pgm(args.truth) if args.truth else None
    kind = None if args.criterion == "cross-entropy" else args.kind
    params = ThresholdParams(levels=(args.levels,), search=args.search,
                             budget=args.budget, criterion=args.criterion)
    rows = run_threshold_cell(img, truth, kind, params, args.levels,
                              args.seed, Path(args.image).stem,
                              args.truth_points or None)
    return _finish(rows, args.out)


def _cmd_register(args, parser) -> int:
    ref = _maybe_filter(_load_pgm(args.ref), args)
    mov = _maybe_filter(_load_pgm(args.mov), args)
    t_true = None
    if args.true_transform:
        parts = args.true_transform.split(",")
        if len(parts) != 4:
            parser.error("--true-transform needs dx,dy,theta,s")
        try:
            t_true = SimilarityTransform(*(float(x) for x in parts))
        except ValueError as e:
            parser.error(f"bad --true-transform: {e}")
    params = RegisterParams(bins=args.bins, budget=args.budget,
                            restarts=args.restarts)
    rows = run_register_cell(ref, mov, t_true, args.kind, params,
                             args.seed, Path(args.ref).stem)
    return _finish(rows, args.out)


def _cmd_cluster(args, parser) -> int:
    img = _maybe_filter(_load_pgm(args.image), args)
    truth = _load_pgm(args.truth) if args.truth else None
    params = ClusterParams(k=args.k, stride=args.stride or None,
                           restarts=args.restarts, sigma=args.sigma or None)
    rows = run_cluster_cell(img, truth, args.kind, params, args.seed,
                            Path(args.image).stem, args.truth_points or None)
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

    p = sub.add_parser("threshold", help="threshold one image, score vs truth")
    p.add_argument("image", help="input PGM")
    p.add_argument("--truth", help="ground-truth label PGM")
    _add_entropy_flags(p)
    p.add_argument("--levels", type=int, default=2, help="threshold count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=5000,
                   help="heuristic-search evaluation budget")
    p.add_argument("--search", choices=("exhaustive", "heuristic"),
                   default="exhaustive",
                   help="exhaustive: the exact search wherever it is exact "
                        "(additive criteria at every level, Tsallis up to "
                        "3), the evolution strategy otherwise (Tsallis at "
                        "4-5); heuristic: the evolution strategy at every "
                        "level")
    p.add_argument("--criterion", choices=("max-entropy", "cross-entropy"),
                   default="max-entropy")
    p.add_argument("--truth-points", type=int, default=0,
                   help="evaluate on n sampled truth points per class")
    p.add_argument("--no-preprocess", action="store_true",
                   help="skip the 3x3 median prefilter")
    p.add_argument("--out", help="directory for rows.csv")
    p.set_defaults(func=_cmd_threshold, needs_kind=True)

    p = sub.add_parser("register", help="register a moving PGM onto a reference")
    p.add_argument("ref")
    p.add_argument("mov")
    _add_entropy_flags(p)
    p.add_argument("--bins", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--true-transform",
                   help="ground truth as dx,dy,theta,s for the rmse row")
    p.add_argument("--no-preprocess", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_register, needs_kind=True)

    p = sub.add_parser("cluster", help="cluster pixel features, score vs truth")
    p.add_argument("image")
    p.add_argument("--truth")
    _add_entropy_flags(p)
    p.add_argument("--k", type=int, default=5, help="cluster count")
    p.add_argument("--stride", type=int, default=0, help="0 = auto")
    p.add_argument("--sigma", type=float, default=0.0, help="0 = Silverman")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=2)
    p.add_argument("--truth-points", type=int, default=0)
    p.add_argument("--no-preprocess", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cluster, needs_kind=True)

    p = sub.add_parser("bench", help="run a config-driven experiment matrix")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="override the config output directory")
    p.set_defaults(func=_cmd_bench, needs_kind=False)

    p = sub.add_parser("synth", help="write a synthetic scene (and pair)")
    p.add_argument("--spec", choices=SCENE_NAMES, required=True)
    p.add_argument("--width", type=int, default=256)
    p.add_argument("--height", type=int, default=256)
    p.add_argument("--noise", type=float, default=8.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pair-seed", type=int, default=None,
                   help="also write ref/mov/transform for registration")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth, needs_kind=False)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.needs_kind:
        args.kind = _entropy_from_args(parser, args)
    try:
        return args.func(args, parser)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
