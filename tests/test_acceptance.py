"""Acceptance gate: one test per shipped benchmark guarantee.

Every test prints a single pass/fail line (visible with ``pytest -s``)
carrying the measured runtime against the allowed limit, then asserts.
The checks here are intentionally end-to-end and compare against
independent re-derivations, never against the code under test.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import entrobench
from entrobench.clustering import (assignment_to_labelmap, cluster,
                                   extract_features)
from entrobench.entropy import SHANNON, EntropyKind, entropy, histogram
from entrobench.metrics import (align_labels, confusion, kappa,
                                overall_accuracy)
from entrobench.raster import (PgmError, decode_pgm, encode_pgm,
                               median_filter_3x3)
from entrobench.registration import RegisterConfig, register
from entrobench.scenes import named_scene, scene_pair
from entrobench.thresholding import (Criterion, apply_thresholds,
                                     exhaustive_search, heuristic_search)

RENYI2 = EntropyKind.renyi(2.0)
TSALLIS2 = EntropyKind.tsallis(2.0)
KINDS = (SHANNON, RENYI2, TSALLIS2)


def _report(num, name, ok, elapsed, limit, detail):
    line = (f"criterion {num} {'PASS' if ok else 'FAIL'} {name}: "
            f"{detail}; {elapsed:.1f}s of {limit:.0f}s")
    print(line)
    return line


# ------------------------------------------------------- 1: entropy limits

def test_entropy_limits_and_closed_forms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = {"limit": 0.0, "mono": -np.inf, "pseudo": 0.0, "uniform": 0.0}
    alphas = (0.5, 1.5, 2.0, 4.0)
    qs = (2.0, 3.0, 0.5)
    for i in range(1000):
        n = int(rng.integers(2, 257))
        m = int(rng.integers(2, 257))
        w = rng.random(n) + 1e-12
        p = w / w.sum()
        q_par = qs[i % 3]

        h_sh = entropy(p, SHANNON)
        for k in (EntropyKind.renyi(1 + 1e-6), EntropyKind.renyi(1 - 1e-6),
                  EntropyKind.tsallis(1 + 1e-6), EntropyKind.tsallis(1 - 1e-6)):
            worst["limit"] = max(worst["limit"], abs(entropy(p, k) - h_sh))

        series = [entropy(p, EntropyKind.renyi(a)) if a != 1.0 else h_sh
                  for a in alphas]
        worst["mono"] = max(worst["mono"],
                            max(b - a for a, b in zip(series, series[1:])))

        w2 = rng.random(m) + 1e-12
        pb = w2 / w2.sum()
        kq = EntropyKind.tsallis(q_par)
        sa, sb = entropy(p, kq), entropy(pb, kq)
        s_prod = entropy(np.outer(p, pb).ravel(), kq)
        worst["pseudo"] = max(worst["pseudo"],
                              abs(s_prod - (sa + sb + (1 - q_par) * sa * sb)))

        u = np.full(n, 1.0 / n)
        worst["uniform"] = max(
            worst["uniform"],
            abs(entropy(u, SHANNON) - np.log(n)),
            abs(entropy(u, kq) - (1 - n ** (1 - q_par)) / (q_par - 1)))
    elapsed = time.perf_counter() - t0
    ok = (worst["limit"] <= 1e-4 and worst["mono"] <= 1e-12
          and worst["pseudo"] <= 1e-9 and worst["uniform"] <= 1e-12
          and elapsed < 5.0)
    line = _report(1, "entropy limits and closed forms", ok, elapsed, 5,
                   f"limit gap {worst['limit']:.2e}, monotone slack "
                   f"{worst['mono']:.2e}, pseudo-additivity {worst['pseudo']:.2e}, "
                   f"uniform {worst['uniform']:.2e}")
    assert ok, line


# ------------------------------------- 2: threshold search oracle equality

_NEG = -np.inf


def _window_tables(h):
    """Class-term tables for every interval [lo, hi], straight from the
    closed forms.  Cross entropy is negated so all criteria maximize.
    Tsallis keeps a (values, valid) pair because its combination rule
    needs finite values plus an explicit mask."""
    B = h.size
    idx = np.arange(B, dtype=np.float64)
    lni = np.zeros(B)
    lni[1:] = np.log(idx[1:])
    sh = np.full((B, B), _NEG)
    r2 = np.full((B, B), _NEG)
    ts = np.zeros((B, B))
    tsv = np.zeros((B, B), dtype=bool)
    ce = np.full((B, B), _NEG)
    for lo in range(B):
        seg = h[lo:].astype(np.float64)
        M = np.cumsum(seg)
        ok = M > 0
        Ms = np.where(ok, M, 1.0)
        plogp = np.cumsum(np.where(seg > 0,
                                   seg * np.log(np.where(seg > 0, seg, 1.0)),
                                   0.0))
        sq = np.cumsum(seg * seg)
        sh[lo, lo:] = np.where(ok, np.log(Ms) - plogp / Ms, _NEG)
        r2[lo, lo:] = np.where(
            ok, 2.0 * np.log(Ms) - np.log(np.where(sq > 0, sq, 1.0)), _NEG)
        ts[lo, lo:] = np.where(ok, 1.0 - sq / (Ms * Ms), 0.0)
        tsv[lo, lo:] = ok
        w = idx[lo:] * seg
        A = np.cumsum(w * lni[lo:])
        Bm = np.cumsum(w)
        term = np.where(
            Bm > 0,
            A - Bm * (np.log(np.where(Bm > 0, Bm, 1.0)) - np.log(Ms)), 0.0)
        ce[lo, lo:] = np.where(ok, -term, _NEG)
    return {"shannon": sh, "renyi": r2, "tsallis": (ts, tsv), "cross": ce}


def _best_additive(W, k):
    """Maximum over every threshold tuple, summed class terms."""
    B = W.shape[0]
    T = B - 1
    first = W[0, :T]
    last = W[1:, B - 1]
    mid = W[1:, :T]
    if k == 1:
        return float(np.max(first + last))
    if k == 2:
        return float(np.max(first[:, None] + mid + last[None, :]))
    # k = 3: for each t1 only the block t1 < t2 < t3 can be finite
    best = _NEG
    for t1 in range(T - 2):
        if first[t1] == _NEG:
            continue
        b = t1 + 1
        s = first[t1] + mid[t1, b:][:, None] + mid[b:, b:] + last[None, b:]
        best = max(best, float(np.max(s)))
    return best


def _best_tsallis(Wv, k, q=2.0):
    """Maximum under the pseudo-additive rule: sum plus (1-q) product."""
    W, V = Wv
    B = W.shape[0]
    T = B - 1
    first, fv = W[0, :T], V[0, :T]
    last, lv = W[1:, B - 1], V[1:, B - 1]
    mid, mv = W[1:, :T], V[1:, :T]
    omq = 1.0 - q
    if k == 1:
        s = first + last + omq * first * last
        return float(np.max(np.where(fv & lv, s, _NEG)))
    if k == 2:
        s = (first[:, None] + mid + last[None, :]
             + omq * first[:, None] * mid * last[None, :])
        return float(np.max(np.where(fv[:, None] & mv & lv[None, :], s, _NEG)))
    best = _NEG
    for t1 in range(T - 2):
        if not fv[t1]:
            continue
        b = t1 + 1
        a = first[t1]
        col = mid[t1, b:][:, None]
        blk = mid[b:, b:]
        end = last[None, b:]
        s = a + col + blk + end + omq * a * col * blk * end
        s = np.where(mv[t1, b:][:, None] & mv[b:, b:] & lv[None, b:], s, _NEG)
        best = max(best, float(np.max(s)))
    return best


def test_threshold_search_oracle_equivalence():
    crits = [("shannon", Criterion.max_entropy(SHANNON)),
             ("renyi", Criterion.max_entropy(RENYI2)),
             ("tsallis", Criterion.max_entropy(TSALLIS2)),
             ("cross", Criterion.cross_entropy())]
    t0 = time.perf_counter()
    exhaustive_bad = 0
    matches = {(name, k): 0 for name, _ in crits for k in (1, 2, 3)}
    for i in range(100):
        rng = np.random.default_rng(20_000 + i)
        h = rng.integers(0, 1000, 256)
        h[rng.random(256) < 0.25] = 0
        tables = _window_tables(h)
        for name, crit in crits:
            for k in (1, 2, 3):
                if name == "tsallis":
                    want = _best_tsallis(tables[name], k)
                else:
                    want = _best_additive(tables[name], k)
                _, ex_val = exhaustive_search(h, k, crit)
                ex_max = -ex_val if name == "cross" else ex_val
                # relative guard: cross-entropy sums reach 1e6, where an
                # independent summation order differs by float noise far
                # below any wrong-tuple gap
                if abs(ex_max - want) > 1e-9 + 1e-11 * abs(want):
                    exhaustive_bad += 1
                _, hv = heuristic_search(h, k, crit, seed=7 * i + k,
                                         budget=5000)
                if abs(hv - ex_val) <= 1e-9:
                    matches[(name, k)] += 1
    elapsed = time.perf_counter() - t0
    least = min(matches.values())
    ok = exhaustive_bad == 0 and least >= 95 and elapsed < 120.0
    line = _report(2, "threshold search oracle equivalence", ok, elapsed, 120,
                   f"exhaustive mismatches {exhaustive_bad}/1200, worst "
                   f"heuristic match rate {least}/100")
    assert ok, line


# ----------------------------------------------- 3: level-sweep peak shape

def _threshold_kappa(img, truth, kind, level, seed):
    crit = Criterion.max_entropy(kind)
    h = histogram(img)
    if level <= crit.max_exact_level:  # the path run_threshold_cell takes
        t, _ = exhaustive_search(h, level, crit)
    else:
        t, _ = heuristic_search(h, level, crit, seed=seed)
    pred = align_labels(apply_thresholds(img, t), truth)
    return kappa(confusion(pred, truth))


def test_level_sweep_peaks_at_scene_structure():
    t0 = time.perf_counter()
    medians = {}
    for kind in KINDS:
        per_level = {level: [] for level in (1, 2, 3, 4)}
        for seed in range(5):
            img, truth = named_scene("five-region", 256, 256, 8.0, seed)
            img = median_filter_3x3(img)
            for level in per_level:
                per_level[level].append(
                    _threshold_kappa(img, truth, kind, level, seed))
        medians[kind.name] = {lv: float(np.median(v))
                              for lv, v in per_level.items()}
    elapsed = time.perf_counter() - t0
    rising = all(m[4] > m[lv] for m in medians.values() for lv in (1, 2, 3))
    ok = rising and elapsed < 180.0
    detail = " ".join(
        f"{name}:" + "/".join(f"{m[lv]:.3f}" for lv in (1, 2, 3, 4))
        for name, m in medians.items())
    line = _report(3, "level sweep peaks at the scene's structure", ok,
                   elapsed, 180, detail)
    assert ok, line


# ------------------------------------------------- 4: registration recovery

def test_registration_recovery_rates():
    t0 = time.perf_counter()
    hits = {k.name: 0 for k in KINDS}
    for ps in range(20):
        ref, mov, t_true = scene_pair("five-region", 256, 256, 8.0, ps, ps)
        ref = median_filter_3x3(ref)
        mov = median_filter_3x3(mov)
        for kind in KINDS:
            res = register(ref, mov, kind, RegisterConfig(seed=ps),
                           true_transform=t_true)
            if res.rmse <= 0.5 and res.nccc >= 0.95:
                hits[kind.name] += 1
    img = median_filter_3x3(named_scene("five-region", 256, 256, 8.0, 0)[0])
    self_nccc = min(
        register(img, img, kind, RegisterConfig(seed=0)).nccc
        for kind in KINDS)
    elapsed = time.perf_counter() - t0
    ok = (all(h >= 18 for h in hits.values()) and self_nccc >= 0.99
          and elapsed < 300.0)
    line = _report(4, "registration recovery", ok, elapsed, 300,
                   f"hits {hits}, worst self-registration nccc "
                   f"{self_nccc:.4f}")
    assert ok, line


# --------------------------------------------------- 5: agreement exactness

def test_agreement_metric_exactness():
    t0 = time.perf_counter()
    cm = np.array([[45, 5], [10, 40]])
    exact = kappa(cm) == 0.7 and overall_accuracy(cm) == 0.85
    perfect = kappa(np.diag([13, 7, 29])) == 1.0
    chance = max(abs(kappa(np.array([[25, 25], [25, 25]]))),
                 abs(kappa(np.array([[10, 30], [20, 60]]))))
    elapsed = time.perf_counter() - t0
    ok = exact and perfect and chance <= 1e-12 and elapsed < 1.0
    line = _report(5, "agreement metric exactness", ok, elapsed, 1,
                   f"hand case exact {exact}, perfect {perfect}, "
                   f"chance residual {chance:.2e}")
    assert ok, line


# -------------------------------------------------- 6: clustering recovery

def test_clustering_recovery_and_monotone_descent():
    t0 = time.perf_counter()
    kappas = []
    monotone = True
    for seed in range(10):
        img, truth = named_scene("five-region", 256, 256, 8.0, seed)
        img = median_filter_3x3(img)
        xs = extract_features([img], 4)
        trace = {}
        assignment, _ = cluster(xs, 5, seed=seed, trace=trace)
        for tr in trace.values():
            monotone &= all(b <= a + 1e-9 for a, b in zip(tr, tr[1:]))
        labelmap = assignment_to_labelmap(assignment, xs, img.shape)
        pred = align_labels(labelmap, truth)
        kappas.append(kappa(confusion(pred, truth)))
    med = float(np.median(kappas))
    elapsed = time.perf_counter() - t0
    ok = med >= 0.8 and monotone and elapsed < 240.0
    line = _report(6, "clustering recovery with monotone descent", ok,
                   elapsed, 240,
                   f"median kappa {med:.3f}, traces monotone {monotone}")
    assert ok, line


# ------------------------------------- 7: bench determinism and CLI replay

BENCH_CFG = """\
[run]
tasks = threshold register cluster
entropies = shannon renyi:2 tsallis:2
seeds = 0

[threshold]
levels = 2

[cluster]
k = 5
stride = 4

[datasets]
two = scene:two-region width=128 height=128 seed=0
five = scene:five-region width=128 height=128 seed=1 pair_seed=3
"""


# the child runs the very package this process imported, whatever the
# working directory and whether or not some copy is installed
_SRC_ROOT = str(Path(entrobench.__file__).resolve().parent.parent)


def _cli(*args):
    path = os.pathsep.join(
        filter(None, [_SRC_ROOT, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "entrobench", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _kind_flags(entropy_name, param):
    if entropy_name == "shannon":
        return ["--entropy", "shannon"]
    if entropy_name == "renyi":
        return ["--entropy", "renyi", "--alpha", param]
    return ["--entropy", "tsallis", "--q", param]


def _replay_args(key, dirs):
    task, entropy_name, param, dataset, level, seed = key
    d = dirs[dataset]
    flags = _kind_flags(entropy_name, param) + ["--seed", seed]
    if task == "threshold":
        return ["threshold", str(d / "scene.pgm"),
                "--truth", str(d / "truth.pgm"), "--levels", level, *flags]
    if task == "register":
        if (d / "ref.pgm").exists():
            t_str = (d / "transform.txt").read_text().strip()
            return ["register", str(d / "ref.pgm"), str(d / "mov.pgm"),
                    f"--true-transform={t_str}", *flags]
        return ["register", str(d / "scene.pgm"), str(d / "scene.pgm"),
                "--true-transform=0,0,0,1", *flags]
    return ["cluster", str(d / "scene.pgm"), "--truth", str(d / "truth.pgm"),
            "--k", "5", "--stride", "4", *flags]


def test_bench_determinism_and_cli_replay(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(BENCH_CFG, encoding="utf-8")
    runs = []
    for label in ("a", "b"):
        _cli("bench", "--config", str(cfg), "--out", str(tmp_path / label))
        lines = (tmp_path / label / "results.csv").read_text(
            encoding="utf-8").splitlines()
        runs.append([line.split(",") for line in lines[1:]])
    first, second = runs
    metric_cols = [r[:7] + r[9:] for r in first]
    identical = metric_cols == [r[:7] + r[9:] for r in second]
    no_errors = all(r[5] != "error" for r in first)

    dirs = {"two": tmp_path / "ds-two", "five": tmp_path / "ds-five"}
    _cli("synth", "--spec", "two-region", "--width", "128", "--height", "128",
         "--seed", "0", "--out", str(dirs["two"]))
    _cli("synth", "--spec", "five-region", "--width", "128", "--height",
         "128", "--seed", "1", "--pair-seed", "3", "--out", str(dirs["five"]))
    cells = {}
    for r in first:
        cells.setdefault((r[0], r[1], r[2], r[3], r[4], r[9]), []).append(
            (r[5], r[6]))
    replay_bad = 0
    for key, expected in cells.items():
        out = _cli(*_replay_args(key, dirs))
        got = [(r.split(",")[5], r.split(",")[6])
               for r in out.strip().splitlines()[1:]]
        if got != expected:
            replay_bad += 1
    elapsed = time.perf_counter() - t0
    ok = (identical and no_errors and len(first) == 42 and replay_bad == 0
          and elapsed < 600.0)
    line = _report(7, "bench determinism and per-row CLI replay", ok, elapsed,
                   600, f"metric columns identical {identical}, "
                   f"{len(first)} rows, {replay_bad} replay mismatches "
                   f"of {len(cells)} cells")
    assert ok, line


# --------------------------------------------------------- 8: PGM fidelity

MALFORMED = [
    (b"", 0),
    (b"P6\n2 2\n255\n\x00\x00\x00\x00", 0),
    (b"P5\n0 2\n255\n", 3),
    (b"P5\nx 2\n255\n", 3),
    (b"P5\n2", 4),
    (b"P5\n2 2\n256\n\x00\x00\x00\x00", 7),
    (b"P5\n2 2\n255", 10),
    (b"P5\n2 2\n255\n\x00\x00\x00", 14),
    (b"P2\n2 1\n255\n7", 12),
    (b"P2\n1 1\n255\n300", 11),
]


def test_pgm_round_trip_and_positioned_rejection():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8008)
    bad_round_trips = 0
    for _ in range(500):
        h = int(rng.integers(1, 65))
        w = int(rng.integers(1, 65))
        img = rng.integers(0, 256, (h, w), dtype=np.uint8)
        if not np.array_equal(decode_pgm(encode_pgm(img)), img):
            bad_round_trips += 1
    rejected = 0
    for data, offset in MALFORMED:
        try:
            decode_pgm(data)
        except PgmError as e:
            if e.offset == offset:
                rejected += 1
    elapsed = time.perf_counter() - t0
    ok = bad_round_trips == 0 and rejected == len(MALFORMED) and elapsed < 5.0
    line = _report(8, "PGM round trip and positioned rejection", ok, elapsed,
                   5, f"{500 - bad_round_trips}/500 round trips exact, "
                   f"{rejected}/{len(MALFORMED)} malformed files rejected "
                   f"at the right byte")
    assert ok, line
