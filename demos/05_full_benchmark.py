"""End-to-end benchmark run from an in-memory config.

Builds a small run matrix (three entropy kinds, three tasks, two
synthetic datasets), executes it, and prints the CSV report plus a
summary of metric medians per task.
"""

import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np

from entrobench.harness import (
    CSV_HEADER,
    emit_csv,
    format_row,
    parse_config,
    run_matrix,
)

CONFIG = """\
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


def main():
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "bench.ini"
        cfg_path.write_text(CONFIG)
        cfg = parse_config(cfg_path)
        rows = run_matrix(cfg)
        out = emit_csv(rows, Path(tmp) / "report.csv")
        text = out.read_text()

    print(text, end="")
    print()

    by_task = defaultdict(lambda: defaultdict(list))
    for row in rows:
        if row.metric != "error":
            by_task[row.task][row.metric].append(row.value)
    print("== medians per task ==")
    for task in sorted(by_task):
        parts = ", ".join(f"{m}={np.median(v):.4f}"
                          for m, v in sorted(by_task[task].items()))
        print(f"{task}: {parts}")
    # rows from one cell share a runtime, so total over distinct cells
    cells = {(r.task, r.entropy, r.param, r.dataset, r.level, r.seed): r.runtime_s
             for r in rows}
    print(f"total cell runtime: {sum(cells.values()):.2f}s "
          f"over {len(cells)} cells ({len(rows)} rows)")


if __name__ == "__main__":
    main()
