#!/usr/bin/env python3
"""Run the benchmark sweep and emit the figure data files.

The full grid (12 depths x both methods x both schemes x 3 temperatures)
is an hours-scale job on a laptop; --quick trims it to a sanity-check grid
that still shows the saturation and flattening behavior.
"""

import argparse
import os
import sys

from gibbs_qaoa.harness import (
    DEFAULT_DEPTHS,
    SweepConfig,
    emit_csv,
    emit_fig_data,
    emit_json,
    run_sweep,
)
from gibbs_qaoa.ising import toy_instance

QUICK_DEPTHS = (1, 3, 10, 32, 100)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--quick", action="store_true", help="reduced depth grid")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--budget-s", type=float, default=None,
                        help="wall-clock safety net per point in seconds "
                             "(default: none; evaluation caps bound each point)")
    args = parser.parse_args(argv)

    cfg = SweepConfig(
        instance=toy_instance(),
        depths=QUICK_DEPTHS if args.quick else DEFAULT_DEPTHS,
        point_budget_s=args.budget_s,
        workers=args.workers,
    )
    records, failures = run_sweep(cfg)
    os.makedirs(args.out, exist_ok=True)
    emit_csv(records, os.path.join(args.out, "sweep.csv"))
    emit_json(records, os.path.join(args.out, "sweep.json"))
    written = emit_fig_data(records, "fig2", args.out, svg=True)
    written += emit_fig_data(records, "fig3", args.out, svg=True)
    print(f"{len(records)} records -> {args.out}/sweep.csv")
    for path in written:
        print(f"wrote {path}")
    if failures:
        print("failed points:", file=sys.stderr)
        for f in failures:
            print(f"  {f.point}: {f.error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
