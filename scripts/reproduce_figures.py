#!/usr/bin/env python3
"""Run the benchmark sweep and emit the figure data files.

The full grid (12 depths x both methods x both schemes x 3 temperatures)
is an hours-scale job on a laptop; --quick trims it to a sanity-check grid
that still shows the saturation and flattening behavior. The sweep is
`gibbs-qaoa sweep --toy` writing sweep.csv, sweep.json and the fig2/fig3
data and SVG files into --out.
"""

import argparse
import os
import sys

from gibbs_qaoa import cli

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

    os.makedirs(args.out, exist_ok=True)
    sweep = ["sweep", "--toy", "--fig-dir", args.out,
             "--out-csv", os.path.join(args.out, "sweep.csv"),
             "--out-json", os.path.join(args.out, "sweep.json")]
    if args.quick:
        sweep += ["--depths", *map(str, QUICK_DEPTHS)]
    if args.workers is not None:
        sweep += ["--workers", str(args.workers)]
    if args.budget_s is not None:
        sweep += ["--budget-s", str(args.budget_s)]
    return cli.main(sweep)


if __name__ == "__main__":
    sys.exit(main())
