#!/usr/bin/env python3
"""Run the benchmark sweep and emit the figure data files.

The full grid (12 depths x both methods x both schemes x 3 temperatures)
is an hours-scale job on a laptop; --quick trims it to a sanity-check grid
that still shows the saturation and flattening behavior. The sweep is
`gibbs-qaoa sweep --toy` writing sweep.csv, sweep.json and the fig2/fig3
data and SVG files into --out. Every other flag (--workers, --budget-s,
--max-evaluations, ...) goes to the sweep after these, so it wins over
--quick's depths.
"""

import argparse
import os
import sys

from gibbs_qaoa import cli

QUICK_DEPTHS = (1, 3, 10, 32, 100)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--quick", action="store_true", help="reduced depth grid")
    args, sweep_flags = parser.parse_known_args(argv)

    os.makedirs(args.out, exist_ok=True)
    sweep = ["sweep", "--toy", "--fig-dir", args.out,
             "--out-csv", os.path.join(args.out, "sweep.csv"),
             "--out-json", os.path.join(args.out, "sweep.json")]
    if args.quick:
        sweep += ["--depths", *map(str, QUICK_DEPTHS)]
    return cli.main(sweep + sweep_flags)


if __name__ == "__main__":
    sys.exit(main())
