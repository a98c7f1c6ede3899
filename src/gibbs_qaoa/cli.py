"""Command-line front end.

Subcommands: run (one grid point), sweep (full grid), verify-instance
(brute-force ground-set report), gibbs (Boltzmann summary at a temperature),
oracle (kernel/spectrum checks on the Gibbs-encoding operator). An argument
`@FILE` reads flags from FILE in its place; in FILE, `#` starts a comment.

Exit codes: 0 success, 1 usage error, 2 numerical-check failure.
"""

from __future__ import annotations

import argparse
import sys
import numpy as np

from . import harness
from .eigensolver import eigh
from .ising import (
    IsingInstance,
    InstanceError,
    gibbs_amplitudes,
    gibbs_distribution,
    ground_set,
    index_to_ket,
    load_instance,
    toy_ground_states,
    toy_instance,
)
from .metrics import ground_state_probability, orbit_probabilities
from .operators import apply_operator, build_sbo, densify
from .powell import ObjectiveError, PowellOptions
from .variational import SCHEMES

USAGE_ERROR = 1
CHECK_FAILURE = 2

KERNEL_TOL_TOY = 1e-10
EIGENVALUE_TOL = 1e-10


class _ParseError(Exception):
    """Arguments a parser rejects, as args (parser, message)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ParseError(self, message)

    def convert_arg_line_to_args(self, arg_line):
        return arg_line.split("#", 1)[0].split()


def _add_instance_flags(p: _Parser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--toy", action="store_true", help="use the built-in 5-spin benchmark")
    group.add_argument("--instance", metavar="PATH", help="instance file to load")


def _resolve_instance(args) -> tuple[IsingInstance, str]:
    if args.toy:
        return toy_instance(), "toy"
    return load_instance(args.instance), args.instance


def _add_optimizer_flags(p: _Parser) -> None:
    p.add_argument("--max-evaluations", type=int, default=PowellOptions.max_evaluations,
                   help="evaluation cap per start, checked between line searches")
    p.add_argument("--budget-s", type=float,
                   help="wall-clock safety net per point in seconds "
                        "(default: none; evaluation caps bound each point)")


def _optimizer_settings(args) -> dict:
    """SweepConfig keywords from the optimizer flags in `args`."""
    return {"optimizer": PowellOptions(max_evaluations=args.max_evaluations),
            "point_budget_s": args.budget_s}


def build_parser() -> _Parser:
    parser = _Parser(prog="gibbs-qaoa",
                     description="Exact simulation harness for fair-sampling "
                                 "variational circuits on small Ising instances.",
                     fromfile_prefix_chars="@")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="optimize a single (method, scheme, p, T) point")
    _add_instance_flags(p_run)
    p_run.add_argument("--method", choices=harness.METHODS, required=True)
    p_run.add_argument("--scheme", choices=SCHEMES, default="full")
    p_run.add_argument("-p", "--depth", type=int, required=True)
    p_run.add_argument("-T", "--temperature", type=float, default=None,
                       help="required for method sbo")
    _add_optimizer_flags(p_run)
    p_run.add_argument("--json", metavar="PATH", help="also write the record as JSON")

    p_sweep = sub.add_parser("sweep", help="run a (method, scheme, T, p) grid")
    _add_instance_flags(p_sweep)
    p_sweep.add_argument("--methods", nargs="+", choices=harness.METHODS,
                         default=harness.METHODS)
    p_sweep.add_argument("--schemes", nargs="+", choices=SCHEMES, default=SCHEMES)
    p_sweep.add_argument("--depths", nargs="+", type=int, default=harness.DEFAULT_DEPTHS)
    p_sweep.add_argument("--temperatures", nargs="+", type=float,
                         default=harness.DEFAULT_TEMPERATURES)
    _add_optimizer_flags(p_sweep)
    p_sweep.add_argument("--workers", type=int,
                         help="worker processes (default: one per core)")
    p_sweep.add_argument("--out-csv", metavar="PATH")
    p_sweep.add_argument("--out-json", metavar="PATH")
    p_sweep.add_argument("--fig-dir", metavar="DIR",
                         help="write the fig2*/fig3* data files and SVG plots into DIR")

    p_verify = sub.add_parser("verify-instance",
                              help="brute-force ground-set report (checks the "
                                   "built-in benchmark against its known minima)")
    _add_instance_flags(p_verify)

    p_gibbs = sub.add_parser("gibbs", help="Boltzmann summary at a temperature")
    _add_instance_flags(p_gibbs)
    p_gibbs.add_argument("-T", "--temperature", type=float, required=True)

    p_oracle = sub.add_parser("oracle",
                              help="kernel and spectrum checks for the "
                                   "Gibbs-encoding cost operator")
    _add_instance_flags(p_oracle)
    p_oracle.add_argument("-T", "--temperature", type=float, action="append",
                          dest="temperatures",
                          help="repeatable; default 0.5 1.0 2.0")
    return parser


def cmd_run(args) -> int:
    inst, _ = _resolve_instance(args)
    if args.method == "sbo" and args.temperature is None:
        print("error: method sbo requires -T", file=sys.stderr)
        return USAGE_ERROR
    temps = (args.temperature,) if args.temperature is not None else harness.DEFAULT_TEMPERATURES
    cfg = harness.SweepConfig(
        instance=inst,
        methods=(args.method,),
        schemes=(args.scheme,),
        depths=(args.depth,),
        temperatures=temps,
        workers=1,
        **_optimizer_settings(args),
    )
    record = harness.run_point(cfg, harness.grid_points(cfg)[0])
    for key, value in harness.record_to_dict(record).items():
        print(f"{key} = {value}")
    if args.json:
        harness.emit_json([record], args.json)
    return 0


def _sweep_config(args) -> harness.SweepConfig:
    return harness.SweepConfig(
        instance=_resolve_instance(args)[0],
        methods=tuple(args.methods),
        schemes=tuple(args.schemes),
        depths=tuple(args.depths),
        temperatures=tuple(args.temperatures),
        **_optimizer_settings(args),
        workers=args.workers,
    )


def cmd_sweep(args) -> int:
    records, failures = harness.run_sweep(_sweep_config(args))
    print(f"completed {len(records)} of {len(records) + len(failures)} points")
    if args.out_csv:
        harness.emit_csv(records, args.out_csv)
        print(f"wrote {args.out_csv}")
    if args.out_json:
        harness.emit_json(records, args.out_json)
        print(f"wrote {args.out_json}")
    if args.fig_dir:
        for figure in ("fig2", "fig3"):
            try:
                paths = harness.emit_fig_data(records, figure, args.fig_dir, svg=True)
            except harness.MissingPanelData as exc:  # a grid that cannot fill the figure
                print(f"skipped {figure}: {exc}", file=sys.stderr)
                continue
            for path in paths:
                print(f"wrote {path}")
    if failures:
        print("failed points:", file=sys.stderr)
        for f in failures:
            print(f"  {f.point}: {f.error}", file=sys.stderr)
        return CHECK_FAILURE
    return 0


def cmd_verify_instance(args) -> int:
    inst, label = _resolve_instance(args)
    gs = ground_set(inst)
    print(f"instance: {label} (n={inst.n}, {len(inst.couplings)} couplings)")
    print(f"E0 = {gs.e0:g}")
    print(f"ground states ({gs.degeneracy}):")
    for s in gs.states:
        print(f"  {s:>3d}  |{index_to_ket(s, inst.n)}>")
    if gs.orbits is not None:
        print(f"flip orbits: {len(gs.orbits)}")
        for i, (a, b) in enumerate(gs.orbits, start=1):
            print(f"  pair {i}: |{index_to_ket(a, inst.n)}>, |{index_to_ket(b, inst.n)}>")
    if args.toy:
        expected_states = tuple(sorted(toy_ground_states()))
        ok = gs.e0 == -4.0 and gs.states == expected_states and len(gs.orbits) == 3
        print(f"benchmark check (E0 = -4, six known states, three pairs): "
              f"{'PASS' if ok else 'FAIL'}")
        return 0 if ok else CHECK_FAILURE
    return 0


def cmd_gibbs(args) -> int:
    inst, label = _resolve_instance(args)
    dist = gibbs_distribution(inst, args.temperature)
    gs = ground_set(inst)
    p_gs = ground_state_probability(dist.probabilities, gs)
    print(f"instance: {label}  T = {args.temperature:g}")
    print(f"Z = {dist.z:.6g}")
    print(f"log Z = {dist.log_z:.12g}")
    print(f"P_GS = {p_gs:.12g}  ({gs.degeneracy} states at E0 = {gs.e0:g})")
    if gs.orbits is not None:
        probs = orbit_probabilities(dist.probabilities, gs)
        for i, v in enumerate(probs, start=1):
            print(f"P_{i} = {v:.12g}")
    top = np.argsort(dist.probabilities)[::-1][:5]
    print("most probable states:")
    for s in top:
        print(f"  |{index_to_ket(int(s), inst.n)}>  {dist.probabilities[s]:.6g}")
    return 0


def cmd_oracle(args) -> int:
    inst, label = _resolve_instance(args)
    temps = args.temperatures or list(harness.DEFAULT_TEMPERATURES)
    print(f"instance: {label}")
    status = 0
    for t in temps:
        op = build_sbo(inst, t)
        psi = gibbs_amplitudes(inst, t)
        residual = float(np.linalg.norm(apply_operator(op, psi)))
        dense = densify(op)
        decomp = eigh(dense)
        lam0, lam1 = float(decomp.eigenvalues[0]), float(decomp.eigenvalues[1])
        ok = (residual <= KERNEL_TOL_TOY
              and abs(lam0) <= EIGENVALUE_TOL
              and lam1 > 0.0)
        status = status if ok else CHECK_FAILURE
        print(f"T = {t:g}: kernel residual = {residual:.3e}, "
              f"min eigenvalue = {lam0:.3e}, second = {lam1:.6e}  "
              f"{'PASS' if ok else 'FAIL'}")
    return status


COMMANDS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "verify-instance": cmd_verify_instance,
    "gibbs": cmd_gibbs,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _ParseError as exc:
        rejecting, message = exc.args
        rejecting.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        return USAGE_ERROR
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return COMMANDS[args.command](args)
    except (InstanceError, ValueError, ObjectiveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
