"""Benchmark for gibbs_qaoa: two closed-loop workloads, output checks and
an optional outside-in traced run.

    python3 bench/run.py --workload toy-sweep --seed 1 --seconds 45 --trace 0

Run from the repository root. The package is imported from `src/`. One
process makes back-to-back calls with one worker and one BLAS thread.
Repetitions of the workload's fixed unit of work run until `--seconds` of
timed work have been done. The last line of standard output is a JSON object
with `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones. With `--trace 1` they are the per-layer
ones, taken from repetitions with spans installed; each traced repetition is
paired with an untraced one on the same inputs, which gives the tracing
overhead. Times are reported in units of the workload's yardstick, a fixed
computation timed in the same run (see the note above END_TO_END_UNITS).
The line before it (`detail`) has the environment, the failure share, the
raw times, the quality reached and the per-point evaluation counts.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from operator import truediv  # noqa: E402
from pathlib import Path  # noqa: E402

from statistics import fmean, median  # noqa: E402

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1  # at most nproc; one thread keeps timings steady on a shared host
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 6  # extra set-ups, each in a fresh process, for the setup_s median
MIN_TRACED_PAIRS = 2  # one with each order
TAIL_BEYOND = 10  # samples a reported tail percentile must leave above it

# A shared host (measured on a 2-vCPU VM) changes speed by up to 1.7x, in
# CPU time as much as in wall time, in states lasting from seconds to many
# minutes, so that no statistic of raw times agrees between runs made a few
# minutes apart. After every build and objective sample the benchmark times
# a yardstick (see Workload.yardstick). build_rel and eval_rel are medians
# of each sample divided by the yardstick after it, and wall_rel is
# wall_of_parts with each part divided by the yardsticks right after it
# (or by the repetition's median yardstick): the host's speed divides out,
# the program's does not. The raw medians, means and the tail, in seconds,
# are printed in the detail line.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_rel": "yardsticks",
    "peak_rss_mb": "MB",
    "build_rel": "yardsticks",
    "eval_rel": "yardsticks",
}


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile): the value is the (TAIL_BEYOND + 1)-th
    largest sample, so exactly TAIL_BEYOND samples lie beyond it, and the
    percentile is the share of samples at or below it. The percentile
    depends only on the sample count, so runs with equal counts report the
    same percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    k = n - TAIL_BEYOND
    return float(ordered[k - 1]), 100.0 * k / n


def wall_of_parts(parts: list[dict]) -> float:
    """Time of one repetition, each named part at its median.

    A repetition lasting seconds often straddles a change of the host's
    state, its parts (for example the grid points of a sweep) seldom do.
    """
    names = {name for rep in parts for name in rep}
    return sum(median([rep[name] for rep in parts if name in rep]) for name in names)


def pin_load() -> None:
    """One BLAS thread, no worker-count override, the package from src/."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    # It silently overrides the `workers` a sweep is given.
    os.environ.pop("GIBBS_QAOA_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))


def set_up(name: str, seed: int, scratch: str):
    """Import the package and make the workload's inputs from the seed."""
    import workloads

    wl = workloads.WORKLOADS[name](seed, scratch)
    gq = workloads.gq
    warm = gq.variational.QaoaProblem(gq.toy_instance(), gq.CostKind.classical(), "full", 2)
    warm.objective([0.1, 0.2, 0.3, 0.4])
    return wl


def probe_setup_times(name: str, seed: int) -> list[float]:
    out = []
    for _ in range(SETUP_PROBES):
        child = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(child.stdout.split()[-1]))
    return out


def environment() -> dict:
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        sha = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gibbs_qaoa").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "workers": 1,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def run_reps(wl, seconds: float, trace: bool) -> dict:
    """Repeat the workload's unit until `seconds` of timed work are done.

    Untraced: at least `min_reps` repetitions and `tail_samples` evaluation
    samples. Traced: pairs of an untraced and a traced repetition on the
    same inputs.
    """
    from workloads import MAX_REPS, gq

    walls, parts, rel_parts, builds, evals, build_yards, eval_yards, errors = (
        [], [], [], [], [], [], [], [])
    attempted = 0
    wl.yardsticks = not trace
    tracers, traced_walls = [], []

    def one(k, tracer=None):
        nonlocal attempted
        t = time.perf_counter()
        if tracer is None:
            rep = wl.run(k)
        else:
            with spans.Instrumented(gq, tracer):
                rep = wl.run(k)
        wall = time.perf_counter() - t - rep.yards_s()
        attempted += rep.attempted
        errors.extend(rep.errors)
        errors.extend(wl.check(rep))
        return rep, wall

    elapsed = 0.0
    for k in range(MAX_REPS):
        if trace:
            if elapsed >= seconds and k >= MIN_TRACED_PAIRS:
                break
            # Alternate which side of a pair runs first: the second run on the
            # same inputs tends to be faster.
            tracer = spans.Tracer()
            if k % 2:
                _, traced = one(k, tracer)
                _, wall = one(k)
            else:
                _, wall = one(k)
                _, traced = one(k, tracer)
            walls.append(wall)
            tracers.append(tracer)
            traced_walls.append(traced)
            elapsed += wall + traced
        else:
            if elapsed >= seconds and k >= wl.min_reps and len(evals) >= wl.tail_samples:
                break
            rep, wall = one(k)
            walls.append(wall)
            parts.append({**rep.parts, "rest": wall - sum(rep.parts.values())})
            rep_yard = median(rep.build_yards + rep.eval_yards)
            rel_parts.append({name: t / rep.part_yards.get(name, rep_yard)
                              for name, t in parts[-1].items()})
            build_yards += rep.build_yards
            eval_yards += rep.eval_yards
            builds += rep.builds
            evals += rep.evals
            elapsed += wall
    return {"walls": walls, "parts": parts, "rel_parts": rel_parts,
            "builds": builds, "evals": evals,
            "build_yards": build_yards, "eval_yards": eval_yards, "errors": errors,
            "attempted": attempted, "tracers": tracers, "traced_walls": traced_walls}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    pin_load()
    scratch = str(ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}")
    try:
        wl = set_up(args.workload, args.seed, scratch)
    except (ImportError, KeyError) as exc:
        print(f"bench: cannot set up {args.workload!r}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    setup_s = time.perf_counter() - _T0
    if args.setup_probe:
        print(setup_s)
        return 0

    try:
        res = run_reps(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(os.path.dirname(scratch))
    errors = res["errors"] + wl.quality_errors()
    attempted = max(res["attempted"], 1)

    detail = {"workload": args.workload, "seed": args.seed,
              "env": environment(), "reps": len(res["walls"])}
    if args.trace:
        for name in wl.must_fire:
            attempted += 1
            if not any(name in tr.stats for tr in res["tracers"]):
                errors.append(f"span {name} recorded no calls")
        values = spans.layer_metrics(res["tracers"], res["traced_walls"], res["walls"])
        units = spans.PER_LAYER_UNITS
        detail["moves"] = spans.MOVES
    else:
        setups = [setup_s] + probe_setup_times(args.workload, args.seed)
        first = res["evals"][:wl.tail_samples]
        tail_value, tail_pct = tail(first)
        yard = median(res["build_yards"] + res["eval_yards"])
        values = {
            "setup_s": median(setups),
            "wall_rel": wall_of_parts(res["rel_parts"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "build_rel": median(map(truediv, res["builds"], res["build_yards"])),
            "eval_rel": median(map(truediv, res["evals"], res["eval_yards"])),
        }
        units = END_TO_END_UNITS
        detail.update({
            "setup_samples_s": setups,
            "yardstick_ms_p50": 1e3 * yard,
            "yardstick_samples": len(res["build_yards"]) + len(res["eval_yards"]),
            "wall_s": wall_of_parts(res["parts"]),
            "rep_walls_s": res["walls"],
            "wall_s_mean": fmean(res["walls"]),
            "build_s_mean": fmean(res["builds"]),
            "build_s_p50": median(res["builds"]),
            "build_samples": len(res["builds"]),
            "eval_ms_mean": 1e3 * fmean(res["evals"]),
            "eval_ms_p50": 1e3 * median(res["evals"]),
            "eval_ms_tail": 1e3 * tail_value,
            "eval_ms_tail_percentile": tail_pct,
            "eval_ms_tail_samples": len(first),
            "eval_samples": len(res["evals"]),
            **wl.quality(),
        })

    failed = min(len(errors), attempted)
    detail["failed_frac"] = failed / attempted
    for msg in errors[:20]:
        print(f"bench: FAILED {msg}", file=sys.stderr)
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
