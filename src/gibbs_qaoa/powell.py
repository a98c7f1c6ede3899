"""Derivative-free direction-set minimizer with a bracketing + Brent line search.

Classic Powell scheme: cycle through a maintained set of search directions,
line-minimize along each, and replace the direction of largest decrease with
the cycle displacement when the standard extrapolation test favors it.

Each search is written as a generator that yields the points it needs
evaluated and receives their values, so that several starts can advance in
lockstep and share one batched objective call per round.

The line searches are scalar bookkeeping on Python floats: the values
arrive as floats, and math.copysign, unlike np.copysign, returns one, so
every abscissa stays a float. np.float64 arithmetic gives the same numbers
several times slower.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from numbers import Integral

import numpy as np

_GOLD = 1.618034
_TINY = 1e-21
_CGOLD = 0.3819660112501051
_INITIAL_STEP = 0.1  # first bracketing step along a direction
_GROW_LIMIT = 110.0  # cap on a bracketing step past xb, as a multiple of xc - xb
_MAX_EXPANSIONS = 500
_BRENT_ABS_TOL = 1e-11
_BRENT_MAX_ITERATIONS = 200

# Fixed stopping rules of every search; PowellOptions holds the evaluation cap.
FTOL = 1e-10          # relative per-cycle objective decrease
XTOL = 1e-8           # line-search position tolerance
MAX_ITERATIONS = 100  # direction-set cycles


class ObjectiveError(RuntimeError):
    """The objective returned a non-finite value; carries the point."""

    def __init__(self, point: np.ndarray, value: float):
        super().__init__(f"non-finite objective value {value!r} at {point!r}")
        self.point = np.array(point)
        self.value = value


@dataclass
class PowellOptions:
    """The evaluation cap of each start, checked between line searches: a
    start runs past it by the searches under way (on the toy at p = 5, caps
    of 100 ran 101-133 evaluations and caps of 5 up to 27)."""

    max_evaluations: int = 200_000

    def __post_init__(self):
        if not (isinstance(self.max_evaluations, Integral) and self.max_evaluations >= 1):
            raise ValueError(
                f"evaluation cap must be an integer >= 1, got {self.max_evaluations!r}")


@dataclass
class OptResult:
    """Where a search ended and why; it converged if it stopped by ftol."""

    best_params: np.ndarray
    best_value: float
    n_evaluations: int
    # Why the search ended: "ftol", "max_evaluations", "max_iterations" or
    # "time_budget".
    stop: str
    trace: list[tuple[int, float]] = field(default_factory=list)
    # Set on the result powell_minimize returns: every start's result in
    # row order (whose own `starts` are empty), and the winner's row.
    starts: list[OptResult] = field(default_factory=list, repr=False)
    winner: int = 0

    @property
    def converged(self) -> bool:
        return self.stop == "ftol"


def _bracket(xa: float, xb: float):
    """Expand (xa, xb) downhill with golden-ratio/parabolic steps until a
    triplet xa < xb < xc with f(xb) below both ends is found.

    A generator: yields each abscissa, receives its value, returns
    (xa, xb, xc, fa, fb, fc).
    """
    fa = yield xa
    fb = yield xb
    if fa < fb:
        xa, xb = xb, xa
        fa, fb = fb, fa
    xc = xb + _GOLD * (xb - xa)
    fc = yield xc
    n = 0
    while fc < fb:
        tmp1 = (xb - xa) * (fb - fc)
        tmp2 = (xb - xc) * (fb - fa)
        val = tmp2 - tmp1
        denom = 2.0 * math.copysign(max(abs(val), _TINY), val)
        w = xb - ((xb - xc) * tmp2 - (xb - xa) * tmp1) / denom
        wlim = xb + _GROW_LIMIT * (xc - xb)
        if n > _MAX_EXPANSIONS:
            raise RuntimeError("bracketing exceeded the expansion limit")
        n += 1
        if (w - xc) * (xb - w) > 0.0:
            fw = yield w
            if fw < fc:
                return xb, w, xc, fb, fw, fc
            if fw > fb:
                return xa, xb, w, fa, fb, fw
            w = xc + _GOLD * (xc - xb)
            fw = yield w
        elif (w - wlim) * (wlim - xc) >= 0.0:
            w = wlim
            fw = yield w
        elif (w - wlim) * (xc - w) > 0.0:
            fw = yield w
            if fw < fc:
                xb, xc, w = xc, w, w + _GOLD * (w - xc)
                fb, fc, fw = fc, fw, (yield w)
        else:
            w = xc + _GOLD * (xc - xb)
            fw = yield w
        xa, xb, xc = xb, xc, w
        fa, fb, fc = fb, fc, fw
    if xa > xc:
        xa, xc = xc, xa
        fa, fc = fc, fa
    return xa, xb, xc, fa, fb, fc


def _brent(xa: float, xb: float, xc: float, fb: float):
    """Brent's parabolic/golden-section minimization inside a bracket.

    A generator: yields each abscissa, receives its value, returns (x, f(x)).
    """
    a, b = xa, xc
    x = w = v = xb
    fx = fw = fv = fb
    d = e = 0.0
    for _ in range(_BRENT_MAX_ITERATIONS):
        xm = 0.5 * (a + b)
        tol1 = XTOL * abs(x) + _BRENT_ABS_TOL
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            break
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            etmp = e
            e = d
            if abs(p) >= abs(0.5 * q * etmp) or p <= q * (a - x) or p >= q * (b - x):
                e = b - x if x < xm else a - x
                d = _CGOLD * e
            else:
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = math.copysign(tol1, xm - x)
        else:
            e = b - x if x < xm else a - x
            d = _CGOLD * e
        u = x + d if abs(d) >= tol1 else x + math.copysign(tol1, d)
        fu = yield u
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def _powell(x, opts: PowellOptions, deadline: float | None):
    """One start's direction-set search, as a generator: yields each point
    to evaluate, receives its value, returns the OptResult."""
    ncalls = 0

    def along(search, x, direction):
        # The 1-D search over the step t, as points x + t direction.
        nonlocal ncalls
        try:
            t = next(search)
            while True:
                ncalls += 1
                t = search.send((yield x + t * direction))
        except StopIteration as done:
            return done.value

    def budget_stop():
        if ncalls >= opts.max_evaluations:
            return "max_evaluations"
        if deadline is not None and time.perf_counter() > deadline:
            return "time_budget"
        return None

    def line_min(x, direction, fx):
        xa, xb, xc, fa, fb, fc = yield from along(_bracket(0.0, _INITIAL_STEP), x, direction)
        t_best, f_best = yield from along(_brent(xa, xb, xc, fb), x, direction)
        if f_best < fx:
            return x + t_best * direction, f_best, t_best * direction
        return x, fx, np.zeros_like(direction)

    dims = x.size
    directions = np.eye(dims)
    ncalls += 1
    fval = yield x
    trace = [(0, fval)]
    x_cycle_start = x.copy()
    iteration = 0

    while True:
        f_start = fval
        largest_decrease = 0.0
        largest_index = 0
        stop = None
        for i in range(dims):
            f_before = fval
            x, fval, _ = yield from line_min(x, directions[i], fval)
            if f_before - fval > largest_decrease:
                largest_decrease = f_before - fval
                largest_index = i
            stop = budget_stop()
            if stop:
                break
        iteration += 1
        trace.append((iteration, fval))
        # A cycle the cap or the deadline cut short has not searched every
        # direction, so its decrease cannot tell convergence.
        cut = stop is not None and i < dims - 1
        if not cut and 2.0 * (f_start - fval) <= FTOL * (abs(f_start) + abs(fval)) + 1e-20:
            stop = "ftol"
            break
        if not stop and iteration >= MAX_ITERATIONS:
            stop = "max_iterations"
        if stop:
            break
        # Powell's update: try the cycle displacement as a new direction.
        x_extrapolated = 2.0 * x - x_cycle_start
        displacement = x - x_cycle_start
        x_cycle_start = x.copy()
        ncalls += 1
        f_extrapolated = yield x_extrapolated
        if f_extrapolated < f_start:
            t = (2.0 * (f_start - 2.0 * fval + f_extrapolated)
                 * (f_start - fval - largest_decrease) ** 2
                 - largest_decrease * (f_start - f_extrapolated) ** 2)
            if t < 0.0:
                x, fval, shift = yield from line_min(x, displacement, fval)
                if np.linalg.norm(shift) > 0.0:
                    directions[largest_index] = directions[-1]
                    directions[-1] = shift

    return OptResult(
        best_params=x,
        best_value=fval,
        n_evaluations=ncalls,
        stop=stop,
        trace=trace,
    )


def powell_minimize(func, x0, options: PowellOptions | None = None,
                    time_budget: float | None = None) -> OptResult:
    """Minimize func over R^n from each row of the 2-D array x0.

    The starts advance in lockstep: func maps the (k, n) array of the
    pending points of a round to their k values. Each start takes the same
    steps as it would in a batch of one, the evaluation cap applies per
    start, and `time_budget` (wall seconds; None for none) is one deadline
    for all starts together. The result is the start with the lowest final
    value (the earliest of equals), with every start's result in `starts`
    and its row in `winner`.

    The returned trace holds the objective after each direction-set cycle
    (entry 0 is the starting value) and is non-increasing by construction:
    a line search keeps the incumbent point unless it found something
    strictly better.
    """
    opts = options or PowellOptions()
    if time_budget is not None and not time_budget >= 0.0:
        raise ValueError(f"wall-clock budget must be >= 0 seconds, got {time_budget!r}")
    deadline = None if time_budget is None else time.perf_counter() + time_budget
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 2 or not len(x0):
        raise ValueError(f"starting points must be one or more rows of a 2-D array, "
                         f"got shape {x0.shape}")

    searches = [_powell(x.copy(), opts, deadline) for x in x0]
    pending = {i: next(s) for i, s in enumerate(searches)}
    results: list[OptResult] = [None] * len(searches)
    while pending:
        points = np.array(list(pending.values()))
        values = np.asarray(func(points), dtype=float).tolist()  # Python floats
        for i, x, value in zip(list(pending), points, values, strict=True):
            if not math.isfinite(value):
                raise ObjectiveError(x, value)
            try:
                pending[i] = searches[i].send(value)
            except StopIteration as done:
                results[i] = done.value
                del pending[i]

    winner = min(range(len(results)), key=lambda i: results[i].best_value)
    return replace(results[winner], starts=results, winner=winner)
