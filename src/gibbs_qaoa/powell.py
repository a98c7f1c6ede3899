"""Derivative-free direction-set minimizer with a bracketing + Brent line search.

Classic Powell scheme: cycle through a maintained set of search directions,
line-minimize along each, and replace the direction of largest decrease with
the cycle displacement when the standard extrapolation test favors it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

_GOLD = 1.618034
_TINY = 1e-21
_CGOLD = 0.3819660112501051
_INITIAL_STEP = 0.1  # first bracketing step along a direction


class ObjectiveError(RuntimeError):
    """The objective returned a non-finite value; carries the point."""

    def __init__(self, point: np.ndarray, value: float):
        super().__init__(f"non-finite objective value {value!r} at {point!r}")
        self.point = np.array(point)
        self.value = value


@dataclass
class PowellOptions:
    ftol: float = 1e-10            # relative per-cycle objective decrease
    xtol: float = 1e-8             # line-search position tolerance
    max_iterations: int = 100      # direction-set cycles
    max_evaluations: int = 200_000
    time_budget: float | None = None  # wall seconds; None = unbounded


@dataclass
class OptResult:
    best_params: np.ndarray
    best_value: float
    n_evaluations: int
    converged: bool
    trace: list[tuple[int, float]] = field(default_factory=list)


def bracket_minimum(f, xa: float = 0.0, xb: float = 1.0, grow_limit: float = 110.0,
                    max_expansions: int = 500):
    """Expand (xa, xb) downhill with golden-ratio/parabolic steps until a
    triplet xa < xb < xc with f(xb) below both ends is found."""
    fa, fb = f(xa), f(xb)
    if fa < fb:
        xa, xb = xb, xa
        fa, fb = fb, fa
    xc = xb + _GOLD * (xb - xa)
    fc = f(xc)
    n = 0
    while fc < fb:
        tmp1 = (xb - xa) * (fb - fc)
        tmp2 = (xb - xc) * (fb - fa)
        val = tmp2 - tmp1
        denom = 2.0 * np.copysign(max(abs(val), _TINY), val)
        w = xb - ((xb - xc) * tmp2 - (xb - xa) * tmp1) / denom
        wlim = xb + grow_limit * (xc - xb)
        if n > max_expansions:
            raise RuntimeError("bracketing exceeded the expansion limit")
        n += 1
        if (w - xc) * (xb - w) > 0.0:
            fw = f(w)
            if fw < fc:
                return xb, w, xc, fb, fw, fc
            if fw > fb:
                return xa, xb, w, fa, fb, fw
            w = xc + _GOLD * (xc - xb)
            fw = f(w)
        elif (w - wlim) * (wlim - xc) >= 0.0:
            w = wlim
            fw = f(w)
        elif (w - wlim) * (xc - w) > 0.0:
            fw = f(w)
            if fw < fc:
                xb, xc, w = xc, w, w + _GOLD * (w - xc)
                fb, fc, fw = fc, fw, f(w)
        else:
            w = xc + _GOLD * (xc - xb)
            fw = f(w)
        xa, xb, xc = xb, xc, w
        fa, fb, fc = fb, fc, fw
    if xa > xc:
        xa, xc = xc, xa
        fa, fc = fc, fa
    return xa, xb, xc, fa, fb, fc


def brent_minimum(f, xa: float, xb: float, xc: float, fb: float,
                  xtol: float = 1e-8, abs_tol: float = 1e-11, max_iterations: int = 200):
    """Brent's parabolic/golden-section minimization inside a bracket."""
    a, b = xa, xc
    x = w = v = xb
    fx = fw = fv = fb
    d = e = 0.0
    for _ in range(max_iterations):
        xm = 0.5 * (a + b)
        tol1 = xtol * abs(x) + abs_tol
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
                    d = np.copysign(tol1, xm - x)
        else:
            e = b - x if x < xm else a - x
            d = _CGOLD * e
        u = x + d if abs(d) >= tol1 else x + np.copysign(tol1, d)
        fu = f(u)
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


def powell_minimize(func, x0, options: PowellOptions | None = None) -> OptResult:
    """Minimize func over R^n starting from x0.

    The returned trace holds the objective after each direction-set cycle
    (entry 0 is the starting value) and is non-increasing by construction:
    a line search keeps the incumbent point unless it found something
    strictly better.
    """
    opts = options or PowellOptions()
    t_start = time.perf_counter()
    ncalls = 0

    def f(x):
        nonlocal ncalls
        ncalls += 1
        v = float(func(x))
        if not np.isfinite(v):
            raise ObjectiveError(x, v)
        return v

    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    dims = x.size
    directions = np.eye(dims)
    fval = f(x)
    trace = [(0, fval)]
    x_cycle_start = x.copy()
    converged = False
    iteration = 0

    def out_of_budget():
        if ncalls >= opts.max_evaluations:
            return True
        return (opts.time_budget is not None
                and time.perf_counter() - t_start > opts.time_budget)

    def line_min(x, direction, fx):
        def f1d(t):
            return f(x + t * direction)
        xa, xb, xc, fa, fb, fc = bracket_minimum(f1d, 0.0, _INITIAL_STEP)
        t_best, f_best = brent_minimum(f1d, xa, xb, xc, fb, xtol=opts.xtol)
        if f_best < fx:
            return x + t_best * direction, f_best, t_best * direction
        return x, fx, np.zeros_like(direction)

    while True:
        f_start = fval
        largest_decrease = 0.0
        largest_index = 0
        budget_hit = False
        for i in range(dims):
            f_before = fval
            x, fval, _ = line_min(x, directions[i], fval)
            if f_before - fval > largest_decrease:
                largest_decrease = f_before - fval
                largest_index = i
            if out_of_budget():
                budget_hit = True
                break
        iteration += 1
        trace.append((iteration, fval))
        if 2.0 * (f_start - fval) <= opts.ftol * (abs(f_start) + abs(fval)) + 1e-20:
            converged = True
            break
        if budget_hit or iteration >= opts.max_iterations:
            break
        # Powell's update: try the cycle displacement as a new direction.
        x_extrapolated = 2.0 * x - x_cycle_start
        displacement = x - x_cycle_start
        x_cycle_start = x.copy()
        f_extrapolated = f(x_extrapolated)
        if f_extrapolated < f_start:
            t = (2.0 * (f_start - 2.0 * fval + f_extrapolated)
                 * (f_start - fval - largest_decrease) ** 2
                 - largest_decrease * (f_start - f_extrapolated) ** 2)
            if t < 0.0:
                x, fval, shift = line_min(x, displacement, fval)
                if np.linalg.norm(shift) > 0.0:
                    directions[largest_index] = directions[-1]
                    directions[-1] = shift

    return OptResult(
        best_params=x,
        best_value=fval,
        n_evaluations=ncalls,
        converged=converged,
        trace=trace,
    )
