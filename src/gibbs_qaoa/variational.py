"""Angle-schedule parameterizations and the variational optimization driver.

Two schemes: "full" optimizes all 2p angles independently; "linearized"
optimizes four numbers (slope and intercept for gamma and beta as functions
of k/p).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import CircuitSimulator, CostKind, Ramp
from .ising import IsingInstance
from .operators import alpha
from .powell import OptResult, PowellOptions, powell_minimize

SCHEMES = ("full", "linearized")

DEFAULT_DT = 1.0

# Cap on the gamma-scale factor of the starting points (see QaoaProblem.starts).
MAX_INIT_SCALE = 4096.0


class QaoaProblem:
    """Objective callable binding an instance, cost kind, scheme, and depth.

    The underlying simulator (and any eigendecomposition) is built once and
    reused for every objective evaluation.
    """

    def __init__(self, inst: IsingInstance, kind: CostKind, scheme: str, p: int):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        if p < 1:
            raise ValueError(f"depth must be >= 1, got {p}")
        self.inst = inst
        self.kind = kind
        self.scheme = scheme
        self.p = p
        self.simulator = CircuitSimulator(inst, kind)
        self._k = np.arange(1, p + 1) / p

    def schedule(self, params) -> tuple:
        """What the simulator runs for a parameter vector: (gammas, betas).

        Full scheme: the 2p angles, gammas first, of shape (p, K) for a
        (K, 2p) array. Linearized scheme: (gamma slope, gamma intercept,
        beta slope, beta intercept), gamma_k = slope * k/p + intercept for
        k = 1 .. p and likewise beta, as two Ramps of first angle slope/p +
        intercept and step slope/p, with (K,) rows for a (K, 4) array."""
        params = self._checked(params)
        if self.scheme == "full":
            return params[..., : self.p].T, params[..., self.p:].T
        steps = params[..., 0::2] / self.p  # gamma and beta slopes over p
        firsts = steps + params[..., 1::2]
        return (Ramp(firsts[..., 0], steps[..., 0], self.p),
                Ramp(firsts[..., 1], steps[..., 1], self.p))

    def _checked(self, params) -> np.ndarray:
        """Parameters as floats, after checking their count against the scheme."""
        params = np.asarray(params, dtype=float)
        size = params.shape[-1] if params.ndim else 1
        if self.scheme == "full" and size != 2 * self.p:
            raise ValueError(
                f"full scheme at depth {self.p} needs {2*self.p} parameters, got {size}")
        if self.scheme == "linearized" and size != 4:
            raise ValueError(f"linearized scheme needs 4 parameters, got {size}")
        return params

    def _ramp(self, lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The angles, of shape (p, ...), of (..., 4) slopes and intercepts."""
        return (np.multiply.outer(self._k, lines[..., 0]) + lines[..., 1],
                np.multiply.outer(self._k, lines[..., 2]) + lines[..., 3])

    def objective(self, params):
        """Objective of a parameter vector, or the K values of a (K, dims) array.
        Linearized parameters run as Ramps, which agree with their angles to
        rounding, about 1e-11 at p = 100 and cost angles near MAX_INIT_SCALE."""
        return self.simulator.objective_angles(*self.schedule(params))

    def probabilities(self, params) -> np.ndarray:
        """Measurement distribution of the final state of a parameter vector,
        from the same propagation as `objective`."""
        return self.simulator.probabilities(self.schedule(params))

    def starts(self) -> np.ndarray:
        """The deterministic starting points of optimize_qaoa, one per row
        (row i starts the run `QaoaOutcome.result.starts[i]`).

        Each start is the ramp image (kappa dt, 0, -mu dt, mu dt) of the
        annealing schedule, with its cost angles scaled by kappa. H_S(T)
        couples single flips with strength exp(-alpha/T), so useful cost
        angles are about exp(alpha/T) times the ramp's: kappa runs up to
        kappa_max = min(exp(alpha/T), MAX_INIT_SCALE), which is 1 for the
        classical cost.

        Linearized scheme: the geometric ladder kappa = 1, 2, 4, ... up to
        kappa_max, at mu = 1 and 1/4, each in both mixer-sign conventions;
        the plain annealing image comes first. Full scheme: the 2p angles of
        the images at kappa_max (when it is not 1), then at kappa = 1.
        """
        a = 0.0 if self.kind.temperature is None else alpha(self.inst)
        cap = min(float(np.exp(a / self.kind.temperature)), MAX_INIT_SCALE) if a > 0.0 else 1.0
        if self.scheme == "full":
            kappas = (1.0,) if cap == 1.0 else (cap, 1.0)
            gammas, betas = self._ramp(
                np.array([(kappa * DEFAULT_DT, 0.0, -DEFAULT_DT, DEFAULT_DT) for kappa in kappas]))
            return np.concatenate((gammas, betas)).T
        kappas = [1.0]
        while kappas[-1] * 2.0 <= cap:
            kappas.append(kappas[-1] * 2.0)
        return np.array([(kappa * DEFAULT_DT, 0.0, b * DEFAULT_DT, -b * DEFAULT_DT)
                         for kappa in kappas for mu in (1.0, 0.25) for b in (-mu, mu)])


@dataclass
class QaoaOutcome:
    """Winning optimization run plus the measurement distribution it yields."""

    result: OptResult  # the winning start's run; result.starts holds every start's
    distribution: np.ndarray

    @property
    def n_starts(self) -> int:
        return len(self.result.starts)

    @property
    def total_evaluations(self) -> int:
        return sum(r.n_evaluations for r in self.result.starts)


def optimize_qaoa(
    inst: IsingInstance,
    kind: CostKind,
    scheme: str,
    p: int,
    options: PowellOptions | None = None,
    time_budget: float | None = None,
) -> QaoaOutcome:
    """Optimize the angles and return the best run's distribution.

    Every run keeps the best final objective over its starts
    (`QaoaProblem.starts`). Full-scheme runs start from the annealing ramp;
    for the sbo cost they first try the ramp with its cost angles scaled by
    kappa_max, which is what reaches the Gibbs target at depth (the plain
    ramp can do better at shallow depth). Linearized runs try the
    deterministic battery of ramp images; the 4-dimensional landscape is
    riddled with poor local minima that the plain ramp image alone falls
    into.

    All starts advance in lockstep, one batched objective evaluation per
    round, each with the same steps and result as in a batch of one.
    `time_budget` (wall seconds) is one deadline for the whole point: every
    start still running stops at it, and the best of what each reached wins.
    """
    problem = QaoaProblem(inst, kind, scheme, p)
    result = powell_minimize(problem.objective, problem.starts(), options, time_budget)
    distribution = problem.probabilities(result.best_params)
    return QaoaOutcome(result=result, distribution=distribution)
