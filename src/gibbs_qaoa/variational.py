"""Angle-schedule parameterizations and the variational optimization driver.

Two schemes: "full" optimizes all 2p angles independently; "linearized"
optimizes four numbers (slope and intercept for gamma and beta as functions
of k/p).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import CircuitSimulator, CostKind
from .ising import IsingInstance
from .operators import alpha
from .powell import OptResult, PowellOptions, powell_minimize

SCHEMES = ("full", "linearized")

DEFAULT_DT = 1.0

# Cap on the gamma-scale factor of the starting points (see init_scale).
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

    def schedule(self, params) -> tuple[np.ndarray, np.ndarray]:
        """Per-layer (gammas, betas) of a parameter vector.

        Full scheme: the 2p angles, gammas first. Linearized scheme:
        (gamma slope, gamma intercept, beta slope, beta intercept), with
        gamma_k = slope * k/p + intercept and likewise for beta. A (K, dims)
        array of K parameter vectors gives angles of shape (p, K).
        """
        params = np.asarray(params, dtype=float)
        size = params.shape[-1] if params.ndim else 1
        if self.scheme == "full":
            if size != 2 * self.p:
                raise ValueError(
                    f"full scheme at depth {self.p} needs {2*self.p} parameters, got {size}"
                )
            return params[..., : self.p].T, params[..., self.p:].T
        if size != 4:
            raise ValueError(f"linearized scheme needs 4 parameters, got {size}")
        return self._ramp(params)

    def _ramp(self, lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The linearized schedule of (..., 4) slopes and intercepts."""
        return (np.multiply.outer(self._k, lines[..., 0]) + lines[..., 1],
                np.multiply.outer(self._k, lines[..., 2]) + lines[..., 3])

    def objective(self, params):
        """Objective of a parameter vector, or the K values of a (K, dims) array."""
        return self.simulator.objective_angles(*self.schedule(params))

    def starts(self) -> np.ndarray:
        """The deterministic starting points of optimize_qaoa, one per row
        (row i starts the run `QaoaOutcome.result.starts[i]`).

        Linearized scheme: `linearized_init_battery`. Full scheme: the 2p
        angles of the ramp images (kappa dt, 0, -dt, dt) of the annealing
        schedule, first with the sbo cost-angle scale kappa = init_scale
        (when it is not 1), then the plain ramp, kappa = 1.
        """
        a = alpha(self.inst) if self.kind.method == "sbo" else 0.0
        if self.scheme == "linearized":
            return linearized_init_battery(self.kind, a)
        scale = init_scale(self.kind, a)
        kappas = (1.0,) if scale == 1.0 else (scale, 1.0)
        gammas, betas = self._ramp(
            np.array([(kappa * DEFAULT_DT, 0.0, -DEFAULT_DT, DEFAULT_DT) for kappa in kappas]))
        return np.concatenate((gammas, betas)).T


def init_scale(kind: CostKind, alpha_value: float) -> float:
    """Cost-angle scale that offsets the exp(-alpha/T) suppression of H_S(T).

    The Gibbs-encoding operator couples single flips with strength
    exp(-alpha/T), so useful cost angles are about exp(alpha/T) times the
    annealing ramp's. Capped at MAX_INIT_SCALE; 1 for the classical cost.
    """
    if kind.method == "sbo" and alpha_value > 0.0:
        return min(float(np.exp(alpha_value / kind.temperature)), MAX_INIT_SCALE)
    return 1.0


def linearized_init_battery(kind: CostKind, alpha_value: float = 0.0) -> np.ndarray:
    """Deterministic starting points for linearized runs, one per row:
    (gamma slope, gamma intercept, beta slope, beta intercept).

    The ramp image of the annealing schedule, at a geometric ladder of
    cost-angle scales and two mixer-angle scales, in both mixer-sign
    conventions. The ladder compensates the exp(-alpha/T) suppression of
    the Gibbs-encoding cost operator; for the classical cost a single scale
    suffices. The plain annealing image comes first.
    """
    scale_cap = init_scale(kind, alpha_value)
    kappas = [1.0]
    while kappas[-1] * 2.0 <= scale_cap:
        kappas.append(kappas[-1] * 2.0)
    inits = []
    for kappa in kappas:
        for mu in (1.0, 0.25):
            inits.append((kappa * DEFAULT_DT, 0.0, -mu * DEFAULT_DT, mu * DEFAULT_DT))
            inits.append((kappa * DEFAULT_DT, 0.0, mu * DEFAULT_DT, -mu * DEFAULT_DT))
    return np.array(inits)


@dataclass
class QaoaOutcome:
    """Winning optimization run plus the measurement distribution it yields."""

    result: OptResult  # the winning start's run; result.starts holds every start's
    schedule: tuple[np.ndarray, np.ndarray]  # the winner's (gammas, betas)
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
    init_scale, which is what reaches the Gibbs target at depth (the plain
    ramp can do better at shallow depth). Linearized runs try the
    deterministic battery of ramp images; the 4-dimensional landscape is
    riddled with poor local minima that the plain ramp image alone falls
    into.

    All starts advance in lockstep, one batched objective evaluation per
    round, with the same steps and results as run one by one. `time_budget`
    (wall seconds) is one deadline for the whole point: every start still
    running stops at it, and the best of what each reached wins.
    """
    problem = QaoaProblem(inst, kind, scheme, p)
    result = powell_minimize(problem.objective, problem.starts(), options, time_budget)
    schedule = problem.schedule(result.best_params)
    distribution = problem.simulator.probabilities(schedule)
    return QaoaOutcome(result=result, schedule=schedule, distribution=distribution)
