"""Sampling-quality metrics over measurement distributions."""

from __future__ import annotations

import numpy as np

from .ising import GroundSet


def ground_state_probability(dist: np.ndarray, gs: GroundSet) -> float:
    """Total probability mass on the degenerate minima."""
    dist = np.asarray(dist)
    return float(sum(dist[s] for s in gs.states))


def orbit_probabilities(dist: np.ndarray, gs: GroundSet) -> tuple[float, ...]:
    """Per-orbit sums, in the ground set's orbit order.

    Requires flip orbits, i.e. an instance with no longitudinal fields.
    """
    if gs.orbits is None:
        raise ValueError("orbits are undefined for instances with longitudinal fields")
    dist = np.asarray(dist)
    return tuple(float(dist[a] + dist[b]) for (a, b) in gs.orbits)


def fairness_gap(orbit_probs) -> float:
    """Spread of the orbit probabilities: max - min."""
    return float(max(orbit_probs) - min(orbit_probs))


def total_variation_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the l1 distance between two distributions, at most 1 (rounding
    can carry the sum for disjoint supports just past it)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"distribution shapes differ: {a.shape} vs {b.shape}")
    return min(float(0.5 * np.abs(a - b).sum()), 1.0)
