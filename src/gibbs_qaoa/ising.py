"""Classical Ising instances: energies, ground sets, Gibbs distributions.

Basis convention used throughout the package: a computational basis state is
an integer index in [0, 2**n); bit b of the index holds the state of spin
b+1, with bit value 1 meaning spin eigenvalue +1 (up) and 0 meaning -1
(down). Spin 1 lives in the lowest bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

MAX_SPINS = 20

UP = "↑"
DOWN = "↓"


class InstanceError(ValueError):
    """Invalid instance data (bad indices, duplicate pairs, too large)."""


class InstanceFormatError(InstanceError):
    """Malformed instance file; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class IsingInstance:
    """An Ising problem -sum J_ij s_i s_j - sum h_i s_i on n spins.

    `couplings` maps ordered pairs (i, j) with 1 <= i < j <= n to J_ij;
    `fields` holds h_1 .. h_n. Instances are immutable once built.
    """

    n: int
    couplings: dict[tuple[int, int], float] = field(default_factory=dict)
    fields: tuple[float, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise InstanceError(f"spin count must be >= 1, got {self.n}")
        if self.n > MAX_SPINS:
            raise InstanceError(
                f"spin count {self.n} exceeds the enumeration limit {MAX_SPINS}"
            )
        for (i, j) in self.couplings:
            if not (isinstance(i, Integral) and isinstance(j, Integral) and 1 <= i < j <= self.n):
                raise InstanceError(f"coupling pair ({i!r}, {j!r}) needs integer spin "
                                    f"indices 1 <= i < j <= {self.n}")
        if not self.fields:
            object.__setattr__(self, "fields", (0.0,) * self.n)
        if len(self.fields) != self.n:
            raise InstanceError(
                f"expected {self.n} field values, got {len(self.fields)}"
            )
        object.__setattr__(self, "fields", tuple(float(h) for h in self.fields))
        object.__setattr__(
            self, "couplings", dict(sorted((k, float(v)) for k, v in self.couplings.items()))
        )
        values = (*self.couplings.values(), *self.fields)
        for value in values:
            if not math.isfinite(value):
                raise InstanceError(f"non-finite coupling or field {value!r}")
        # |E| <= sum |J| + sum |h|, so a finite sum keeps every energy finite.
        if not math.isfinite(sum(abs(v) for v in values)):
            raise InstanceError("couplings and fields too large: sum |J| + sum |h| overflows")

    @property
    def dim(self) -> int:
        return 1 << self.n

    @property
    def flip_symmetric(self) -> bool:
        """True when every field is zero, so that reversing every spin
        leaves each energy unchanged."""
        return all(h == 0 for h in self.fields)


def spins_of(index: int, n: int) -> tuple[int, ...]:
    """Spin eigenvalues (+1/-1) of basis state `index`, spin 1 first."""
    return tuple(1 if (index >> b) & 1 else -1 for b in range(n))


def flip_all(index: int, n: int) -> int:
    """Index of the configuration with every spin reversed."""
    return index ^ ((1 << n) - 1)


def index_to_ket(index: int, n: int) -> str:
    """Arrow string for a basis state, spin 1 leftmost."""
    return "".join(UP if (index >> b) & 1 else DOWN for b in range(n))


def ket_to_index(ket: str) -> int:
    """Parse an arrow (or +/-) string, spin 1 leftmost."""
    idx = 0
    for b, ch in enumerate(ket):
        if ch in (UP, "+", "u", "1"):
            idx |= 1 << b
        elif ch in (DOWN, "-", "d", "0"):
            pass
        else:
            raise ValueError(f"unrecognized spin character {ch!r}")
    return idx


def spin_table(n: int) -> np.ndarray:
    """(2**n, n) array of spin eigenvalues, row = basis index."""
    idx = np.arange(1 << n, dtype=np.int64)
    return np.where((idx[:, None] >> np.arange(n)) & 1, 1.0, -1.0)


def energy_table(inst: IsingInstance) -> np.ndarray:
    """Energies of all 2**n basis states, in basis order.

    Built by doubling over the spins in O(2**n): placing spin b+1 adds
    -s_(b+1) times the field that h_(b+1) and the placed spins put on it.
    float64 arithmetic is exact for integer-valued instances of this size,
    so the table doubles as an exact spectrum for the benchmark models.
    """
    j = np.zeros((inst.n, inst.n))
    for (a, b), v in inst.couplings.items():
        j[a - 1, b - 1] = v
    e = np.zeros(1)
    f = np.array(inst.fields)[:, None]  # row i: the field on spin b+1+i
    for b in range(inst.n):
        e = np.concatenate((e + f[0], e - f[0]))  # spin b+1 down, then up
        coupling = j[b, b + 1:, None]
        f = np.concatenate((f[1:] - coupling, f[1:] + coupling), axis=1)
    return e


@dataclass(frozen=True)
class GroundSet:
    """Minimum energy, its basis states, and their global-flip orbits.

    `orbits` is None when some longitudinal field is nonzero (the global
    flip is not a symmetry then). Otherwise orbits are pairs (a, b) with
    b = flip_all(a), ordered by their spin-1-up representative read as a
    spin string (most aligned orbit first); for the built-in toy model
    this reproduces the conventional state-pair numbering.
    """

    e0: float
    states: tuple[int, ...]
    orbits: tuple[tuple[int, int], ...] | None

    @property
    def degeneracy(self) -> int:
        return len(self.states)


# Relative to the energy scale max(1, max |E|): rounding in the energy
# table grows with the couplings.
DEGENERACY_TOL = 1e-9


def ground_set(inst: IsingInstance) -> GroundSet:
    """Exhaustively enumerate all configurations and collect the minima:
    every state within DEGENERACY_TOL * max(1, max |E|) of the lowest
    energy (on integer-valued instances with max |E| < 1e9, exactly the
    lowest, since distinct energies differ by >= 1)."""
    e = energy_table(inst)
    e0 = float(e.min())
    tol = DEGENERACY_TOL * max(1.0, float(np.abs(e).max()))
    states = tuple(int(i) for i in np.nonzero(e <= e0 + tol)[0])
    orbits = None
    if inst.flip_symmetric:
        orbits = _flip_orbits(states, inst.n)
    return GroundSet(e0=e0, states=states, orbits=orbits)


def _flip_orbits(states: tuple[int, ...], n: int) -> tuple[tuple[int, int], ...]:
    present = set(states)
    reps = [a for a in states if a & 1]  # the spin-1-up member of each pair
    for a in reps:
        if flip_all(a, n) not in present:
            raise AssertionError(f"state {a} lacks its global-flip partner in the ground set")
    if 2 * len(reps) != len(states):
        raise AssertionError("a spin-1-down state lacks its global-flip partner in the ground set")
    # Most-aligned orbit first: descending spin strings (spin 1 leftmost).
    reps.sort(key=lambda r: spins_of(r, n), reverse=True)
    return tuple((r, flip_all(r, n)) for r in reps)


@dataclass(frozen=True)
class GibbsDistribution:
    """Boltzmann distribution over basis states, with its normalizer."""

    probabilities: np.ndarray
    log_z: float

    @property
    def z(self) -> float:
        try:
            return math.exp(self.log_z)
        except OverflowError:
            return math.inf


def gibbs_distribution(inst: IsingInstance, temperature: float) -> GibbsDistribution:
    """P(sigma) proportional to exp(-E(sigma)/T), Boltzmann constant 1.

    Weights are computed relative to the ground energy so that T -> 0
    underflows instead of overflowing.
    """
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    e = energy_table(inst)
    e0 = e.min()
    with np.errstate(over="ignore"):  # an overflowed exponent is a weight of 0
        w = np.exp(-(e - e0) / temperature)
        total = w.sum()
        log_z = float(-e0 / temperature + np.log(total))
    return GibbsDistribution(probabilities=w / total, log_z=log_z)


def gibbs_amplitudes(inst: IsingInstance, temperature: float) -> np.ndarray:
    """Unit vector with amplitudes proportional to exp(-E/2T).

    This is the square-root-Boltzmann state annihilated by the structured
    cost operator built in `operators.build_sbo`: the square roots of the
    Boltzmann probabilities.
    """
    return np.sqrt(gibbs_distribution(inst, temperature).probabilities)


# --- the built-in frustrated 5-spin benchmark -------------------------------

TOY_FERRO = ((1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5))
TOY_ANTIFERRO = ((1, 5), (2, 4))


def toy_instance() -> IsingInstance:
    """Five spins, six ferromagnetic and two antiferromagnetic unit bonds.

    Frustration gives a six-fold degenerate ground manifold at energy -4,
    made of three global-flip pairs. All longitudinal fields are zero.
    """
    couplings = {p: 1.0 for p in TOY_FERRO}
    couplings.update({p: -1.0 for p in TOY_ANTIFERRO})
    return IsingInstance(n=5, couplings=couplings)


def toy_ground_states() -> tuple[int, ...]:
    """The six degenerate minima of the toy model, in orbit order."""
    kets = ["uuuuu", "ddddd", "uuudd", "ddduu", "uuddd", "dduuu"]
    return tuple(ket_to_index(k) for k in kets)


# --- instance file I/O -------------------------------------------------------


# Per entry directive: its usage and what its value is.
_ENTRIES = {"j": ("j <i> <j> <real>", "coupling"), "h": ("h <i> <real>", "field")}


def parse_instance(text: str) -> IsingInstance:
    """Parse the line-oriented instance format.

    Directives (case-insensitive): `n <int>` (exactly once, first),
    `j <i> <j> <real>` with i < j (at most once per pair), `h <i> <real>`
    (at most once per spin). `#` starts a comment that runs to the end of
    its line; blank lines are ignored. Errors carry line numbers.
    """
    n = None
    entries: dict[str, dict[tuple[int, ...], float]] = {kind: {} for kind in _ENTRIES}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0].lower()
        if kind == "n":
            if n is not None:
                raise InstanceFormatError(lineno, "duplicate n directive")
            if len(tokens) != 2:
                raise InstanceFormatError(lineno, "expected: n <int>")
            try:
                n = int(tokens[1])
            except ValueError:
                raise InstanceFormatError(lineno, f"bad spin count {tokens[1]!r}") from None
            if n < 1 or n > MAX_SPINS:
                raise InstanceFormatError(
                    lineno, f"spin count must be in [1, {MAX_SPINS}], got {n}"
                )
            continue
        if kind not in _ENTRIES:
            raise InstanceFormatError(lineno, f"unknown directive {tokens[0]!r}")
        if n is None:
            raise InstanceFormatError(lineno, f"n must come before {kind} lines")
        usage, what = _ENTRIES[kind]
        names = usage.split()[1:-1]  # the index placeholders, "<i>" or "<i> <j>"
        if len(tokens) != len(names) + 2:
            raise InstanceFormatError(lineno, f"expected: {usage}")
        try:
            at = tuple(int(t) for t in tokens[1:-1])
            v = float(tokens[-1])
        except ValueError:
            raise InstanceFormatError(lineno, f"bad {kind} line {line!r}") from None
        if not math.isfinite(v):
            raise InstanceFormatError(lineno, f"non-finite {what} {tokens[-1]!r}")
        where = ", ".join(map(str, at))
        if len(set(at)) != len(at):
            raise InstanceFormatError(lineno, f"self-coupling ({where}) not allowed")
        if not all(a < b for a, b in zip((0, *at), (*at, n + 1))):
            bound = " < ".join(name.strip("<>") for name in names)
            raise InstanceFormatError(
                lineno, f"{what} at ({where}) out of range (need 1 <= {bound} <= {n})"
            )
        if at in entries[kind]:
            raise InstanceFormatError(lineno, f"duplicate {what} at ({where})")
        entries[kind][at] = v
    if n is None:
        raise InstanceFormatError(0, "missing n directive")
    h = tuple(entries["h"].get((i,), 0.0) for i in range(1, n + 1))
    return IsingInstance(n=n, couplings=entries["j"], fields=h)


def load_instance(path) -> IsingInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())
