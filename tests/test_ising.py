import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbs_qaoa.ising import (
    InstanceError,
    InstanceFormatError,
    IsingInstance,
    energy_table,
    flip_all,
    gibbs_amplitudes,
    gibbs_distribution,
    ground_set,
    index_to_ket,
    ket_to_index,
    parse_instance,
    spins_of,
    toy_ground_states,
    toy_instance,
)
from gibbs_qaoa.operators import build_sbo

GIBBS_PGS_T1 = 0.83591216711007  # 6 / (6 + 8e^-2 + 4e^-4 + 8e^-6 + 6e^-8)
GIBBS_Z_T1 = 391.89392508953597


def classical_energy(inst: IsingInstance, index: int) -> float:
    """Energy of one basis state, spin by spin: the reference that
    energy_table is checked against. Exact for integer-valued instances."""
    s = spins_of(index, inst.n)
    e = 0.0
    for (i, j), v in inst.couplings.items():
        e -= v * s[i - 1] * s[j - 1]
    for i, h in enumerate(inst.fields):
        e -= h * s[i]
    return e


def test_bit_convention():
    assert spins_of(0b00001, 5) == (1, -1, -1, -1, -1)
    assert ket_to_index("↑↑↑↓↓") == 7
    assert index_to_ket(7, 5) == "↑↑↑↓↓"
    assert flip_all(7, 5) == 24


def test_instance_validation():
    with pytest.raises(InstanceError):
        IsingInstance(n=0)
    with pytest.raises(InstanceError):
        IsingInstance(n=25)
    with pytest.raises(InstanceError):
        IsingInstance(n=3, couplings={(2, 1): 1.0})
    with pytest.raises(InstanceError):
        IsingInstance(n=2, couplings={(1, 3): 1.0})
    with pytest.raises(InstanceError, match="non-finite"):
        IsingInstance(n=2, couplings={(1, 2): float("nan")})
    with pytest.raises(InstanceError, match="non-finite"):
        IsingInstance(n=2, fields=(float("inf"), 0.0))


def test_coupling_indices_must_be_integers():
    # a float index would pass the range check and fail later as a bare
    # IndexError in energy_table; numpy integers are integers
    for pair in [(1, 2.0), (1.0, 2), (np.float64(1), 3)]:
        with pytest.raises(InstanceError, match="integer spin indices"):
            IsingInstance(n=3, couplings={pair: 1.0})
    inst = IsingInstance(n=3, couplings={(np.int64(1), np.int32(2)): 1.0})
    assert energy_table(inst).tolist() == energy_table(IsingInstance(3, {(1, 2): 1.0})).tolist()


@pytest.mark.parametrize("couplings, fields", [
    ({(1, 2): 1e308, (2, 3): 1e308, (1, 3): 1e308}, ()),
    ({(1, 2): -1e308}, (0.0, 0.0, -1e308)),
    ({}, (1e308, 1e308, 0.0)),
], ids=["couplings", "mixed-signs", "fields"])
def test_finite_values_whose_energies_overflow_are_rejected(couplings, fields):
    # each value is finite, but sum |J| + sum |h| bounds |E| and is not
    with pytest.raises(InstanceError, match="too large"):
        IsingInstance(n=3, couplings=couplings, fields=fields)
    text = "n 3\n" + "".join(f"j {i} {j} {v!r}\n" for (i, j), v in couplings.items())
    text += "".join(f"h {i} {h!r}\n" for i, h in enumerate(fields, start=1))
    with pytest.raises(InstanceError, match="too large"):
        parse_instance(text)


def test_largest_finite_energy_scale_is_kept():
    inst = IsingInstance(n=3, couplings={(1, 2): 8e307, (2, 3): 4e307, (1, 3): 4e307})
    assert float(energy_table(inst).min()) == -1.6e308


class TestClassicalEnergy:
    def test_toy_all_up(self):
        assert classical_energy(toy_instance(), 0b11111) == -4.0

    def test_single_spin_no_field(self):
        inst = IsingInstance(n=1)
        assert classical_energy(inst, 0) == 0.0
        assert classical_energy(inst, 1) == 0.0

    def test_toy_from_exhaustive_table(self):
        # |up up up down up> = index 23, checked against a hand enumeration
        assert classical_energy(toy_instance(), ket_to_index("uuudu")) == -2.0

    def test_matches_energy_table(self):
        inst = toy_instance()
        table = energy_table(inst)
        for idx in range(32):
            assert classical_energy(inst, idx) == table[idx]

    def test_toy_spectrum_multiplicities(self):
        values, counts = np.unique(energy_table(toy_instance()), return_counts=True)
        assert values.tolist() == [-4.0, -2.0, 0.0, 2.0, 4.0]
        assert counts.tolist() == [6, 8, 4, 8, 6]


class TestGroundSet:
    def test_toy(self):
        gs = ground_set(toy_instance())
        assert gs.e0 == -4.0
        assert gs.states == tuple(sorted(toy_ground_states()))
        assert gs.orbits == ((31, 0), (7, 24), (3, 28))

    def test_single_spin_with_field(self):
        gs = ground_set(IsingInstance(n=1, fields=(1.0,)))
        assert gs.e0 == -1.0
        assert gs.states == (1,)
        assert gs.orbits is None

    def test_ferromagnetic_pair(self):
        gs = ground_set(IsingInstance(n=2, couplings={(1, 2): 1.0}))
        assert gs.e0 == -1.0
        assert gs.states == (0, 3)
        assert gs.orbits == ((3, 0),)

    def test_orbits_of_sixteen_free_spins(self):
        # every state is a ground state: 32,768 flip orbits, paired in one pass
        start = time.perf_counter()
        gs = ground_set(IsingInstance(n=16))
        elapsed = time.perf_counter() - start
        reps = sorted(range(1, 1 << 16, 2), key=lambda r: spins_of(r, 16), reverse=True)
        assert gs.orbits == tuple((r, r ^ 0xFFFF) for r in reps)
        assert elapsed < 5.0

    def test_non_ground_energies_strictly_above(self):
        inst = toy_instance()
        e = energy_table(inst)
        gs = ground_set(inst)
        others = np.delete(e, list(gs.states))
        assert (others > gs.e0).all()


class TestGibbs:
    def test_toy_partition_function(self):
        dist = gibbs_distribution(toy_instance(), 1.0)
        assert dist.z == pytest.approx(GIBBS_Z_T1, rel=1e-12)
        weight = sum(dist.probabilities[s] for s in toy_ground_states())
        assert weight == pytest.approx(GIBBS_PGS_T1, abs=1e-12)

    def test_single_spin_uniform(self):
        dist = gibbs_distribution(IsingInstance(n=1), 3.7)
        assert np.allclose(dist.probabilities, [0.5, 0.5])

    def test_high_temperature_near_uniform(self):
        dist = gibbs_distribution(toy_instance(), 1e6)
        assert np.abs(dist.probabilities - 1 / 32).max() < 1e-4
        # T = inf is the uniform limit, not an error
        assert np.array_equal(gibbs_distribution(toy_instance(), np.inf).probabilities,
                              np.full(32, 1 / 32))

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            gibbs_distribution(toy_instance(), 0.0)
        with pytest.raises(ValueError):
            gibbs_distribution(toy_instance(), -1.0)
        for fn in (gibbs_distribution, gibbs_amplitudes):
            with pytest.raises(ValueError):
                fn(toy_instance(), float("nan"))

    @pytest.mark.parametrize("t", np.geomspace(1e-3, 1e6, 10))
    def test_normalization_across_temperatures(self, t):
        dist = gibbs_distribution(toy_instance(), float(t))
        assert abs(dist.probabilities.sum() - 1.0) < 1e-12
        assert (dist.probabilities >= 0).all()

    # Accepted instances whose exponents overflow: 5e307 bonds put energy
    # gaps past the float range at T = 1, and 1e307 bonds at T = 0.01 put the
    # gaps over T there. The overflowed weights are exactly 0, so only the
    # two aligned states (indices 0 and 7) remain, and nothing warns.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bond, t", [(5e307, 1.0), (1e307, 0.01)])
    def test_overflowing_exponents_give_the_limit(self, bond, t):
        inst = IsingInstance(n=3, couplings={(1, 2): bond, (2, 3): bond, (1, 3): bond})
        limit = np.array([0.5, 0, 0, 0, 0, 0, 0, 0.5])
        assert np.array_equal(gibbs_distribution(inst, t).probabilities, limit)
        assert np.abs(gibbs_amplitudes(inst, t) - np.sqrt(limit)).max() <= 1e-15
        op = build_sbo(inst, t)  # kernel: the aligned states
        assert np.array_equal(op.diag == 0, limit > 0) and op.offdiag == 0

    def test_ground_weight_monotone_in_temperature(self):
        inst = toy_instance()
        gs = ground_set(inst)
        temps = np.geomspace(1e-2, 1e3, 10)
        weights = [
            sum(gibbs_distribution(inst, float(t)).probabilities[s] for s in gs.states)
            for t in temps
        ]
        assert all(a >= b - 1e-15 for a, b in zip(weights, weights[1:]))


def test_toy_edge_signs():
    inst = toy_instance()
    signs = sorted(inst.couplings.values())
    assert signs == [-1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]


def test_toy_reconstruction_oracle():
    """Exhaustive check: over all +-1/0 couplings on 5 spins (h = 0), only
    the built-in edge set and its spin-relabeled twin reproduce the six
    known minima at energy -4."""
    pairs = list(itertools.combinations(range(1, 6), 2))
    target = set(toy_ground_states())
    s = np.where((np.arange(32)[:, None] >> np.arange(5)) & 1, 1.0, -1.0)
    prods = np.stack([s[:, i - 1] * s[:, j - 1] for (i, j) in pairs], axis=1)
    assignments = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=len(pairs))))
    energies = -(assignments @ prods.T)  # (3^10, 32)
    hits = []
    for row, j in zip(energies, assignments):
        if row.min() != -4.0:
            continue
        if set(np.nonzero(row == -4.0)[0].tolist()) == target:
            hits.append(dict(zip(pairs, j)))
    assert len(hits) == 2
    built_in = toy_instance().couplings
    assert any(all(h[p] == built_in.get(p, 0.0) for p in pairs) for h in hits)


@st.composite
def instances(draw, max_n=8, zero_fields=False):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    couplings = {}
    for p in chosen:
        couplings[p] = draw(st.sampled_from([-2.0, -1.0, 1.0, 2.0]))
    if zero_fields:
        fields = (0.0,) * n
    else:
        fields = tuple(
            draw(st.sampled_from([-1.0, 0.0, 1.0])) for _ in range(n)
        )
    return IsingInstance(n=n, couplings=couplings, fields=fields)


@settings(max_examples=40, deadline=None)
@given(instances(zero_fields=True))
def test_flip_symmetry_of_energies(inst):
    e = energy_table(inst)
    flipped = np.array([e[flip_all(i, inst.n)] for i in range(inst.dim)])
    assert np.array_equal(e, flipped)


@settings(max_examples=40, deadline=None)
@given(instances())
def test_ground_set_is_the_exact_minimum(inst):
    e = energy_table(inst)
    assert ground_set(inst).states == tuple(np.nonzero(e == e.min())[0].tolist())


def test_ground_set_is_closed_under_a_spin_swap_at_every_scale():
    # J13 = J23 and h1 = h2 make swapping spins 1 and 2 a symmetry. Swapped
    # states sum the same terms in a different order, so their energies may
    # differ by rounding that grows with the scale of the instance.
    swap = [(i & 0b100) | (i & 1) << 1 | (i >> 1) & 1 for i in range(8)]
    rng = np.random.default_rng(0)
    for scale in 10.0 ** np.arange(10):
        for _ in range(200):
            j12, j13, h1, h3 = scale * rng.uniform(-1.0, 1.0, 4)
            inst = IsingInstance(n=3, couplings={(1, 2): j12, (1, 3): j13, (2, 3): j13},
                                 fields=(h1, h1, h3))
            states = set(ground_set(inst).states)
            assert {swap[s] for s in states} == states, (scale, inst)


def instance_text(inst):
    """The instance file for `inst`: n, the j lines, the nonzero h lines."""
    lines = [f"n {inst.n}"]
    lines += [f"j {i} {j} {v!r}" for (i, j), v in inst.couplings.items()]
    lines += [f"h {i} {h!r}" for i, h in enumerate(inst.fields, start=1) if h != 0]
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(instances())
def test_parse_render_round_trip(inst):
    assert parse_instance(instance_text(inst)) == inst


class TestParseErrors:
    def test_minimal_file(self):
        inst = parse_instance("n 2\nj 1 2 1.0\n")
        assert inst == IsingInstance(n=2, couplings={(1, 2): 1.0})

    def test_directives_are_case_insensitive(self):
        assert parse_instance("N 2\nJ 1 2 1") == IsingInstance(n=2, couplings={(1, 2): 1.0})

    def test_toy_round_trip(self):
        text = """# the built-in 5-spin benchmark
n 5
j 1 2 1
j 1 3 1
j 2 3 1
j 3 4 1
j 3 5 1
j 4 5 1
j 1 5 -1
j 2 4 -1
"""
        assert parse_instance(text) == toy_instance()

    @pytest.mark.parametrize(
        "text,lineno,what",
        [
            ("n 2\nj 1 1 1.0", 2, "self-coupling"),
            ("n 2\nj 1 3 1.0", 2, "out of range"),
            ("n 2\nj 1 2 1.0\nj 1 2 2.0", 3, "duplicate"),
            ("n 2\nh 3 1.0", 2, "out of range"),
            ("n 2\nh 1 1.0\nh 1 2.0", 3, "duplicate"),
            ("n 2\nn 3", 2, "duplicate n"),
            ("j 1 2 1.0", 1, "n must come before"),
            ("n 2\nq 1", 2, "unknown directive"),
            ("n 2\nj 1 2", 2, "expected"),
            ("n 2\nj 1 2 nan", 2, "non-finite coupling"),
            ("n 2\nh 1 inf", 2, "non-finite field"),
            ("n 2\nj 1 2 1e999", 2, "non-finite coupling"),
            ("n 0", 1, "spin count must be in"),
            ("n 21", 1, "spin count must be in"),
            ("n x", 1, "bad spin count"),
            ("n 2\nj 1 2 x", 2, "bad j line"),
            ("n 2\nj 1.5 2 1", 2, "bad j line"),
            ("n 2\nh x 1", 2, "bad h line"),
            ("n 2\nj 2 1 1.0", 2, "out of range"),
            ("n 2\nh 1 2 3", 2, "expected"),
        ],
    )
    def test_error_carries_line_number(self, text, lineno, what):
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(text)
        assert err.value.lineno == lineno
        assert what in str(err.value)

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\nn 2\n# inner\nj 1 2 -1.5\n\nh 2 0.25\n"
        inst = parse_instance(text)
        assert inst.couplings == {(1, 2): -1.5}
        assert inst.fields == (0.0, 0.25)

    def test_trailing_comments_ignored(self):
        text = "n 3   # spins\nj 1 2 1.0     # coupling J_ij\nh 2 -0.5#field\n#\n  # indented\n"
        inst = parse_instance(text)
        assert inst == IsingInstance(n=3, couplings={(1, 2): 1.0}, fields=(0.0, -0.5, 0.0))

    def test_missing_n(self):
        with pytest.raises(InstanceFormatError):
            parse_instance("# nothing\n")
