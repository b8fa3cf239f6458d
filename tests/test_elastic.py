import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwres import spectral
from qwres.elastic import (
    ClosedOrbit,
    Escaped,
    PermutationCoin,
    TrappingReport,
    build_orbit_eigenfunction,
    classify_trapping,
    qc_spectrum,
    random_permutation_coin,
    trace_trajectory,
)
from qwres.lattice import (
    DOWN,
    LEFT,
    RIGHT,
    UP,
    WalkOperator,
    WalkState,
    apply_walk,
    evolve,
)
from qwres.spectral import DeterminantFamily, KappaRect, locate_roots, winding_number

# The rectangular loop with corners (0,0), (2,0), (2,2), (0,2): each corner
# turns the circulating chirality by ninety degrees.
CORNER_PERMS = {
    (0, 0): (UP, LEFT, RIGHT, DOWN),
    (2, 0): (RIGHT, UP, LEFT, DOWN),
    (2, 2): (RIGHT, DOWN, UP, LEFT),
    (0, 2): (DOWN, LEFT, UP, RIGHT),
}


def corner_coin(phases=None):
    return PermutationCoin(2, CORNER_PERMS, phases)


def test_corner_trajectory_closes_with_period_eight():
    result = trace_trajectory(corner_coin(), (0, 0), LEFT)
    assert isinstance(result, ClosedOrbit)
    assert result.period == 8
    assert result.states[0] == ((0, 0), LEFT)
    assert len(set(result.states)) == 8
    assert set(result.sites()) == {
        (0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0), (1, 0),
    }


def test_trajectory_escapes_on_a_missing_ray():
    result = trace_trajectory(corner_coin(), (5, 5), LEFT)
    assert isinstance(result, Escaped)
    assert result.steps == 0


def test_incoming_ray_can_still_escape_through_the_box():
    # A right mover aimed at the origin corner is turned into a left mover
    # and walks straight back out.
    result = trace_trajectory(corner_coin(), (-7, 0), RIGHT)
    assert isinstance(result, Escaped)
    assert result.exit_state[1] == LEFT


def test_corner_quantization_without_phases():
    orbit = trace_trajectory(corner_coin(), (0, 0), LEFT)
    lams = qc_spectrum(orbit)
    np.testing.assert_allclose(lams, np.pi * np.arange(8) / 4.0, atol=1e-12)


def test_corner_quantization_shifts_with_phases():
    phases = {site: (0.3, -0.1, 0.7, 0.2) for site in CORNER_PERMS}
    coin = corner_coin(phases)
    orbit = trace_trajectory(coin, (0, 0), LEFT)
    lams = qc_spectrum(orbit)
    expected = np.sort((2 * np.pi * np.arange(8) - orbit.total_phase) / 8.0 % (2 * np.pi))
    np.testing.assert_allclose(lams, expected, atol=1e-12)
    assert orbit.total_phase != 0.0


def test_orbit_eigenfunctions_are_exact_eigenvectors():
    phases = {site: tuple(np.random.default_rng(4).uniform(0, 2 * np.pi, 4)) for site in CORNER_PERMS}
    coin = corner_coin(phases)
    op = WalkOperator(coin.to_coin_field())
    orbit = trace_trajectory(coin, (0, 0), LEFT)
    for lam in qc_spectrum(orbit):
        u = build_orbit_eigenfunction(orbit, lam)
        assert u.norm() == pytest.approx(np.sqrt(orbit.period), abs=1e-12)
        pushed = apply_walk(op, u)
        assert pushed.allclose(u.scaled(np.exp(-1j * lam)), tol=1e-12)


def test_eigenfunction_rejects_unquantized_phase():
    orbit = trace_trajectory(corner_coin(), (0, 0), LEFT)
    with pytest.raises(ValueError, match="quantization"):
        build_orbit_eigenfunction(orbit, 0.1)


def test_classify_trapping_finds_both_circulations():
    report = classify_trapping(corner_coin())
    assert not report.non_trapping
    assert len(report.orbits) == 2
    assert all(o.period == 8 for o in report.orbits)
    # Opposite circulations traverse the same loop sites.
    assert set(report.orbits[0].sites()) == set(report.orbits[1].sites())
    assert report.orbits[0].key() != report.orbits[1].key()
    assert len(report.spectrum()) == 16


def test_single_site_cannot_trap():
    for perm in [(1, 0, 2, 3), (3, 2, 1, 0), (1, 2, 3, 0)]:
        coin = PermutationCoin(1, {(0, 0): perm})
        report = classify_trapping(coin)
        assert report.non_trapping


def test_permutation_coin_validation():
    with pytest.raises(ValueError, match="not a permutation"):
        PermutationCoin(1, {(0, 0): (0, 0, 1, 2)})
    with pytest.raises(ValueError, match="outside box"):
        PermutationCoin(1, {(3, 0): (0, 1, 2, 3)})
    with pytest.raises(ValueError, match="without a permutation"):
        PermutationCoin(1, {(0, 0): (0, 1, 2, 3)}, {(1, 0): (0, 0, 0, 0)})


def test_closed_orbit_matches_evolution():
    coin = corner_coin({site: (0.2, 0.4, 0.1, -0.3) for site in CORNER_PERMS})
    op = WalkOperator(coin.to_coin_field())
    orbit = trace_trajectory(coin, (0, 0), LEFT)
    u = WalkState.delta(*orbit.states[0])
    for t in (1, 3, 8, 19, 200):
        v = evolve(op, u, t)
        q, p = orbit.states[t % orbit.period]
        assert v.support() == {q}
        assert abs(v.component(q, p)) == pytest.approx(1.0, abs=1e-12)


def test_escaping_start_leaves_the_box_under_evolution():
    coin = corner_coin()
    op = WalkOperator(coin.to_coin_field())
    u = WalkState.delta((-7, 0), RIGHT)
    v = evolve(op, u, 60)
    site = next(iter(v.support()))
    assert max(abs(site[0]), abs(site[1])) > 40


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    x=st.integers(-3, 3),
    y=st.integers(-3, 3),
    j=st.integers(0, 3),
)
def test_traced_orbits_are_simple_cycles(seed, x, y, j):
    coin = random_permutation_coin(2, seed=seed)
    result = trace_trajectory(coin, (x, y), j)
    if isinstance(result, ClosedOrbit):
        assert result.states[0] == ((x, y), j)
        assert len(set(result.states)) == result.period
        lam = float(qc_spectrum(result)[0])
        u = build_orbit_eigenfunction(result, lam)
        op = WalkOperator(coin.to_coin_field())
        assert apply_walk(op, u).allclose(u.scaled(np.exp(-1j * lam)), tol=1e-11)
    else:
        assert isinstance(result, Escaped)


@pytest.mark.parametrize("seed", [1, 6, 14])
def test_quantized_spectra_are_determinant_roots(seed):
    coin = random_permutation_coin(1, seed=seed)
    report = classify_trapping(coin)
    field = coin.to_coin_field()
    fam = DeterminantFamily(field)
    spectrum = report.spectrum()
    # Collapse numerically equal eigenphases across orbits into one root of
    # higher multiplicity (mind the wraparound at 2 pi).
    grouped = []
    for lam in spectrum:
        if grouped and min(
            abs(lam - grouped[-1][0]), 2 * np.pi - abs(lam - grouped[-1][0])
        ) < 1e-9:
            grouped[-1][1] += 1
        else:
            grouped.append([float(lam), 1])
    if len(grouped) > 1 and 2 * np.pi - abs(grouped[-1][0] - grouped[0][0]) < 1e-9:
        grouped[0][1] += grouped.pop()[1]
    total = 0
    for lam, mult in grouped:
        assert fam.abs_det(complex(lam, 0.0)) < 1e-8
        local = winding_number(field, KappaRect.around(complex(lam, 0.0), 1e-3))
        assert local == mult
        total += mult
    if total:
        strip = winding_number(field, KappaRect(
            grouped[0][0] - 1e-3, grouped[0][0] - 1e-3 + 2 * np.pi, -1.0, 1e-6
        ))
        assert strip == total


def test_box_walk_blocks_are_the_closed_orbits():
    # The diagonal blocks of the box walk (the strong components of its
    # pattern) are the closed orbits, one block per orbit of its period; a
    # pattern with no cycle is a field that does not trap.
    for seed in range(60):
        coin = random_permutation_coin(2, seed)
        report = classify_trapping(coin)
        blocks = spectral._diagonal_blocks(spectral._box_walk(coin.to_coin_field()))
        sizes = sorted(stack.shape[1] for stack in blocks for _ in stack)
        assert sizes == sorted(orbit.period for orbit in report.orbits), seed
        assert (not blocks) == report.non_trapping, seed


@pytest.mark.parametrize("seed,count", [(0, 6), (1, 22), (2, 8), (3, 6), (4, 16), (5, 12), (6, 14),
                                        (7, 14)])
def test_full_strips_hold_the_orbit_spectrum(seed, count):
    # Every zero of D is an orbit eigenphase on the axis, one per orbit
    # state.  The windings run on the box walk's blocks, the orbits
    # themselves: on M's blocks of up to 70 indices (log D)' deep in the
    # strip is rounding noise, and the contour levels of seeds 0 and 1 grow
    # past _LEVEL_CAP.
    coin = random_permutation_coin(2, seed)
    assert sum(orbit.period for orbit in classify_trapping(coin).orbits) == count
    roots = locate_roots(coin.to_coin_field())
    assert sum(root.multiplicity for root in roots) == count
    assert all(root.kind == "eigenvalue" for root in roots)


def test_non_trapping_field_has_no_spectrum_in_the_strip():
    coin = PermutationCoin(1, {(0, 0): (1, 0, 3, 2)})
    report = classify_trapping(coin)
    assert report.non_trapping
    field = coin.to_coin_field()
    assert winding_number(field, KappaRect(-0.01, 2 * np.pi - 0.01, -1.0, 1e-6)) == 0
