"""Tests for non-penetrable walls and their interior spectral toolkit."""

import numpy as np
import pytest

import qwres
from qwres.barrier import (
    BarrierSpec,
    ContourLoop,
    TRIVIAL_WALL_COIN,
    build_nonpenetrable,
    exterior_escape_check,
    green_apply,
    interior_pairs,
    interior_spectrum,
    norm_on_loop,
    pinned_rows,
    wall_sites,
)
from qwres.lattice import (
    CHIRALITIES,
    DOWN,
    LEFT,
    RIGHT,
    UP,
    WalkState,
    random_unitary_coin,
)
from qwres.spectral import (
    KappaRect,
    NumericalFailure,
    default_strip,
    resolvent_apply,
    winding_number,
)
from qwres.translation import translation_weight

TWO_PI = 2.0 * np.pi


def corner_rotation_coin(phi: float) -> np.ndarray:
    """Top-right corner coin with a rotation in its free 2 by 2 block.

    The two pinned rows (right mover and up mover bounce straight back)
    stay exact; the block feeding the interior from the interior rotates
    by phi, so phi = pi/2 recovers the plain mirror.
    """
    c, s = np.cos(phi), np.sin(phi)
    m = np.zeros((4, 4), dtype=complex)
    m[:, LEFT] = [0, 1, 0, 0]
    m[:, DOWN] = [0, 0, 0, 1]
    m[LEFT, RIGHT] = c
    m[DOWN, RIGHT] = s
    m[LEFT, UP] = -s
    m[DOWN, UP] = c
    return m


def phase_histogram(phases, targets, tol=1e-10):
    counts = []
    for t in targets:
        gap = np.abs((phases - t + np.pi) % TWO_PI - np.pi)
        counts.append(int(np.sum(gap <= tol)))
    return counts


def test_interior_edge_count_and_membership():
    for m0 in (1, 2, 3):
        pairs = interior_pairs(m0)
        assert len(pairs) == 8 * m0 * (2 * m0 + 1)
        assert len(set(pairs)) == len(pairs)
        from qwres.lattice import STEPS

        for (x1, x2), j in pairs:
            assert max(abs(x1), abs(x2)) <= m0
            dx, dy = STEPS[j]
            assert max(abs(x1 - dx), abs(x2 - dy)) <= m0


def test_wall_sites_and_pins():
    sites = wall_sites(1)
    assert len(sites) == 8
    assert pinned_rows((-1, 0), 1) == ((LEFT, RIGHT),)
    assert pinned_rows((1, 1), 1) == ((RIGHT, LEFT), (UP, DOWN))
    assert pinned_rows((0, -1), 1) == ((DOWN, UP),)


def test_trivial_wall_interior_spectrum():
    iu = interior_spectrum(1)
    assert iu.dimension == 24
    assert np.max(np.abs(np.abs(iu.eigenvalues) - 1.0)) <= 1e-10
    targets = [0.0, np.pi / 2, np.pi, 3 * np.pi / 2]
    assert phase_histogram(iu.eigenphases, targets) == [10, 2, 10, 2]
    assert sum(phase_histogram(iu.eigenphases, targets)) == 24
    gram = iu.vectors.conj().T @ iu.vectors
    assert np.max(np.abs(gram - np.eye(24))) <= 1e-10


def test_wall_pin_violation_rejected():
    with pytest.raises(ValueError, match="mirror pin"):
        build_nonpenetrable(BarrierSpec(1, wall_coins={(-1, 0): np.eye(4, dtype=complex)}))


def test_coin_placement_validation():
    with pytest.raises(ValueError, match="not a wall site"):
        build_nonpenetrable(BarrierSpec(1, wall_coins={(0, 0): TRIVIAL_WALL_COIN}))
    with pytest.raises(ValueError, match="not strictly inside"):
        build_nonpenetrable(BarrierSpec(1, interior_coins={(1, 0): np.eye(4, dtype=complex)}))
    with pytest.raises(ValueError):
        build_nonpenetrable(BarrierSpec(0))


def test_custom_corner_block_stays_sealed():
    coin = corner_rotation_coin(0.3)
    iu = interior_spectrum(1, {(1, 1): coin})
    assert iu.dimension == 24
    trivial = interior_spectrum(1)
    assert np.max(np.abs(iu.eigenphases - trivial.eigenphases)) > 1e-6
    assert exterior_escape_check(iu.walk) == 4 * 7 * 7 - 24


def test_random_interior_coins_stay_sealed():
    coins = {
        (0, 0): random_unitary_coin(11),
        (1, -1): random_unitary_coin(12),
        (-1, 1): random_unitary_coin(13),
    }
    iu = interior_spectrum(2, coins)
    assert iu.dimension == 80
    assert np.max(np.abs(np.abs(iu.eigenvalues) - 1.0)) <= 1e-10
    assert exterior_escape_check(iu.walk) == 4 * 9 * 9 - 80


def test_spectrum_routing_validation():
    walk = build_nonpenetrable(BarrierSpec(1))
    with pytest.raises(ValueError, match="already built"):
        interior_spectrum(walk, {(0, 0): np.eye(4, dtype=complex)})


def _random_kappa(rng) -> complex:
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return rng.uniform(0, TWO_PI) + 1j * sign * rng.uniform(0.1, 0.5)


@pytest.mark.parametrize(
    "m0,coins",
    [
        (1, None),
        (2, {(0, 0): random_unitary_coin(21), (1, 1): random_unitary_coin(22)}),
    ],
)
def test_green_apply_matches_dense_solve(m0, coins):
    iu = interior_spectrum(m0, coins)
    walk = iu.walk
    n = iu.dimension
    rng = np.random.default_rng(500 + m0)
    eye = np.eye(n)
    for _ in range(10):
        kappa = _random_kappa(rng)
        vec = rng.normal(size=n) + 1j * rng.normal(size=n)
        f = walk.vector_to_state(vec)
        got = walk.state_to_vector(green_apply(iu, kappa, f))
        want = np.linalg.solve(iu.matrix - np.exp(-1j * kappa) * eye, vec)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_green_apply_theta_variant():
    iu = interior_spectrum(1, {(1, 1): corner_rotation_coin(0.7)})
    walk = iu.walk
    n = iu.dimension
    rng = np.random.default_rng(77)
    theta = 0.3 - 0.2j
    weights = np.array([translation_weight(theta, q, j) for q, j in walk.pairs])
    translated = (weights[:, None] * iu.matrix) * (1.0 / weights)[None, :]
    eye = np.eye(n)
    for _ in range(10):
        kappa = _random_kappa(rng)
        vec = rng.normal(size=n) + 1j * rng.normal(size=n)
        f = walk.vector_to_state(vec)
        got = walk.state_to_vector(green_apply(iu, kappa, f, theta=theta))
        want = np.linalg.solve(translated - np.exp(-1j * kappa) * eye, vec)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_green_apply_matches_the_box_resolvent():
    # Two engines: the interior eigendecomposition and the walk compressed to
    # the box of the sealed barrier.  The interior edges are invariant, so
    # the open-walk resolvent of a state on them is the interior one.
    iu = interior_spectrum(1)
    walk = iu.walk
    rng = np.random.default_rng(91)
    f = walk.vector_to_state(rng.normal(size=iu.dimension) + 1j * rng.normal(size=iu.dimension))
    for kappa in (0.3 + 0.4j, 1.1 - 0.5j, 2.0 - 0.05j):
        want = green_apply(iu, kappa, f)
        assert resolvent_apply(walk.coin, kappa, f, 1).allclose(want, tol=1e-12)


def test_green_apply_on_eigenvalue_raises():
    iu = interior_spectrum(1)
    f = WalkState.delta((0, 0), LEFT)
    with pytest.raises(NumericalFailure, match="interior eigenvalue"):
        green_apply(iu, 0.0, f)


def test_green_apply_rejects_exterior_support():
    iu = interior_spectrum(1)
    f = WalkState.delta((1, 0), LEFT)
    with pytest.raises(ValueError, match="outside the interior"):
        green_apply(iu, 0.5 - 0.3j, f)


def test_norm_on_loop_halving_ratio():
    iu = interior_spectrum(1)
    s = 0.5
    norms = [norm_on_loop(iu, np.pi / 2, eps, s) for eps in (0.16, 0.08, 0.04, 0.02)]
    for a, b in zip(norms, norms[1:]):
        ratio = b / a
        assert 2**s / 2 <= ratio <= 2**s * 2
    assert norms[0] > 1.0


def test_norm_on_loop_rejects_second_eigenphase():
    iu = interior_spectrum(1)
    with pytest.raises(NumericalFailure, match="another eigenphase"):
        norm_on_loop(iu, np.pi / 2, 4.0, 1.0)


def test_contour_loop_validation():
    with pytest.raises(ValueError):
        ContourLoop.for_scale(0.0, -1.0)
    with pytest.raises(ValueError):
        ContourLoop.for_scale(0.0, 0.1, s=0.0)
    loop = ContourLoop.for_scale(1.0, 0.04, 0.5)
    assert loop.width / 2 == pytest.approx(0.2)
    pts = loop.boundary_points(64)
    assert len(pts) >= 64
    assert loop.contains(1.0 + 0.1j)
    assert not loop.contains(1.0 + 0.3j)


def test_contour_loop_is_the_scaled_kappa_rect():
    loop = qwres.ContourLoop.for_scale(1.0, 0.04, 0.5, a=0.5)
    rect = KappaRect.for_scale(1.0, 0.04, 0.5, a=0.5)
    assert loop == rect
    np.testing.assert_array_equal(loop.boundary_points(64), rect.boundary_points(64))
    r = 0.04**0.5
    corners = (complex(1.0 - 0.5 * r, -r), complex(1.0 + 0.5 * r, -r),
               complex(1.0 + 0.5 * r, r), complex(1.0 - 0.5 * r, r))
    assert loop.corners() == corners
    pts = loop.boundary_points(64)
    assert len(pts) == 64
    assert tuple(pts[::16]) == corners


def test_exterior_escape_trivial_wall():
    walk = build_nonpenetrable(BarrierSpec(1))
    assert exterior_escape_check(walk) == 4 * 7 * 7 - 24


def test_strip_winding_counts_interior_spectrum():
    walk = build_nonpenetrable(BarrierSpec(1))
    assert winding_number(walk.coin, default_strip()) == 24


def test_local_winding_matches_multiplicity():
    from qwres.spectral import KappaRect

    walk = build_nonpenetrable(BarrierSpec(1))
    rect = KappaRect.around(np.pi / 2 + 0j, 0.3)
    assert winding_number(walk.coin, rect) == 2
