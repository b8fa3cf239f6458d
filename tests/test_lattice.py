import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwres.lattice import (
    CHIRALITIES,
    DOWN,
    LEFT,
    RIGHT,
    STEPS,
    UP,
    CoinField,
    WalkOperator,
    WalkState,
    apply_walk,
    box_edges,
    coin_field_from_json,
    coin_field_to_json,
    compress_walk,
    evolve,
    random_coin_field,
    random_unitary_coin,
    ray_meets_box,
    unitarity_residual,
)
from qwres.barrier import BarrierSpec, build_nonpenetrable


def basis_column_coin(columns):
    """4x4 matrix whose j-th column is the given basis vector index."""
    m = np.zeros((4, 4), dtype=complex)
    for j, target in enumerate(columns):
        m[target, j] = 1.0
    return m


def corner_coins(m0, n0):
    """Permutation coins routing a rectangular loop with corners at
    (0,0), (m0,0), (m0,n0), (0,n0)."""
    return {
        (0, 0): basis_column_coin([UP, LEFT, RIGHT, DOWN]),
        (m0, 0): basis_column_coin([RIGHT, UP, LEFT, DOWN]),
        (m0, n0): basis_column_coin([RIGHT, DOWN, UP, LEFT]),
        (0, n0): basis_column_coin([DOWN, LEFT, UP, RIGHT]),
    }


FREE = WalkOperator(CoinField(0, {}))


def test_free_step_moves_each_chirality_one_unit():
    for j, (dx, dy) in zip((LEFT, RIGHT, DOWN, UP), STEPS):
        u = WalkState.delta((0, 0), j)
        v = apply_walk(FREE, u)
        assert v.support() == {(dx, dy)}
        assert v.component((dx, dy), j) == pytest.approx(1.0)


def test_corner_coin_turns_left_mover_upward():
    coin = CoinField(2, corner_coins(2, 2))
    op = WalkOperator(coin)
    u = WalkState.delta((0, 0), LEFT)
    v = apply_walk(op, u)
    assert v.support() == {(0, 1)}
    assert v.component((0, 1), UP) == pytest.approx(1.0)


def test_corner_loop_closes_with_unit_amplitude():
    m0, n0 = 2, 2
    op = WalkOperator(CoinField(2, corner_coins(m0, n0)))
    u = WalkState.delta((0, 0), LEFT)
    period = 2 * (m0 + n0)
    v = u
    for _ in range(period):
        v = apply_walk(op, v)
    assert v.support() == {(0, 0)}
    assert v.component((0, 0), LEFT) == pytest.approx(1.0)
    # No earlier return: the loop visits eight distinct sites.
    w = u
    seen = []
    for _ in range(period):
        w = apply_walk(op, w)
        seen.append(next(iter(w.support())))
    assert len(set(seen)) == period


def test_free_flight_is_exact_translation():
    u = WalkState.delta((3, -2), RIGHT)
    v = evolve(FREE, u, 50)
    assert v.support() == {(53, -2)}
    assert v.component((53, -2), RIGHT) == pytest.approx(1.0)


def test_walk_preserves_norm():
    coin = random_coin_field(2, seed=7)
    op = WalkOperator(coin)
    rng = np.random.default_rng(11)
    amp = {}
    for _ in range(6):
        site = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        amp[site] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    u = WalkState(amp)
    v = evolve(op, u, 137)
    assert v.norm() == pytest.approx(u.norm(), abs=1e-12)


def test_evolve_matches_repeated_single_steps():
    coin = random_coin_field(1, seed=3)
    op = WalkOperator(coin)
    u = WalkState.delta((0, 0), DOWN).plus(WalkState.delta((5, 5), LEFT))
    stepped = u
    for _ in range(9):
        stepped = apply_walk(op, stepped)
    assert evolve(op, u, 9).allclose(stepped, tol=1e-12)


def test_evolve_takes_an_integral_float_step_count():
    op = WalkOperator(random_coin_field(1, seed=3))
    u = WalkState.delta((0, 0), DOWN)
    assert evolve(op, u, 3.0).allclose(evolve(op, u, 3), tol=0.0)
    with pytest.raises(ValueError, match="nonnegative integer"):
        evolve(op, u, 2.5)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    t=st.integers(0, 12),
    sites=st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(0, 3)),
        min_size=1,
        max_size=5,
        unique=True,
    ),
)
def test_evolve_equals_power_of_apply_walk(seed, t, sites):
    coin = random_coin_field(2, seed=seed)
    op = WalkOperator(coin)
    u = WalkState({})
    for x, y, j in sites:
        u = u.plus(WalkState.delta((x, y), j, value=1.0 + 0.5j))
    stepped = u
    for _ in range(t):
        stepped = apply_walk(op, stepped)
    fast = evolve(op, u, t)
    assert fast.allclose(stepped, tol=1e-10)
    assert fast.norm() == pytest.approx(u.norm(), abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_unitary_coin_is_unitary_and_deterministic(seed):
    m = random_unitary_coin(seed)
    assert m.shape == (4, 4)
    assert unitarity_residual(m) < 1e-12
    again = random_unitary_coin(seed)
    np.testing.assert_array_equal(m, again)


def test_random_unitary_coin_varies_with_seed():
    assert not np.allclose(random_unitary_coin(0), random_unitary_coin(1))


def test_coin_field_rejects_non_unitary():
    bad = np.eye(4, dtype=complex)
    bad[0, 0] = 1.0 + 1e-6
    with pytest.raises(ValueError, match="not unitary"):
        CoinField(1, {(0, 0): bad})


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
def test_coin_field_rejects_non_finite_entries(value):
    bad = np.eye(4, dtype=complex)
    bad[2, 1] = value
    with pytest.raises(ValueError, match="not unitary"):
        CoinField(1, {(0, 0): bad})


def test_coin_field_rejects_site_outside_box():
    with pytest.raises(ValueError, match="outside box"):
        CoinField(1, {(2, 0): np.eye(4)})


def test_coin_json_round_trip():
    coin = random_coin_field(1, seed=42)
    doc = coin_field_to_json(coin)
    back = coin_field_from_json(doc)
    assert back.box_radius == coin.box_radius
    for site in coin.override_sites():
        np.testing.assert_allclose(back.coin_at(site), coin.coin_at(site), atol=1e-15)


def test_coin_json_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown keys"):
        coin_field_from_json({"M0": 1, "coins": [], "extra": 1})


IDENTITY_CELLS = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]


@pytest.mark.parametrize("doc, names", [
    ({"M0": 1, "coins": 5}, "'coins'"),
    ({"M0": 2.9, "coins": []}, "'M0'"),
    ({"M0": True, "coins": []}, "'M0'"),
    ({"M0": "2", "coins": []}, "'M0'"),
    ({"M0": 1, "coins": [{"x": [0.7, 0], "m": IDENTITY_CELLS}]}, r"\[0\.7, 0\]"),
    ({"M0": 1, "coins": [{"x": [0, 0, 5], "m": IDENTITY_CELLS}]}, r"\[0, 0, 5\]"),
    ({"M0": 1, "coins": [{"x": [1, 0], "m": IDENTITY_CELLS},
                         {"x": [1, 0], "m": IDENTITY_CELLS}]}, r"\[1, 0\] is listed twice"),
], ids=["coins-not-a-list", "M0-float", "M0-bool", "M0-string", "site-float", "site-triple",
        "site-repeated"])
def test_coin_json_rejects_each_malformed_entry(doc, names):
    with pytest.raises(ValueError, match=names):
        coin_field_from_json(doc)


def test_inner_product_is_linear_in_first_argument():
    rng = np.random.default_rng(5)
    u = WalkState({(0, 0): rng.standard_normal(4) + 1j * rng.standard_normal(4)})
    v = WalkState({(0, 0): rng.standard_normal(4) + 1j * rng.standard_normal(4)})
    w = WalkState({(1, 2): rng.standard_normal(4) + 1j * rng.standard_normal(4)})
    lhs = u.scaled(2.0 + 1j).plus(w).inner(v)
    rhs = (2.0 + 1j) * u.inner(v) + w.inner(v)
    assert lhs == pytest.approx(rhs)
    assert u.inner(v) == pytest.approx(np.conj(v.inner(u)))


def test_evolve_banks_amplitude_entering_from_outside():
    # A right mover far to the left crosses the coin box and scatters.
    coin = random_coin_field(1, seed=9)
    op = WalkOperator(coin)
    u = WalkState.delta((-40, 0), RIGHT)
    t = 60
    stepped = u
    for _ in range(t):
        stepped = apply_walk(op, stepped)
    assert evolve(op, u, t).allclose(stepped, tol=1e-10)


# A start outside the window: (chirality, offset across the ray, distance
# beyond the window, heading toward the box or away from it).
OUTSIDE_START = st.tuples(st.integers(0, 3), st.integers(-4, 4), st.integers(1, 25), st.booleans())


@settings(max_examples=60, deadline=None)
@given(
    m0=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.2, 0.9),
    t=st.integers(0, 80),
    inside=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 3)),
                    max_size=3),
    outside=st.lists(OUTSIDE_START, max_size=4),
)
def test_evolve_matches_apply_walk_with_amplitude_from_outside(m0, seed, density, t, inside,
                                                                outside):
    op = WalkOperator(random_coin_field(m0, seed=seed, density=density))
    r = m0 + 1
    u = WalkState({})
    for x, y, j in inside:
        u = u.plus(WalkState.delta((x, y), j, value=0.6 - 0.8j))
    for j, across, beyond, toward in outside:
        (dx, dy), sign = STEPS[j], -1 if toward else 1
        site = (sign * dx * (r + beyond) + dy * across, sign * dy * (r + beyond) + dx * across)
        assert ray_meets_box(site, j, m0) == (toward and abs(across) <= m0)
        u = u.plus(WalkState.delta(site, j, value=0.3 + 0.4j))
    stepped = u
    for _ in range(t):
        stepped = apply_walk(op, stepped)
    fast = evolve(op, u, t)
    assert fast.support() == stepped.support()
    assert fast.allclose(stepped, tol=1e-12)
    assert all(np.any(vec != 0) for _, vec in fast.items())


@pytest.mark.parametrize("t", [1, 7, 60])
def test_evolve_keeps_an_empty_state_empty(t):
    assert len(evolve(WalkOperator(random_coin_field(2, seed=4, density=0.5)), WalkState({}), t)) == 0


def test_evolve_rejects_a_site_beyond_64_bits():
    op = WalkOperator(random_coin_field(1, seed=2))
    assert evolve(op, WalkState.delta((2**62, 0), LEFT), 3).support() == {(2**62 - 3, 0)}
    with pytest.raises(ValueError, match="64-bit"):
        evolve(op, WalkState.delta((2**64, 0), LEFT), 3)


def _compressed_by_definition(op, pairs):
    """Column c: one walk step on the delta on pairs[c], read off on the pairs."""
    index = {pair: i for i, pair in enumerate(pairs)}
    matrix = np.zeros((len(pairs), len(pairs)), dtype=complex)
    leak = 0.0
    for col, (site, j) in enumerate(pairs):
        for target, amp in apply_walk(op, WalkState.delta(site, j)).items():
            for k in CHIRALITIES:
                row = index.get((target, k))
                if row is None:
                    leak = max(leak, abs(amp[k]))
                else:
                    matrix[row, col] = amp[k]
    return matrix, leak


@pytest.mark.parametrize("m0, seed, density, probes", [
    (1, 0, 1.0, []),
    (1, 5, 0.6, [(3, -2)]),
    (2, 1, 0.5, [(-4, 0), (1, 3)]),
    (2, 8, 0.8, []),
])
def test_compress_walk_matches_its_definition_on_random_fields(m0, seed, density, probes):
    coin = random_coin_field(m0, seed=seed, density=density)
    pairs = box_edges(list(coin.override_sites()) + probes)
    matrix, leak = compress_walk(coin, pairs)
    reference, reference_leak = _compressed_by_definition(WalkOperator(coin), pairs)
    np.testing.assert_array_equal(matrix, reference)
    assert leak == reference_leak > 0


@pytest.mark.parametrize("m0", [1, 2])
def test_compress_walk_matches_its_definition_on_the_sealed_barrier(m0):
    walk = build_nonpenetrable(BarrierSpec(m0))
    matrix, leak = compress_walk(walk.operator, walk.pairs)
    reference, reference_leak = _compressed_by_definition(walk.operator, walk.pairs)
    np.testing.assert_array_equal(matrix, reference)
    assert leak == reference_leak == 0


@pytest.mark.parametrize("cell", [[1.0, 0.0, 7.0], [True, 0], [1.0]],
                         ids=["three-numbers", "bool", "one-number"])
def test_coin_json_rejects_a_malformed_cell(cell):
    cells = [row[:] for row in IDENTITY_CELLS]
    cells[0][0] = cell
    with pytest.raises(ValueError, match=r"coin entry .*'x': \[0, 0\].*not a pair of numbers"):
        coin_field_from_json({"M0": 1, "coins": [{"x": [0, 0], "m": cells}]})
