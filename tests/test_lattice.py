import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwres import lattice
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


def _state_bytes(u):
    return [(site, vec.tobytes()) for site, vec in u.items()]


@pytest.mark.parametrize("t", [1, 5, 6, 7, 40])
def test_evolve_result_does_not_depend_on_the_bank_block(monkeypatch, t):
    # Blocks of 6 steps: t = 6 fills one exactly, and 40 ends mid-block.
    op = WalkOperator(random_coin_field(1, seed=11))
    u = WalkState.delta((0, 0), UP).plus(WalkState.delta((-9, 1), RIGHT, 0.5j))
    whole = evolve(op, u, t)
    monkeypatch.setattr(lattice, "_BANK_ROWS", 6)
    assert _state_bytes(evolve(op, u, t)) == _state_bytes(whole)


def _norm_by_site(u):
    total = 0.0
    for _, vec in u.items():
        total += float(np.sum(np.abs(vec) ** 2))
    return float(np.sqrt(total))


@pytest.mark.parametrize("seed", range(20))
def test_norm_equals_the_loop_over_sites_to_the_last_bit(monkeypatch, seed):
    if seed % 2:
        monkeypatch.setattr(lattice, "_NORM_CHUNK", 7)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    scale = 10.0 ** rng.uniform(-30, 30, size=(n, 1))
    u = WalkState({(int(i), int(rng.integers(-5, 5))): scale[i] * (rng.standard_normal(4)
                   + 1j * rng.standard_normal(4)) for i in range(n)})
    assert u.norm() == _norm_by_site(u)
    op = WalkOperator(random_coin_field(1, seed=seed))
    evolved = evolve(op, u, 300)
    assert evolved.norm() == _norm_by_site(evolved)
    assert WalkState().norm() == 0.0


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


# The dict-based evolve and WalkState operations that the array-backed ones
# replaced, kept as references: a state is a dict from site to vector.  The
# reference evolve banks every step's exits in one (t, 4n) array, which the
# bank blocks do not change.

def _reference_evolve(coin, u, t):
    if t == 0:
        return {s: v.copy() for s, v in u.items()}
    m0 = coin.box_radius
    r = m0 + 1
    n = 2 * r + 1

    active = np.zeros((n, n, 4), dtype=complex)
    movers, banked = {}, []
    for site, vec in u.items():
        x, y = site
        if max(abs(x), abs(y)) <= r:
            active[x + r, y + r] += vec
            continue
        for j in CHIRALITIES:
            a = vec[j]
            if a == 0:
                continue
            if not ray_meets_box(site, j, m0):
                banked.append((x, y, j, a))
            else:
                movers[(site, j)] = movers.get((site, j), 0.0) + a

    coins = np.empty((n, n, 4, 4), dtype=complex)
    for ix in range(n):
        for iy in range(n):
            coins[ix, iy] = coin.coin_at((ix - r, iy - r))

    steps = np.array(STEPS)
    wx, wy, wj = np.indices((n, n, 4)).reshape(3, -1)
    to_x, to_y = wx + steps[wj, 0], wy + steps[wj, 1]
    inside = (0 <= to_x) & (to_x < n) & (0 <= to_y) & (to_y < n)
    src = np.flatnonzero(inside)
    dst = (to_x[src] * n + to_y[src]) * 4 + wj[src]
    exit_idx = np.flatnonzero(~inside)
    exit_idx = exit_idx[np.argsort(wj[exit_idx], kind="stable")]

    width = exit_idx.size
    exits = np.empty((t, width), dtype=complex)
    for step in range(t):
        mixed = np.einsum("xyjk,xyk->xyj", coins, active).ravel()
        mixed.take(exit_idx, out=exits[step])
        new = np.zeros(n * n * 4, dtype=complex)
        new[dst] = mixed[src]
        new = new.reshape(n, n, 4)
        advanced = {}
        for ((x, y), j), a in movers.items():
            nx, ny = x + STEPS[j][0], y + STEPS[j][1]
            if max(abs(nx), abs(ny)) <= r:
                new[nx + r, ny + r, j] += a
            else:
                advanced[((nx, ny), j)] = a
        movers = advanced
        active = new

    flat = np.flatnonzero(exits)
    step_row, col = np.divmod(flat, width)
    lead = [(x, y, j, a) for ((x, y), j), a in movers.items()]
    lead += [(x + STEPS[j][0] * t, y + STEPS[j][1] * t, j, a) for x, y, j, a in banked]
    lead_x, lead_y, lead_j, lead_a = np.array(lead, dtype=object).reshape(-1, 4).T
    leave = exit_idx[col]
    flight = t - 1 - step_row
    chir = np.concatenate([lead_j.astype(np.intp), wj[leave]])
    amps = np.concatenate([lead_a.astype(complex), exits.ravel()[flat]])
    ax, ay = np.nonzero(np.any(active != 0, axis=2))
    site_x = np.concatenate([ax - r, lead_x.astype(np.int64),
                             to_x[leave] - r + steps[wj[leave], 0] * flight])
    site_y = np.concatenate([ay - r, lead_y.astype(np.int64),
                             to_y[leave] - r + steps[wj[leave], 1] * flight])

    first, slot = lattice._first_appearances(site_x, site_y)
    amp = np.zeros((first.size, 4), dtype=complex)
    amp[: ax.size] = active[ax, ay]
    np.add.at(amp, (slot[ax.size :], chir), amps)
    keep = np.any(amp != 0, axis=1)
    sites = zip(site_x[first[keep]].tolist(), site_y[first[keep]].tolist())
    return dict(zip(sites, itertools.compress(amp, keep)))


def _reference_plus(u, v):
    amp = {s: a.copy() for s, a in u.items()}
    for site, vec in v.items():
        amp[site] = amp[site] + vec if site in amp else vec.copy()
    return {s: a for s, a in amp.items() if np.any(a != 0)}


def _reference_scaled(u, factor):
    return {s: a for s, a in ((s, factor * a) for s, a in u.items()) if np.any(a != 0)}


def _reference_inner(u, v):
    if len(v) < len(u):
        return np.conj(_reference_inner(v, u))
    total = 0.0j
    for site, vec in u.items():
        if site in v:
            total += complex(np.dot(vec, v[site].conj()))
    return total


def _bits(z):
    return np.complex128(z).tobytes()


# t = None draws t from 0 to 120.
@pytest.mark.parametrize("t", [0, 1, lattice._BANK_ROWS - 1, lattice._BANK_ROWS,
                               lattice._BANK_ROWS + 1, None])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    m0=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.2, 0.9),
    drawn_t=st.integers(0, 120),
    inside=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=3),
    outside=st.lists(OUTSIDE_START, max_size=4),
)
def test_evolve_equals_the_dict_reference_to_the_bit(t, m0, seed, density, drawn_t, inside,
                                                    outside):
    t = drawn_t if t is None else t
    coin = random_coin_field(m0, seed=seed, density=density)
    rng = np.random.default_rng(seed)
    r = m0 + 1
    amp = {site: rng.standard_normal(4) + 1j * rng.standard_normal(4) for site in inside}
    for j, across, beyond, toward in outside:
        (dx, dy), sign = STEPS[j], -1 if toward else 1
        site = (sign * dx * (r + beyond) + dy * across, sign * dy * (r + beyond) + dx * across)
        vec = np.zeros(4, dtype=complex)
        vec[j] = complex(*rng.standard_normal(2))
        amp[site] = amp.get(site, 0) + vec
    u = WalkState(amp)
    assert _state_bytes(evolve(WalkOperator(coin), u, t)) == _state_bytes(
        _reference_evolve(coin, dict(u.items()), t))


def test_evolve_equals_the_dict_reference_on_criterion_04_field_3():
    # Criterion 04's first field and state: 10^4 steps, 93,705 sites.  From
    # step 6,410 on, the window repeats every 40 steps in subnormal numbers,
    # and evolve copies it from step 6,463 on.
    coin = random_coin_field(1, 3)
    rng = np.random.default_rng(4)
    amp = {(x1, x2): rng.standard_normal(4) + 1j * rng.standard_normal(4)
           for x1 in (-1, 0, 1) for x2 in (-1, 0, 1)}
    raw = WalkState(amp)
    u = WalkState({s: v / raw.norm() for s, v in amp.items()})
    fast = evolve(WalkOperator(coin), u, 10_000)
    reference = _reference_evolve(coin, dict(u.items()), 10_000)
    assert list(fast.sites()) == list(reference)
    assert fast.norm().hex() == _norm_by_site(reference).hex()
    assert _state_bytes(fast) == _state_bytes(reference)


def test_evolve_copies_a_repeating_window_to_the_bit(monkeypatch):
    # The corner coins route a loop of 8 steps, so the window repeats every 8
    # steps, and blocks of 20 steps see it.  A right mover from x = -40 crosses
    # the window from step 36 on, so no repeat before it counts.
    coin = CoinField(2, corner_coins(2, 2))
    u = WalkState.delta((0, 0), LEFT).plus(WalkState.delta((-40, 1), RIGHT, 0.5j))
    monkeypatch.setattr(lattice, "_BANK_ROWS", 20)
    for t in range(130):
        assert _state_bytes(evolve(WalkOperator(coin), u, t)) == _state_bytes(
            _reference_evolve(coin, dict(u.items()), t)), t


def _evolve_counting_steps(monkeypatch, coin, u, t):
    """evolve(coin, u, t) and the number of walk steps it took (one einsum each)."""
    einsum, steps = np.einsum, []

    def counted(*args, **kwargs):
        steps.append(1)
        return einsum(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "einsum", counted)
        return evolve(WalkOperator(coin), u, t), len(steps)


@pytest.mark.parametrize("stride, taken", [(lattice._REPEAT_STRIDE, 64), (4, None)])
def test_evolve_sees_a_short_period_in_the_middle_of_a_block(monkeypatch, stride, taken):
    # The loop of 8 steps repeats once the right mover has crossed the window
    # (step 36).  Every 64 steps the window is compared with the 64 before,
    # so the repeat is seen at step 63 of the first block of 1,024; compared
    # with only 4, the period of 8 waits for the block's end or for t.
    monkeypatch.setattr(lattice, "_REPEAT_STRIDE", stride)
    coin = CoinField(2, corner_coins(2, 2))
    u = WalkState.delta((0, 0), LEFT).plus(WalkState.delta((-40, 1), RIGHT, 0.5j))
    for t in (40, 100, 1000, 1500):
        reference = _reference_evolve(coin, dict(u.items()), t)
        fast, steps = _evolve_counting_steps(monkeypatch, coin, u, t)
        assert _state_bytes(fast) == _state_bytes(reference), t
        assert steps == min(t, taken or lattice._BANK_ROWS), t


@pytest.mark.parametrize("seed", range(10))
def test_state_operations_equal_the_dict_reference_to_the_bit(seed):
    rng = np.random.default_rng(seed)

    def random_state():
        sites = {(int(x), int(y)) for x, y in rng.integers(-4, 5, size=(int(rng.integers(0, 40)), 2))}
        return {s: rng.standard_normal(4) + 1j * rng.standard_normal(4) for s in sorted(sites, key=str)}

    a, b = random_state(), random_state()
    for site in list(a)[:3]:  # sites where a + b cancels exactly
        b[site] = -a[site]
    u, v = WalkState(a), WalkState(b)
    assert _state_bytes(u) == _state_bytes(a)
    assert u.norm() == _norm_by_site(a)
    assert _state_bytes(u.plus(v)) == _state_bytes(_reference_plus(a, b))
    assert _state_bytes(v.plus(u)) == _state_bytes(_reference_plus(b, a))
    for factor in (2.0 - 0.5j, 1e-300j, 0.0):
        assert _state_bytes(u.scaled(factor)) == _state_bytes(_reference_scaled(a, factor))
    assert _bits(u.inner(v)) == _bits(_reference_inner(a, b))
    assert _bits(v.inner(u)) == _bits(_reference_inner(b, a))


def test_inner_is_a_python_complex_whichever_state_is_smaller():
    big = WalkState({(0, 0): [1, 2j, 0, 0], (1, 0): [0, 0, 3, 0]})
    small = WalkState.delta((0, 0), RIGHT, 1j)
    assert type(big.inner(small)) is complex and big.inner(small) == 2
    assert type(small.inner(big)) is complex and small.inner(big) == 2


@pytest.mark.parametrize("value", [np.nan, complex(0.0, np.nan), np.inf])
def test_allclose_does_not_count_a_non_finite_difference_as_close(value):
    bad = WalkState({(0, 0): [value, 0, 0, 0]})
    assert not bad.allclose(WalkState())
    assert not WalkState().allclose(bad)
    assert not bad.allclose(bad)
    one = WalkState.delta((0, 0), LEFT)
    assert one.allclose(WalkState.delta((0, 0), LEFT, 1 + 1e-13))
    assert not one.allclose(WalkState.delta((0, 0), LEFT, 1 + 1e-11))


@pytest.mark.parametrize("site", [(0.7, -1.9), (0, 2.5), (np.float64(-0.5), 1), (np.nan, 0),
                                  (np.inf, 0), ("1", 0), (1j, 0)])
def test_walk_state_rejects_a_coordinate_that_is_not_an_integer(site):
    with pytest.raises(ValueError, match="not an integer"):
        WalkState({site: np.ones(4)})


def test_walk_state_keeps_integral_coordinates_of_any_type():
    u = WalkState({(2.0, np.int32(-1)): np.ones(4), (2**63 - 1, -(2**63)): np.ones(4)})
    assert list(u.sites()) == [(2, -1), (2**63 - 1, -(2**63))]
    assert all(type(c) is int for site in u.sites() for c in site)


@pytest.mark.parametrize("site", [(2**63, 0), (0, -(2**63) - 1), (1e19, 0)])
def test_walk_state_rejects_a_coordinate_beyond_64_bits(site):
    with pytest.raises(ValueError, match="64-bit"):
        WalkState({site: np.ones(4)})


def test_steps_that_leave_64_bits_raise():
    op = WalkOperator(random_coin_field(1, seed=2))
    top, bottom = 2**63 - 1, -(2**63)
    assert evolve(op, WalkState.delta((top - 3, 0), RIGHT), 3).support() == {(top, 0)}
    assert evolve(op, WalkState.delta((0, bottom + 3), DOWN), 3).support() == {(0, bottom)}
    # Amplitude on the far edge heading for the box only moves in.
    assert evolve(op, WalkState.delta((bottom, 0), RIGHT), 3).support() == {(bottom + 3, 0)}
    for site, j in [((top - 2, 0), RIGHT), ((0, bottom + 2), DOWN), ((bottom + 1, 5), LEFT)]:
        with pytest.raises(ValueError, match="64-bit"):
            evolve(op, WalkState.delta(site, j), 3)
    with pytest.raises(ValueError, match="64-bit"):
        apply_walk(op, WalkState.delta((top, 0), RIGHT))


def _reference_from_entries(sites, chiralities, values):
    """The dict-based builder that from_entries replaced, kept as its reference."""
    amp = {}
    for site, j, a in zip(sites, chiralities, values):
        amp.setdefault(tuple(site), np.zeros(4, dtype=complex))[j] += a
    return {s: a for s, a in amp.items() if np.any(a != 0)}


def _assert_from_entries_equals_the_reference(sites, chiralities, values):
    u = WalkState.from_entries(sites, chiralities, values)
    reference = _reference_from_entries(sites, chiralities, values)
    assert list(u.sites()) == list(reference)
    assert _state_bytes(u) == _state_bytes(reference)
    assert u.norm().hex() == _norm_by_site(reference).hex()


# An entry is a site, a chirality and a value: a fresh random one, zero, or
# minus the value of an earlier entry, so that entries repeat and cancel.
ENTRY = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 3),
                  st.sampled_from(["random", "zero", "cancel"]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), entries=st.lists(ENTRY, max_size=40))
def test_from_entries_equals_the_dict_reference_to_the_bit(seed, entries):
    rng = np.random.default_rng(seed)
    sites, chiralities, values = [], [], []
    for x, y, j, kind in entries:
        if kind == "cancel" and values:
            k = int(rng.integers(len(values)))
            x, y, j, value = *sites[k], chiralities[k], -values[k]
        elif kind == "zero":
            value = 0j
        else:
            value = complex(*rng.standard_normal(2)) * 10.0 ** rng.uniform(-3, 3)
        sites.append((x, y))
        chiralities.append(j)
        values.append(value)
    _assert_from_entries_equals_the_reference(sites, chiralities, values)


def test_from_entries_adds_repeats_drops_cancelled_rows_and_takes_nothing():
    # Site (1, 0) occurs first, and its two RIGHT entries are added in order.
    sites = [(1, 0), (0, 0), (1, 0), (2, 5), (0, 0), (2, 5)]
    chiralities = [RIGHT, UP, RIGHT, LEFT, DOWN, LEFT]
    values = [0.1 + 0.2j, 1.0, 0.7 - 1e-17j, 2.5j, -3.0, -2.5j]
    _assert_from_entries_equals_the_reference(sites, chiralities, values)
    u = WalkState.from_entries(np.array(sites), np.array(chiralities), np.array(values))
    assert list(u.sites()) == [(1, 0), (0, 0)]  # (2, 5) cancels to zero
    assert u.component((1, 0), RIGHT) == (0.1 + 0.2j) + (0.7 - 1e-17j)
    for empty in ([], np.zeros((0, 2), dtype=np.int64)):
        v = WalkState.from_entries(empty, [], [])
        assert len(v) == 0 and v.norm() == 0.0


@pytest.mark.parametrize("chirality", [-1, 4, 1.5, 2.0])
def test_chirality_outside_0_to_3_is_rejected(chirality):
    with pytest.raises(ValueError, match="chiralities"):
        WalkState.delta((0, 0), chirality)
    with pytest.raises(ValueError, match="chiralities"):
        WalkState.from_entries([(0, 0), (1, 0)], [UP, chirality], [1.0, 1.0])


def test_from_entries_rejects_bad_sites_and_unequal_lengths():
    with pytest.raises(ValueError, match="not an integer"):
        WalkState.from_entries([(0.5, 0)], [UP], [1.0])
    with pytest.raises(ValueError, match="64-bit"):
        WalkState.from_entries([(2**63, 0)], [UP], [1.0])
    with pytest.raises(ValueError, match="2 values"):
        WalkState.from_entries([(0, 0)], [UP], [1.0, 2.0])
