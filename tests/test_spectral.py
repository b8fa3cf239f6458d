import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qwres import BarrierSpec, build_nonpenetrable, make_corner_family, make_shape_family, spectral
from qwres.elastic import random_permutation_coin
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
    compress_walk,
    evolve,
    random_coin_field,
    random_unitary_coin,
)
from qwres.spectral import (
    DeterminantFamily,
    KappaRect,
    NumericalFailure,
    ResolventPairing,
    Root,
    det_value,
    locate_roots,
    projection_element,
    resolvent_apply,
    resolvent_kernel_entry,
    resolvent_matrix_element,
    winding_number,
)
from qwres.shape import CORNER_PRESETS

FREE = WalkOperator(CoinField(0, {}))


def neumann_element(op, kappa, f, g, nmax=400):
    """<(U - e^{-i kappa})^{-1} f, g> summed as free flight against the walk.

    Independent of every kernel formula: only repeated application of the
    walk and the geometric series for the resolvent, valid for Im kappa > 0.
    """
    w = np.exp(-1j * kappa)
    decay = 1.0 / abs(w)
    assert decay < 1.0, "series oracle needs Im kappa > 0"
    total = 0.0j
    state = f
    scale = f.norm() * g.norm()
    for n in range(nmax):
        total += -(w ** (-(n + 1))) * state.inner(g)
        if scale * decay ** (n + 1) / (1.0 - decay) < 1e-17:
            break
        state = apply_walk(op, state)
    return total


def random_state(seed, span=2, n_sites=3):
    rng = np.random.default_rng(seed)
    amp = {}
    for _ in range(n_sites):
        site = (int(rng.integers(-span, span + 1)), int(rng.integers(-span, span + 1)))
        amp[site] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return WalkState(amp)


# ---------------------------------------------------------------------------
# Free resolvent kernel
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    j=st.integers(0, 3),
    x=st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    y=st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    im=st.floats(0.5, 1.5),
    re=st.floats(-3.0, 3.0),
)
def test_kernel_entry_matches_free_flight_series(j, x, y, im, re):
    kappa = complex(re, im)
    oracle = neumann_element(FREE, kappa, WalkState.delta(y, j), WalkState.delta(x, j))
    assert resolvent_kernel_entry(j, x, y, kappa) == pytest.approx(oracle, abs=1e-12)


def test_kernel_entry_support_sides():
    kappa = 0.3 + 0.9j
    # Left movers live to the right of the target row site, right movers to
    # the left, and both vanish off the shared row.
    assert resolvent_kernel_entry(LEFT, (0, 0), (3, 0), kappa) != 0
    assert resolvent_kernel_entry(LEFT, (3, 0), (0, 0), kappa) == 0
    assert resolvent_kernel_entry(RIGHT, (3, 0), (0, 0), kappa) != 0
    assert resolvent_kernel_entry(RIGHT, (0, 0), (3, 0), kappa) == 0
    assert resolvent_kernel_entry(LEFT, (0, 0), (3, 1), kappa) == 0
    assert resolvent_kernel_entry(DOWN, (0, 0), (0, 2), kappa) != 0
    assert resolvent_kernel_entry(UP, (0, 0), (0, 2), kappa) == 0
    # On-diagonal entries pick up the single shift factor.
    assert resolvent_kernel_entry(UP, (5, 5), (5, 5), kappa) == pytest.approx(
        -np.exp(1j * kappa)
    )


def test_free_resolvent_solves_walk_equation_pointwise():
    kappa = 0.8 + 0.7j
    w = np.exp(-1j * kappa)
    f = random_state(21)
    window = 7
    amp = {}
    for x1 in range(-window - 1, window + 2):
        for x2 in range(-window - 1, window + 2):
            vec = np.zeros(4, dtype=complex)
            for y, fvec in f.items():
                for j in CHIRALITIES:
                    vec[j] += resolvent_kernel_entry(j, (x1, x2), y, kappa) * fvec[j]
            amp[(x1, x2)] = vec
    u = WalkState(amp)
    pushed = apply_walk(FREE, u)
    for x1 in range(-window, window + 1):
        for x2 in range(-window, window + 1):
            site = (x1, x2)
            residual = pushed.amplitude(site) - w * u.amplitude(site) - f.amplitude(site)
            assert np.max(np.abs(residual)) < 1e-12


# ---------------------------------------------------------------------------
# Interaction matrix and determinant
# ---------------------------------------------------------------------------


def dynamics_interaction_matrix(coin, kappa):
    """Columns of the compressed matrix built from walk dynamics alone."""
    op = WalkOperator(coin)
    pairs = DeterminantFamily(coin).pairs
    w = np.exp(-1j * kappa)
    m = len(pairs)
    out = np.zeros((m, m), dtype=complex)
    for col, (y, k) in enumerate(pairs):
        e = WalkState.delta(y, k)
        ve = apply_walk(op, e).plus(apply_walk(FREE, e).scaled(-1.0))
        state = ve
        acc = np.zeros(m, dtype=complex)
        for n in range(400):
            for row, (x, j) in enumerate(pairs):
                acc[row] += -(w ** (-(n + 1))) * state.component(x, j)
            if 2.0 * abs(w) ** (-(n + 1)) / (1.0 - 1.0 / abs(w)) < 1e-17:
                break
            state = apply_walk(FREE, state)
        out[:, col] = acc
    return out


@pytest.mark.parametrize("seed,kappa", [(3, 1.1j), (5, 0.7 + 0.9j), (11, -1.3 + 1.4j)])
def test_interaction_matrix_matches_dynamics(seed, kappa):
    coin = random_coin_field(1, seed=seed)
    direct = DeterminantFamily(coin).matrices([kappa])[0]
    oracle = dynamics_interaction_matrix(coin, kappa)
    np.testing.assert_allclose(direct, oracle, atol=1e-11)


def test_full_resolvent_element_matches_dynamics_series():
    coin = random_coin_field(1, seed=13)
    op = WalkOperator(coin)
    # The second pair sits on edges entering the override box [-1, 1]^2 from
    # outside it: f arrives from (2, 0) and (0, -2), g from (-2, 0) and (0, 2).
    entering_f = WalkState.delta((1, 0), LEFT).plus(WalkState.delta((0, -1), UP, 0.5j))
    entering_g = WalkState.delta((-1, 0), RIGHT, 0.7).plus(WalkState.delta((0, 1), DOWN, -1.1j))
    for f, g in ((random_state(31), random_state(32)), (entering_f, entering_g)):
        for kappa in (1.0j, 0.4 + 0.8j, -2.0 + 1.2j):
            oracle = neumann_element(op, kappa, f, g)
            direct = resolvent_matrix_element(coin, kappa, f, g)
            assert direct == pytest.approx(oracle, abs=1e-11)


def test_free_resolvent_element_is_the_kernel_sum():
    free = CoinField(0, {})
    f = random_state(41)
    g = random_state(42)
    for kappa in (0.3 + 0.8j, 1.9 - 0.6j):
        kernel_sum = sum(
            resolvent_kernel_entry(j, x, y, kappa) * fvec[j] * np.conj(gvec[j])
            for x, gvec in g.items()
            for y, fvec in f.items()
            for j in CHIRALITIES
        )
        assert resolvent_matrix_element(free, kappa, f, g) == pytest.approx(kernel_sum, rel=1e-12)
        # The resolvent of the zero state is 0, also when no site spans a box.
        assert resolvent_matrix_element(free, kappa, WalkState(), g) == 0
        assert resolvent_matrix_element(free, kappa, WalkState(), WalkState()) == 0


def entrywise_tables(coin):
    """(expo, coeff) of M read off entry by entry from the free kernel's exponent."""
    pairs = [(site, j) for site in coin.override_sites() for j in CHIRALITIES]
    expo = np.zeros((len(pairs), len(pairs)), dtype=int)
    coeff = np.zeros((len(pairs), len(pairs)), dtype=complex)
    for row, (x, j) in enumerate(pairs):
        for col, (y, k) in enumerate(pairs):
            n = int(spectral._free_kernel_exponent(j, x, (y[0] + STEPS[j][0], y[1] + STEPS[j][1])))
            c = -(coin.coin_at(y) - np.eye(4))[j, k]
            if n and c != 0:
                expo[row, col], coeff[row, col] = n, c
    return expo, coeff


TABLE_FIELDS = (
    [lambda p=p: make_corner_family(2, 2, 0.2, p).coin for p in CORNER_PRESETS]
    + [lambda: make_corner_family(1, 3, 0.0, "one-corner").coin]
    + [lambda m0=m0: make_shape_family(BarrierSpec(m0), 0.15).coin for m0 in (1, 2)]
    + [lambda s=s: random_coin_field(2, seed=s, density=0.5) for s in (0, 1, 2)]
    + [lambda: random_permutation_coin(2, 1).to_coin_field(), lambda: CoinField(1, {})]
)


@pytest.mark.parametrize("build", TABLE_FIELDS, ids=[
    *(f"corner-{p}" for p in CORNER_PRESETS), "closed-1x3", "shape-1", "shape-2",
    "random-0", "random-1", "random-2", "elastic-r2", "identity"])
def test_family_tables_match_the_entrywise_definition(build):
    coin = build()
    fam = DeterminantFamily(coin)
    expo, coeff = entrywise_tables(coin)
    assert fam.expo.dtype == expo.dtype and fam.coeff.dtype == coeff.dtype
    assert np.array_equal(fam.expo, expo) and np.array_equal(fam.coeff, coeff)


def test_identity_coin_has_trivial_determinant():
    coin = CoinField(2, {})
    d, dlog = det_value(coin, 0.3 - 0.5j)
    assert d == 1.0
    assert dlog == 0.0
    assert locate_roots(coin) == []
    assert DeterminantFamily(coin).candidates.shape == (0,)


def test_single_site_override_cannot_trap():
    # One overridden site scatters, but every scattered ray leaves for good,
    # so the compressed matrix vanishes identically.
    coin = CoinField(1, {(0, 0): np.asarray(np.linalg.qr(np.ones((4, 4)) + np.eye(4))[0], dtype=complex)})
    m = DeterminantFamily(coin).matrices([0.5 - 0.3j])[0]
    assert np.all(m == 0)
    assert locate_roots(coin) == []


def test_det_log_derivative_against_finite_differences():
    coin = random_coin_field(1, seed=8)
    fam = DeterminantFamily(coin)
    h = 1e-5
    for kappa in (0.4 - 0.2j, 2.0 - 0.8j, 1.0 + 0.5j):
        _, dlog = fam.det_dlog(kappa)
        dp, _ = fam.det_dlog(kappa + h)
        dm, _ = fam.det_dlog(kappa - h)
        fd = (np.log(dp) - np.log(dm)) / (2 * h)
        # The principal branches agree because the step is far smaller than
        # the distance to any zero for these sample points.
        assert dlog == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_determinant_is_two_pi_periodic():
    coin = random_coin_field(1, seed=17)
    fam = DeterminantFamily(coin)
    for kappa in (0.3 - 0.4j, 1.7 - 1.1j):
        la1, an1 = fam.logdet(np.array([kappa]))
        la2, an2 = fam.logdet(np.array([kappa + 2 * np.pi]))
        assert la1[0] == pytest.approx(la2[0], abs=1e-10)
        assert np.angle(np.exp(1j * (an1[0] - an2[0]))) == pytest.approx(0.0, abs=1e-10)


def box_walk_det_dlog(coin, kappa):
    """(det(I - zA), -i (tr (I - zA)^{-1} - n)) at z = e^{i kappa}.

    A is the walk compressed to all four chiralities on the bounding box of
    the override sites, an n x n matrix; this engine never sees the free
    kernels or M(kappa).
    """
    xs, ys = zip(*coin.override_sites())
    box = [((x1, x2), j) for x1 in range(min(xs), max(xs) + 1)
           for x2 in range(min(ys), max(ys) + 1) for j in CHIRALITIES]
    a, _ = compress_walk(coin, box)
    b = np.eye(len(box)) - np.exp(1j * kappa) * a
    return np.linalg.det(b), -1j * (np.trace(np.linalg.inv(b)) - len(box))


@settings(max_examples=40, deadline=None)
@given(
    coin=st.one_of(
        st.builds(lambda r, seed, density: random_coin_field(r, seed=seed, density=density),
                  st.integers(1, 2), st.integers(0, 2**16), st.floats(0.5, 1.0)),
        st.builds(lambda m0, n0, eps, preset: make_corner_family(m0, n0, eps, preset).coin,
                  st.integers(1, 3), st.integers(1, 3), st.floats(0.0, 1.0),
                  st.sampled_from(CORNER_PRESETS)),
    ),
    re=st.floats(0.0, 2 * np.pi),
    im=st.floats(-0.5, 0.5),
)
def test_determinant_equals_the_box_walk_determinant(coin, re, im):
    # D(kappa) = det(I + M(kappa)) = det(I - e^{i kappa} A): two engines, the
    # free kernels against the walk itself, in value and log-derivative.
    assume(not coin.is_identity())
    kappa = complex(re, im)
    d, dlog = DeterminantFamily(coin).det_dlog(kappa)
    assume(abs(d) > 1e-4)
    d_box, dlog_box = box_walk_det_dlog(coin, kappa)
    assert d_box == pytest.approx(d, rel=1e-8)
    assert dlog_box == pytest.approx(dlog, rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("build", TABLE_FIELDS, ids=[
    *(f"corner-{p}" for p in CORNER_PRESETS), "closed-1x3", "shape-1", "shape-2",
    "random-0", "random-1", "random-2", "elastic-r2", "identity"])
def test_diagonal_blocks_are_the_strong_components(build):
    # The blocks against scipy's strongly connected components of the same
    # pattern, less the single indices with a zero diagonal entry; their
    # determinants multiply to D.
    fam = DeterminantFamily(build())
    pattern = fam.coeff != 0
    count, labels = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix(pattern), directed=True, connection="strong")
    expected = sorted(tuple(np.flatnonzero(labels == c)) for c in range(count)
                      if np.count_nonzero(labels == c) > 1 or pattern[labels == c][:, labels == c].any())
    blocks = spectral._diagonal_blocks(fam.coeff)
    assert sorted(tuple(b) for stack in blocks for b in stack) == expected
    assert [stack.shape[1] for stack in blocks] == sorted({len(b) for b in expected})
    kappa = 0.7 - 0.3j
    full = fam.matrices(np.array([kappa]))[0] + np.eye(fam.m)
    product = np.prod([np.linalg.det(full[np.ix_(b, b)]) for b in expected])
    assert product == pytest.approx(np.linalg.det(full), rel=1e-10)


def test_corner_blocks_are_its_two_circulations():
    for preset in CORNER_PRESETS:
        fam = DeterminantFamily(make_corner_family(2, 2, 0.2, preset).coin)
        assert fam.m == 16
        assert [coeff.shape for coeff, _, _ in fam.blocks] == [(2, 4, 4)]


PARITY_FIELDS = TABLE_FIELDS + [lambda: build_nonpenetrable(BarrierSpec(1)).coin]


def assert_half_period_parity(fam):
    # Each step flips the parity of x1 + x2, so an entry's exponent has the
    # parity of its row site plus its column site: M(kappa + pi) = S M S.
    parity = np.array([(x1 + x2) % 2 for (x1, x2), _ in fam.pairs], dtype=int)
    kept = fam.coeff != 0
    assert np.all(fam.expo[~kept] == 0)
    expected = (parity[:, None] + parity[None, :]) % 2
    assert np.array_equal(fam.expo[kept] % 2, expected[kept])


@pytest.mark.parametrize("build", PARITY_FIELDS, ids=[
    *(f"corner-{p}" for p in CORNER_PRESETS), "closed-1x3", "shape-1", "shape-2",
    "random-0", "random-1", "random-2", "elastic-r2", "identity", "barrier-1"])
def test_exponents_have_the_parity_of_their_sites(build):
    assert_half_period_parity(DeterminantFamily(build()))


def sampled_field(radius, seed, density, kind):
    """A seeded field of Haar unitaries or permutation coins, each site kept with probability density."""
    rng = np.random.default_rng(seed)
    overrides = {}
    for x1 in range(-radius, radius + 1):
        for x2 in range(-radius, radius + 1):
            if rng.random() >= density:
                continue
            if kind == "unitary":
                overrides[(x1, x2)] = random_unitary_coin(int(rng.integers(2**31)))
                continue
            coin = np.zeros((4, 4), dtype=complex)
            phases = rng.uniform(0.0, 2 * np.pi, 4) if kind == "permutation with phases" else 0.0
            coin[rng.permutation(4), np.arange(4)] = np.exp(1j * phases)
            overrides[(x1, x2)] = coin
    return CoinField(radius, overrides)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    radius=st.integers(1, 2),
    seed=st.integers(0, 2**16),
    density=st.floats(0.3, 1.0),
    kind=st.sampled_from(["unitary", "permutation", "permutation with phases"]),
    points=st.lists(st.tuples(st.floats(0.0, 2 * np.pi), st.floats(0.0, 1.0)), min_size=1, max_size=8),
)
def test_block_dlogs_match_the_full_matrix(radius, seed, density, kind, points):
    # Two engines for (log D)': the diagonal blocks of the winding table (M's,
    # or A's where those cost less), and the full I + M behind Newton, at
    # Im kappa from -0.6 to 1.
    # Elastic radius-2 fields stop at -0.3: below it I + M reaches condition
    # numbers of 1e11, and the engines part by up to 6e-9 (600 sampled
    # fields), as both part from an LU of I - zA.  Where (log D)' vanishes
    # (a permutation field at a real kappa) both give rounding noise, hence
    # the absolute floor.
    floor = -0.3 if radius == 2 and kind != "unitary" else -0.6
    kappas = np.array([complex(re, floor + (1.0 - floor) * t) for re, t in points])
    fam = DeterminantFamily(sampled_field(radius, seed, density, kind))
    full = np.array([fam.det_dlog(kappa)[1] for kappa in kappas])
    np.testing.assert_allclose(fam.dlogs(kappas), full, rtol=1e-10, atol=1e-10)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    radius=st.integers(0, 2),
    seed=st.integers(0, 2**16),
    density=st.sampled_from([0.2, 0.5, 0.8, 1.0]),
    kind=st.sampled_from(["unitary", "permutation", "permutation with phases"]),
)
def test_sampled_fields_have_the_half_period_parity(radius, seed, density, kind):
    assert_half_period_parity(DeterminantFamily(sampled_field(radius, seed, density, kind)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    radius=st.integers(1, 2),
    seed=st.integers(0, 2**16),
    density=st.sampled_from([0.3, 0.6, 1.0]),
    kind=st.sampled_from(["unitary", "permutation", "permutation with phases"]),
    points=st.lists(st.tuples(st.floats(0.0, 2 * np.pi), st.floats(-0.6, 1.0)), min_size=1, max_size=8),
)
def test_dlogs_repeat_after_half_a_period(radius, seed, density, kind, points):
    # D(kappa + pi) = D(kappa), so (log D)' repeats too; compared where
    # I + M is well conditioned, as the rounding of the two evaluations
    # differs.
    fam = DeterminantFamily(sampled_field(radius, seed, density, kind))
    assume(fam.m > 0)
    kappas = np.array([complex(re, im) for re, im in points])
    shifted = fam.matrices(kappas) + np.eye(fam.m)
    kappas = kappas[np.linalg.cond(shifted) < 1e6]
    np.testing.assert_allclose(fam.dlogs(kappas + np.pi), fam.dlogs(kappas), rtol=1e-10, atol=1e-10)


def test_dlogs_is_inf_throughout_a_singular_chunk(monkeypatch):
    # kappa = 0 is an exact double zero of the closed loop: the chunk that
    # holds it comes back as inf, the others as their values.
    fam = DeterminantFamily(CoinField(1, one_corner_coins(0.0)))
    kappas = np.array([0.3, 0.0, 1.0 - 0.2j, 2.0])
    assert np.all(np.isinf(fam.dlogs(kappas)))
    monkeypatch.setattr(spectral, "_CHUNK_ENTRIES", 1)
    values = fam.dlogs(kappas)
    assert np.isinf(values[1])
    finite = np.delete(np.arange(len(kappas)), 1)
    full = [fam.det_dlog(kappa)[1] for kappa in kappas[finite]]
    np.testing.assert_allclose(values[finite], full, rtol=1e-12)


# ---------------------------------------------------------------------------
# Windings on the box walk's blocks, and one family per coin field
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("build,table", [
    *((lambda p=p: make_corner_family(2, 2, 0.2, p).coin, "M") for p in CORNER_PRESETS),
    *((lambda s=s: random_coin_field(1, seed=s), "M") for s in range(3)),
    (lambda: make_shape_family(BarrierSpec(1), 0.15).coin, "M"),
    (lambda: CoinField(1, {}), "M"),
    *((lambda s=s: random_permutation_coin(2, s).to_coin_field(), "A") for s in (0, 1, 24)),
], ids=[*(f"corner-{p}" for p in CORNER_PRESETS), "r1-0", "r1-1", "r1-2", "shape-1", "identity",
        "elastic-0", "elastic-1", "elastic-24"])
def test_windings_take_the_cheaper_table(build, table):
    # A's blocks are the closed orbits of an elastic field, of 2 to 24
    # indices; a corner's are its two circulations of 8, where M has two
    # blocks of 4.  A tie keeps M.
    fam = DeterminantFamily(build())
    assert fam.table == table
    m_cost = spectral._solve_cost(spectral._diagonal_blocks(fam.coeff))
    if m_cost:
        a_cost = spectral._solve_cost(spectral._diagonal_blocks(fam.walk))
        assert (a_cost < m_cost) == (table == "A")
    sizes = [stack.shape[1:] for stack, _, _ in fam.blocks]
    source = fam.walk if table == "A" else fam.coeff
    assert sizes == [(s, s) for s in (idx.shape[1] for idx in spectral._diagonal_blocks(source))]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    radius=st.integers(1, 2),
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(["permutation", "permutation with phases"]),
    points=st.lists(st.tuples(st.floats(0.0, 2 * np.pi),
                              st.floats(-0.3, 1.0).filter(lambda y: abs(y) >= 0.05)),
                    min_size=1, max_size=8),
)
def test_walk_table_dlogs_match_the_full_matrix(radius, seed, kind, points):
    # -i sum_b tr((I - z A_bb)^{-1} z A_bb) on A's blocks against
    # tr((I + M)^{-1} M') on the full matrix, on fields that take A's table,
    # off the axis: without phases a permutation field has exact zeros on it.
    fam = DeterminantFamily(sampled_field(radius, seed, 1.0, kind))
    assume(fam.table == "A")
    kappas = np.array([complex(re, im) for re, im in points])
    full = np.array([fam.det_dlog(kappa)[1] for kappa in kappas])
    np.testing.assert_allclose(fam.dlogs(kappas), full, rtol=1e-10, atol=1e-10)


def test_a_walk_table_without_a_block_gives_zeros():
    # Every site holds a permutation coin, yet no path through the box
    # closes: A is nilpotent, D = 1, and M still is not zero.
    fam = DeterminantFamily(sampled_field(2, 20, 1.0, "permutation"))
    assert fam.coeff.any() and fam.table == "A" and fam.blocks == []
    kappas = np.array([0.3, 1.0 - 0.5j, 4.0 - 2.0j])
    assert np.array_equal(fam.dlogs(kappas), np.zeros(3, dtype=complex))
    assert winding_number(fam, spectral.default_strip()) == 0


def test_walk_table_dlogs_is_inf_throughout_a_singular_chunk(monkeypatch):
    # Permutation coins without phases: every closed orbit has an exact
    # zero at kappa = 0, where I - A_bb is exactly singular.
    fam = DeterminantFamily(sampled_field(1, 6, 1.0, "permutation"))
    assert fam.table == "A" and [stack.shape for stack, _, _ in fam.blocks] == [(2, 2, 2)]
    kappas = np.array([0.3, 0.0, 1.0 - 0.2j, 2.0])
    assert np.all(np.isinf(fam.dlogs(kappas)))
    monkeypatch.setattr(spectral, "_CHUNK_ENTRIES", 1)
    values = fam.dlogs(kappas)
    assert np.isinf(values[1])
    finite = np.delete(np.arange(len(kappas)), 1)
    full = [fam.det_dlog(kappa)[1] for kappa in kappas[finite]]
    np.testing.assert_allclose(values[finite], full, rtol=1e-12)


def cycle_entries(a):
    """(row, col) of each nonzero entry of a inside a diagonal block of its pattern."""
    return [(int(idx[r]), int(idx[c])) for stack in spectral._diagonal_blocks(a) for idx in stack
            for r, c in zip(*np.nonzero(a[np.ix_(idx, idx)]))]


ELASTIC_SEED = 2
ELASTIC_CYCLE_ENTRIES = cycle_entries(
    spectral._box_walk(random_permutation_coin(2, ELASTIC_SEED).to_coin_field()))


@pytest.mark.parametrize("entry", ELASTIC_CYCLE_ENTRIES)
def test_a_box_walk_that_lost_a_cycle_entry_is_refused(monkeypatch, entry):
    # The candidates and the windings both come from A, so a broken
    # compress_walk would lose the same zeros from both; det(I + M) at the
    # guard points tells.
    assert len(ELASTIC_CYCLE_ENTRIES) == 8  # orbits of 2, 2 and 4
    field = random_permutation_coin(2, ELASTIC_SEED).to_coin_field()
    real = spectral.compress_walk

    def broken(coin, pairs):
        a, rest = real(coin, pairs)
        a = a.copy()
        a[entry] = 0
        return a, rest

    monkeypatch.setattr(spectral, "compress_walk", broken)
    with pytest.raises(NumericalFailure, match="box walk does not match"):
        winding_number(field, spectral.default_strip())


def test_clean_elastic_fields_pass_the_guard():
    # Seed 16 is the field whose gap reaches 0.74 at 4.1 - 1.1i, below the
    # axis; above it the gap stays at rounding level.
    for seed in range(60):
        fam = DeterminantFamily(random_permutation_coin(2, seed).to_coin_field())
        assert fam.table == "A", seed


def test_one_family_serves_every_call_on_a_coin_field(monkeypatch):
    built = []
    init = DeterminantFamily.__init__

    def spy(self, coin):
        built.append(coin)
        init(self, coin)

    monkeypatch.setattr(DeterminantFamily, "__init__", spy)
    field = random_permutation_coin(2, 3).to_coin_field()
    zero = complex(DeterminantFamily.of(field).candidates[0].real, 0.0)
    assert winding_number(field, KappaRect.around(zero, 1e-3)) >= 1
    assert winding_number(field, spectral.default_strip()) == 6
    assert abs(det_value(field, zero)[0]) < 1e-8
    assert built == [field]
    fam = DeterminantFamily.of(field)
    assert DeterminantFamily.of(fam) is fam and fam.coin is field


def test_a_family_keeps_one_exponent_table_of_each_type():
    # After a winding an elastic r2 family (m = 100) holds expo (int), 8
    # bytes an entry, which is also the gather index of the powers, coeff and
    # the box walk, 16 each, and the candidates; i * expo is formed where it
    # is read.
    field = random_permutation_coin(2, 1).to_coin_field()
    fam = DeterminantFamily.of(field)
    assert winding_number(field, KappaRect(0.1, 0.5, 0.0, 0.5)) == 0
    held = sum(v.nbytes for v in vars(fam).values() if isinstance(v, np.ndarray))
    assert held <= (8 + 2 * 16) * fam.m**2 + fam.candidates.nbytes


def test_threads_sharing_a_coin_field_agree():
    # Threads that ask for a field's family at once may each build one; the
    # builds are equal, so every winding counts the same.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        field = random_permutation_coin(2, 3).to_coin_field()
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(winding_number, field, spectral.default_strip()) for _ in range(16)]
            counts = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert counts == [6] * 16
    assert DeterminantFamily.of(field).coin is field


@pytest.mark.parametrize("seed", [24, 33])
def test_a_box_walk_without_a_cycle_has_no_zero(seed):
    # These elastic fields do not trap: M is nonzero, but the box walk's
    # pattern has no cycle, so it is nilpotent and D = 1 everywhere.  The
    # adaptive winding cannot show that on the full strip's long edges.
    field = random_permutation_coin(2, seed).to_coin_field()
    fam = DeterminantFamily(field)
    assert fam.coeff.any() and fam.candidates.size == 0
    start = time.perf_counter()
    assert locate_roots(fam) == []
    assert winding_number(field, spectral.default_strip()) == 0
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("seed", [24, 33])
def test_a_winding_table_without_a_block_skips_the_eigensolve(monkeypatch, seed):
    # locate_roots decides D = 1 by the rule winding_number uses, no block
    # in the winding table, before it asks for candidates.
    calls = []
    monkeypatch.setattr(spectral, "_zero_candidates", lambda fam: calls.append(fam))
    field = random_permutation_coin(2, seed).to_coin_field()
    assert locate_roots(field) == []
    assert calls == [] and DeterminantFamily.of(field).blocks == []


@pytest.mark.parametrize("seed", range(8))
def test_elastic_candidates_stay_on_the_axis(seed):
    # An elastic field traps amplitude only on closed orbits, so every zero
    # of D has |w| = 1.  A candidate inside the strip below the axis is
    # spurious: no Newton run certifies it, and locate_roots refuses the
    # whole field.
    fam = DeterminantFamily(random_permutation_coin(2, seed).to_coin_field())
    im = fam.candidates.imag
    assert not np.any((im > -3.0) & (im < -1e-8))


# ---------------------------------------------------------------------------
# Corner loop oracle: analytically known roots
# ---------------------------------------------------------------------------


def one_corner_coins(eps):
    s = np.sqrt(1.0 - eps**2)

    def cols(columns):
        m = np.zeros((4, 4), dtype=complex)
        for j, col in enumerate(columns):
            m[:, j] = col
        return m

    e = np.eye(4)
    return {
        (0, 0): cols([s * e[UP] + eps * e[DOWN], e[LEFT], e[RIGHT], -eps * e[UP] + s * e[DOWN]]),
        (1, 0): cols([e[RIGHT], e[UP], e[LEFT], e[DOWN]]),
        (1, 1): cols([e[RIGHT], e[DOWN], e[UP], e[LEFT]]),
        (0, 1): cols([e[DOWN], e[LEFT], e[UP], e[RIGHT]]),
    }


def test_determinant_vanishes_exactly_at_loop_quantization():
    eps = 0.6
    coin = CoinField(1, one_corner_coins(eps))
    fam = DeterminantFamily(coin)
    im_res = np.log(1.0 - eps**2) / 8.0
    for k in range(4):
        re = np.pi * k / 2.0
        assert fam.abs_det(complex(re, im_res)) < 1e-10
        assert fam.abs_det(complex(re, 0.0)) < 1e-10
        # And does not vanish away from the quantized points.
        assert fam.abs_det(complex(re + 0.3, im_res)) > 1e-3


def test_locate_roots_on_leaky_loop():
    eps = 0.6
    coin = CoinField(1, one_corner_coins(eps))
    roots = locate_roots(coin)
    assert len(roots) == 8
    eigen = [r for r in roots if r.kind == "eigenvalue"]
    reson = [r for r in roots if r.kind == "resonance"]
    assert len(eigen) == 4 and len(reson) == 4
    im_res = np.log(1.0 - eps**2) / 8.0
    for k, r in enumerate(sorted(eigen, key=lambda r: r.kappa.real)):
        assert r.kappa == pytest.approx(np.pi * k / 2.0, abs=1e-8)
        assert r.multiplicity == 1
    for k, r in enumerate(sorted(reson, key=lambda r: r.kappa.real)):
        assert r.kappa.real == pytest.approx(np.pi * k / 2.0, abs=1e-8)
        assert r.kappa.imag == pytest.approx(im_res, abs=1e-8)
        assert r.multiplicity == 1
    for r in roots:
        assert r.residual <= 1e-8
        assert abs(r.w) == pytest.approx(np.exp(r.kappa.imag), rel=1e-10)


@pytest.mark.parametrize(
    "region,count",
    [
        (None, 4),
        (KappaRect(-0.5, 0.5, -0.5, 1e-6), 1),
        # Two periods wide: every root once per period.
        (KappaRect(-np.pi / 32, 4 * np.pi - np.pi / 32, -2.0, 1e-6), 8),
    ],
    ids=["strip", "around-zero", "two-periods"],
)
def test_locate_roots_finds_double_eigenvalues_of_closed_loop(region, count):
    coin = CoinField(1, one_corner_coins(0.0))
    roots = locate_roots(coin, region)
    assert len(roots) == count
    for k, r in enumerate(sorted(roots, key=lambda r: r.kappa.real)):
        assert r.kind == "eigenvalue"
        assert r.multiplicity == 2
        assert r.kappa == pytest.approx(np.pi * k / 2.0, abs=1e-8)


def test_locate_roots_refuses_a_count_short_of_the_winding(monkeypatch):
    # A candidate lost by the eigenvalue solver must not drop out of the
    # answer silently: the winding around the region still counts it.
    coin = CoinField(1, one_corner_coins(0.6))
    full = spectral._zero_candidates

    def short(fam):
        kappas = full(fam)
        return np.delete(kappas, np.argmin(np.abs(kappas)))

    monkeypatch.setattr(spectral, "_zero_candidates", short)
    with pytest.raises(NumericalFailure, match="total multiplicity 7 .* counts 8"):
        locate_roots(coin)


@pytest.mark.parametrize(
    "rect",
    [KappaRect(0.0, 1.0, -0.5, 0.5), KappaRect(-0.5, 0.5, 0.0, 0.5)],
    ids=["vertical-edge", "horizontal-edge"],
)
def test_winding_retries_an_edge_through_an_exact_zero(rect):
    # kappa = 0 is an exact double zero of the closed loop and a knot of the
    # edge through it, so the stacked solve of the first attempt is singular.
    fam = DeterminantFamily(CoinField(1, one_corner_coins(0.0)))
    assert not np.isfinite(fam.det_dlog(0.0)[1])
    with pytest.raises(spectral._EdgeTrouble):
        spectral._winding(fam, rect)
    assert winding_number(fam, rect) == 2


@pytest.mark.parametrize("im_max", [1e-6, 1e-7])
def test_winding_attempt_fails_fast_within_the_level_cap(monkeypatch, im_max):
    # The top edge passes just above eight double zeros, where rounding noise
    # in (log D)' keeps panels failing the error test.  At 1e-7 the uncapped
    # levels grow past 2^17 points; one attempt must stop at the level cap
    # instead of growing a level until memory runs out.
    fam = DeterminantFamily(CoinField(1, one_corner_coins(0.0)))
    rect = KappaRect(-np.pi / 32, 4 * np.pi - np.pi / 32, -2.0, im_max)
    batch = DeterminantFamily.dlogs
    sizes = []

    def spy(self, kappas):
        sizes.append(len(kappas))
        return batch(self, kappas)

    monkeypatch.setattr(DeterminantFamily, "dlogs", spy)
    try:
        count = spectral._winding(fam, rect)
    except spectral._EdgeTrouble:
        count = None
    assert count in (None, 16)
    assert 0 < max(sizes) <= spectral._LEVEL_CAP


def strip_cases():
    """The one-corner 2x2 strip at eps 0.2 and random field 3 down to depth 0.5."""
    return [
        (make_corner_family(2, 2, 0.2, "one-corner").coin, spectral.default_strip()),
        (random_coin_field(1, seed=3),
         KappaRect(spectral.STRIP_SHIFT, spectral.STRIP_SHIFT + 2 * np.pi, -0.5, spectral.STRIP_IM_MAX)),
    ]


@pytest.mark.parametrize("bad", ["dropped", "spurious", "none"])
def test_deflated_winding_survives_bad_candidates(monkeypatch, bad):
    # A wrong candidate list may cost points but never change the count: a
    # zero without a candidate keeps its pole in the integrand, and a point
    # that is no zero adds a pole that winds away its own inside count.  No
    # candidate at all does not make D = 1 either: that is read off the
    # winding table's pattern.
    full = spectral._zero_candidates
    spurious = 1.0 + 5e-7j  # inside the strip, 5e-7 below its top edge

    def wrong(fam):
        kappas = full(fam)
        if bad == "dropped":
            return np.delete(kappas, np.argmin(np.abs(kappas)))
        if bad == "none":
            return kappas[:0]
        return np.append(kappas, spurious)

    monkeypatch.setattr(spectral, "_zero_candidates", wrong)
    for coin, rect in strip_cases():
        fam = DeterminantFamily(coin)
        assert fam.abs_det(spurious) > 1.0
        assert winding_number(fam, rect) == spectral._winding(fam, rect)


@pytest.mark.parametrize("im_max", [0.0437, 0.031])
def test_deflation_skips_a_candidate_next_to_an_edge(monkeypatch, im_max):
    # The left edge passes 1e-9 inside the exact zero at pi/2, and the
    # candidate sits 1e-9 outside it.  Subtracted and counted as outside, it
    # would leave a remainder too narrow for the knots to see, and the zero
    # would drop out of the count.
    full = spectral._zero_candidates

    def displaced(fam):
        kappas = full(fam).copy()
        kappas[np.argmin(np.abs(kappas - np.pi / 2))] = np.pi / 2 - 2e-9
        return kappas

    monkeypatch.setattr(spectral, "_zero_candidates", displaced)
    fam = DeterminantFamily(CoinField(1, one_corner_coins(0.6)))
    rect = KappaRect(np.pi / 2 - 1e-9, np.pi / 2 + 0.5, -0.05, im_max)
    assert winding_number(fam, rect) == 1


@pytest.mark.parametrize("half", [1e-7, 1e-8, 1e-9])
def test_tiny_square_deflates_its_own_zero(monkeypatch, half):
    # The deflation gap shrinks with the square, so the simple zero at its
    # centre is subtracted too: 2 seed panels per edge and one level, 32
    # points.  With the fixed 1e-7 gap its pole took a second level, 64.
    fam = DeterminantFamily(CoinField(1, one_corner_coins(0.6)))
    zero = np.pi / 2 - 0.05578588782855251j
    assert fam.abs_det(zero) < 1e-12
    sizes = dlogs_batches(monkeypatch)
    assert winding_number(fam, KappaRect.around(zero, half)) == 1
    assert sizes == [16, 16]


# The bad-candidate stress: fields, with the depth of their strip.  The
# elastic field's windings run on its box walk's blocks, its orbits, where
# (log D)' stays accurate over the full strip.
STRESS_FIELDS = [
    ("one-corner 2x2 eps 0.2", lambda: make_corner_family(2, 2, 0.2, "one-corner").coin, 2.0),
    ("closed corner 2x2", lambda: make_corner_family(2, 2, 0.0, "one-corner").coin, 2.0),
    ("random r1 seed 3", lambda: random_coin_field(1, seed=3), 0.5),
    ("elastic r2 seed 1", lambda: random_permutation_coin(2, 1).to_coin_field(), 2.0),
]
STRESS_HALF_WIDTHS = (1e-8, 1e-6, 1e-3, 0.05)
STRESS_TRIALS = 48


def stress_rect(rng, kappas, depth):
    """A seeded rectangle: the strip, the +-1e-3 full-period band, or a square around a root."""
    kinds = (["strip"] if depth else []) + ["band", "square"]
    kind = kinds[rng.integers(len(kinds))]
    shift, period = spectral.STRIP_SHIFT, 2 * np.pi
    if kind == "strip":
        return kind, KappaRect(shift, shift + period, -depth, spectral.STRIP_IM_MAX)
    if kind == "band":
        return kind, KappaRect(shift, shift + period, -1e-3, 1e-3)
    roots = kappas[kappas.imag >= -(depth or 1e-3)]
    half = STRESS_HALF_WIDTHS[rng.integers(len(STRESS_HALF_WIDTHS))]
    return f"square {half:g}", KappaRect.around(roots[rng.integers(len(roots))], half)


def stress_candidates(rng, kappas, rect):
    """The candidates with one seeded fault: a drop, a move or a spurious addition."""
    near = np.flatnonzero([spectral._copies_in(np.array([z]), rect.expanded(0.5)).size
                           for z in kappas])
    pick = int(near[rng.integers(len(near))]) if near.size else int(rng.integers(len(kappas)))
    fault = ("drop", "move", "spurious")[rng.integers(3)]
    if fault == "drop":
        return f"drop {kappas[pick]:.6g}", np.delete(kappas, pick)
    if fault == "move":
        step = 10.0 ** rng.uniform(-9, -2) * np.exp(2j * np.pi * rng.uniform())
        moved = kappas.copy()
        moved[pick] += step
        return f"move {kappas[pick]:.6g} by {step:.2e}", moved
    # A point on the boundary, then pushed off it by nothing, a little, or far.
    corners = rect.corners()
    side = int(rng.integers(4))
    a, b = corners[side], corners[(side + 1) % 4]
    outward = -1j * (b - a) / abs(b - a)
    where = ("on", "near", "far")[rng.integers(3)]
    offset = {"on": 0.0, "near": 10.0 ** rng.uniform(-9, -3), "far": 0.25}[where]
    z = a + (b - a) * rng.uniform() + outward * offset * rng.choice([-1.0, 1.0])
    if where == "far" and not rect.contains(z):
        z = complex(0.5 * (rect.re_min + rect.re_max), 0.5 * (rect.im_min + rect.im_max))
    return f"spurious {where} {z:.6g}", np.append(kappas, z)


def test_bad_candidates_never_change_a_count(monkeypatch):
    # Seeded sample of the drops, moves and spurious candidates a wrong
    # eigenvalue solver could hand the deflated winding: each must cost
    # points only, never the count.  The reference is the number of zeros
    # the eigenproblem puts inside, which no quadrature floor enters; the
    # unperturbed winding must give it too.  Refusing is allowed but rare.
    full = spectral._zero_candidates
    current = {}
    monkeypatch.setattr(spectral, "_zero_candidates", lambda fam: current["kappas"])
    fields = [(name, build(), depth) for name, build, depth in STRESS_FIELDS]
    truths = {name: full(DeterminantFamily(coin)) for name, coin, _ in fields}
    counts = {}
    rng = np.random.default_rng(20261018)
    wrong, refused = [], []
    for _ in range(STRESS_TRIALS):
        name, coin, depth = fields[rng.integers(len(fields))]
        kappas = truths[name]
        kind, rect = stress_rect(rng, kappas, depth)
        if (name, rect) not in counts:
            zeros = spectral._copies_in(kappas, rect).size
            current["kappas"] = kappas
            assert winding_number(DeterminantFamily(coin), rect) == zeros, (name, kind, rect)
            counts[name, rect] = zeros
        fault, current["kappas"] = stress_candidates(rng, kappas, rect)
        try:
            count = winding_number(DeterminantFamily(coin), rect)
        except NumericalFailure:
            refused.append(f"{name}, {kind} {rect}, {fault}")
            continue
        if count != counts[name, rect]:
            wrong.append(f"{name}, {kind} {rect}, {fault}: {count} != {counts[name, rect]}")
    assert not wrong, wrong
    assert len(refused) <= STRESS_TRIALS // 16, refused


ABOVE_AXIS = KappaRect(0.0, 2 * np.pi, 1e-6, 1.0)
PERIODIC_FIELDS = 6
PERIODIC_TRIALS = 400


def layer_bands(kappas):
    """Full-period bands whose lines run through gaps of more than twice the guard between candidates."""
    ys = np.sort(kappas.imag[kappas.imag > -2.0])
    gaps = np.flatnonzero(np.diff(ys) > 2 * spectral._PERIODIC_GAP)
    lines = 0.5 * (ys[gaps] + ys[gaps + 1])
    shift = spectral.STRIP_SHIFT
    return [KappaRect(shift, shift + 2 * np.pi, lo, hi)
            for i, lo in enumerate(lines) for hi in lines[i + 1:]]


def periodic_fault(rng, kappas, rect):
    """One seeded fault, aimed at the lines: a drop, a move or a spurious candidate."""
    gap = np.minimum(np.abs(kappas.imag - rect.im_min), np.abs(kappas.imag - rect.im_max))
    # Half the picks go to the four candidates nearest a line.
    nearest = np.argsort(gap, kind="stable")[:4]
    pick = int(nearest[rng.integers(len(nearest))] if rng.random() < 0.5
               else rng.integers(len(kappas)))
    fault = ("drop", "move", "spurious")[rng.integers(3)]
    if fault == "drop":
        return f"drop {kappas[pick]:.6g}", np.delete(kappas, pick)
    if fault == "move":
        step = 10.0 ** rng.uniform(-9, -1) * np.exp(2j * np.pi * rng.uniform())
        moved = kappas.copy()
        moved[pick] += step
        return f"move {kappas[pick]:.6g} by {step:.2e}", moved
    line = (rect.im_min, rect.im_max)[rng.integers(2)]
    z = complex(rng.uniform(-np.pi, np.pi), line + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9, -1))
    return f"spurious {z:.6g}", np.append(kappas, z)


def test_bad_candidates_never_change_a_periodic_count(monkeypatch):
    # The periodic rule cannot tell on which side of a line a pole lies, so
    # a candidate moved across a line, dropped or added next to one must
    # make it decline or leave its count right.  Bands: the one above the
    # axis, and bands between candidate layers of full strips.  The adaptive
    # rule, stressed above, is made to refuse: each count that comes back
    # is the periodic rule's.
    full = spectral._zero_candidates
    current = {}
    monkeypatch.setattr(spectral, "_zero_candidates", lambda fam: current["kappas"])

    def refuse(fam, rect, poles=None):
        raise spectral._EdgeTrouble("the adaptive rule is left out")

    monkeypatch.setattr(spectral, "_winding", refuse)
    rng = np.random.default_rng(20261019)
    cases = []
    for seed in rng.integers(2**31, size=PERIODIC_FIELDS):
        coin = random_coin_field(1, int(seed))
        kappas = full(DeterminantFamily(coin))
        for rect in [ABOVE_AXIS] + layer_bands(kappas):
            truth = spectral._copies_in(kappas, rect).size
            current["kappas"] = kappas
            assert winding_number(DeterminantFamily(coin), rect) == truth, rect
            cases.append((coin, kappas, rect, truth))
    wrong, decided = [], 0
    for _ in range(PERIODIC_TRIALS):
        coin, kappas, rect, truth = cases[rng.integers(len(cases))]
        fault, current["kappas"] = periodic_fault(rng, kappas, rect)
        try:
            count = winding_number(DeterminantFamily(coin), rect)
        except NumericalFailure:
            continue
        decided += 1
        if count != truth:
            wrong.append(f"{rect}, {fault}: {count} != {truth}")
    assert not wrong, wrong
    # Small moves and faults far from the lines leave the rule deciding.
    assert decided >= PERIODIC_TRIALS // 5, decided


def dlogs_batches(monkeypatch):
    """The sizes of the DeterminantFamily.dlogs batches evaluated from now on."""
    batch = DeterminantFamily.dlogs
    sizes = []

    def spy(self, kappas):
        sizes.append(len(kappas))
        return batch(self, kappas)

    monkeypatch.setattr(DeterminantFamily, "dlogs", spy)
    return sizes


def test_above_axis_winding_is_one_periodic_batch(monkeypatch):
    sizes = dlogs_batches(monkeypatch)
    assert winding_number(random_coin_field(1, seed=2), ABOVE_AXIS) == 0
    assert sizes == [32]


def test_strip_next_to_eigenvalues_falls_back_to_the_adaptive_rule(monkeypatch):
    # The strip's top line passes 1e-6 above the axis eigenvalues, inside
    # the guard, so locate_roots winds it adaptively, on a window pi wide:
    # 344 points, and 8 circles of 32 for the 16 roots (1,056 points when
    # the whole strip and every root's circle were evaluated).
    sizes = dlogs_batches(monkeypatch)
    assert len(locate_roots(make_corner_family(2, 2, 0.2, "one-corner").coin)) == 16
    assert sum(sizes) == 600


HALF_WINDOW_FIELDS = (
    [(f"{p} {m0}x{n0} eps {eps}", lambda p=p, m0=m0, n0=n0, eps=eps:
      make_corner_family(m0, n0, eps, p).coin, 2.0)
     for p in CORNER_PRESETS for m0, n0, eps in ((1, 1, 0.3), (2, 2, 0.2))]
    + [(f"r1 seed {s}", lambda s=s: random_coin_field(1, s), 0.5) for s in range(6)]
)


@pytest.mark.parametrize("name, build, depth", HALF_WINDOW_FIELDS,
                         ids=[name for name, _, _ in HALF_WINDOW_FIELDS])
def test_half_period_window_counts_half_the_band(name, build, depth):
    # D(kappa + pi) = D(kappa): twice the deflated winding of the window pi
    # wide is the deflated winding of the whole band, and the candidates'
    # count of it.
    fam = DeterminantFamily(build())
    band = KappaRect(spectral.STRIP_SHIFT, spectral.STRIP_SHIFT + 2 * np.pi, -depth,
                     spectral.STRIP_IM_MAX)
    half = spectral._half_period_window(fam.candidates, band)
    assert half.width == pytest.approx(np.pi, abs=1e-15)
    assert (half.im_min, half.im_max) == (band.im_min, band.im_max)
    full = spectral._winding(fam, band, spectral._deflation_poles(fam.candidates, band))
    assert 2 * spectral._winding(fam, half, spectral._deflation_poles(fam.candidates, half)) == full
    assert full == spectral._copies_in(fam.candidates, band).size


def circular_distances(a, b):
    """|a_i - b_j| with the real parts compared modulo 2 pi."""
    offset = np.subtract.outer(np.asarray(a), np.asarray(b))
    return np.abs((offset.real + np.pi) % (2 * np.pi) - np.pi + 1j * offset.imag)


@pytest.mark.parametrize("preset", ["one-corner", "phase-corner"])
def test_a_full_period_region_holds_a_zero_on_its_seam_once(preset):
    # The region's vertical edges run through the eigenvalue at 0 and, for
    # one-corner, the resonance below it.  Half-open in Re, it holds the
    # default strip's 8 zeros, each once.
    fam = DeterminantFamily(make_corner_family(1, 1, 0.2, preset).coin)
    seam = KappaRect(0.0, 2 * np.pi, spectral.STRIP_IM_MIN, spectral.STRIP_IM_MAX)
    strip = locate_roots(fam)
    assert len(strip) == 8
    assert winding_number(fam, seam) == 8
    roots = locate_roots(fam, seam)
    assert [r.multiplicity for r in roots] == [1] * 8
    close = circular_distances([r.kappa for r in roots], [r.kappa for r in strip]) <= 1e-9
    assert np.all(close.sum(axis=0) == 1) and np.all(close.sum(axis=1) == 1)


@pytest.mark.parametrize("re_min", [0.0, 1.0, -np.pi])
@pytest.mark.parametrize("preset", CORNER_PRESETS)
def test_a_full_period_region_reports_its_zeros_inside(preset, re_min):
    # Phase-corner's candidate at -3.35e-18 has its copy at -3.35e-18 + 2 pi,
    # which rounds to 2 pi: the region [0, 2 pi) must still report it at 0.
    fam = DeterminantFamily(make_corner_family(1, 1, 0.2, preset).coin)
    region = KappaRect(re_min, re_min + 2 * np.pi, spectral.STRIP_IM_MIN, spectral.STRIP_IM_MAX)
    assert region.width == 2 * np.pi
    strip = locate_roots(fam)
    roots = locate_roots(fam, region)
    assert sum(r.multiplicity for r in roots) == sum(r.multiplicity for r in strip)
    for root in roots:
        assert region.re_min <= root.kappa.real < region.re_max, root
        assert root.residual == fam.abs_det(root.kappa) <= spectral.ROOT_RESIDUAL_TOL
    close = circular_distances([r.kappa for r in roots], [r.kappa for r in strip]) <= 1e-9
    assert np.all(close.sum(axis=0) == 1) and np.all(close.sum(axis=1) == 1)


SEAM_STARTS = np.arange(-140, 140) * 0.05


def test_a_band_built_one_period_wide_is_periodic():
    # (a + 2 pi) - a rounds away from 2 pi for some of these starts, so the
    # width cannot tell; a band built as KappaRect(a, a + 2 pi) is periodic.
    assert all(KappaRect(a, a + spectral.TWO_PI, -2.0, 1e-6).periodic for a in SEAM_STARTS)
    assert any(KappaRect(a, a + spectral.TWO_PI, -2.0, 1e-6).width != spectral.TWO_PI
               for a in SEAM_STARTS)
    assert all(spectral.default_strip(-d).periodic for d in (0.5, 1.0, 2.0))
    assert spectral.default_strip(-0.5) == KappaRect(
        spectral.STRIP_SHIFT, spectral.STRIP_SHIFT + 2 * np.pi, -0.5, spectral.STRIP_IM_MAX)
    assert not KappaRect(0.0, 2 * np.pi - 1e-9, -2.0, 1e-6).periodic


@pytest.mark.parametrize("bounds", [(0.0, np.inf, -1.0, 1.0), (0.0, 1.0, -np.inf, 1.0),
                                    (np.nan, 1.0, -1.0, 1.0), (0.0, 1.0, -1.0, np.nan)])
def test_a_rectangle_refuses_a_bound_that_is_not_finite(bounds):
    with pytest.raises(ValueError, match="not finite"):
        KappaRect(*bounds)


@pytest.mark.parametrize("start", [3 * np.pi / 4, 5 * np.pi / 4, 7 * np.pi / 4, 1.8])
@pytest.mark.parametrize("preset", CORNER_PRESETS)
def test_a_band_whose_width_rounds_off_two_pi_holds_its_zeros_once(preset, start):
    # Zeros lie at multiples of pi / 4, so the first three starts put zeros
    # on the seam; for all four, (start + 2 pi) - start != 2 pi.
    fam = DeterminantFamily(make_corner_family(2, 2, 0.2, preset).coin)
    band = KappaRect(start, start + spectral.TWO_PI, -2.0, 1e-6)
    assert band.width != spectral.TWO_PI
    roots = locate_roots(fam, band)
    assert sum(r.multiplicity for r in roots) == 16
    assert all(band.re_min <= r.kappa.real < band.re_max for r in roots), roots
    apart = circular_distances([r.kappa for r in roots], [r.kappa for r in roots])
    assert np.all(apart[~np.eye(len(roots), dtype=bool)] > 1e-9)


def test_a_band_whose_width_rounds_off_two_pi_is_counted_by_the_periodic_rule(monkeypatch):
    # The band at 1.8 costs what the band at 1.0 does: the periodic rule,
    # not the adaptive rule on a closed rectangle.
    dlogs = DeterminantFamily.dlogs
    points = []

    def spy(self, kappas):
        points.append(np.asarray(kappas).size)
        return dlogs(self, kappas)

    monkeypatch.setattr(DeterminantFamily, "dlogs", spy)
    coin = make_corner_family(2, 2, 0.2, "one-corner").coin
    cost = {}
    for start in (1.0, 1.8):
        points.clear()
        locate_roots(DeterminantFamily(coin), KappaRect(start, start + spectral.TWO_PI, -2.0, 1e-6))
        cost[start] = sum(points)
    assert cost == {1.0: 600, 1.8: 600}


def test_a_cluster_split_by_the_seam_is_one_group(monkeypatch):
    # The closed loop's double zero at 0, with its two candidates moved
    # 1e-9 to either side of the seam: one group of two, not two of one.
    full = spectral._zero_candidates

    def split(fam):
        kappas = full(fam).copy()
        at_zero = np.flatnonzero(np.abs(kappas) < 1e-12)
        assert at_zero.size == 2
        kappas[at_zero] = [-1e-9, 1e-9]
        return kappas

    monkeypatch.setattr(spectral, "_zero_candidates", split)
    fam = DeterminantFamily(CoinField(1, one_corner_coins(0.0)))
    seam = KappaRect(0.0, 2 * np.pi, spectral.STRIP_IM_MIN, spectral.STRIP_IM_MAX)
    assert [len(group) for group in spectral._group_in_region(fam.candidates, seam)] == [2] * 4
    roots = locate_roots(fam, seam)
    assert [r.multiplicity for r in roots] == [2] * 4
    assert np.all(circular_distances([r.kappa for r in roots], np.pi / 2 * np.arange(4)).min(axis=1)
                  <= 1e-8)


def circle_centres(monkeypatch):
    """The centres of the verification circles drawn from now on."""
    circle = spectral._circle_dlog_integrals
    centres = []

    def spy(fam, center, radius):
        centres.append(center)
        return circle(fam, center, radius)

    monkeypatch.setattr(spectral, "_circle_dlog_integrals", spy)
    return centres


def test_a_root_pi_from_a_certified_one_draws_no_circle(monkeypatch):
    # The 16 roots come in 8 pairs kappa, kappa + pi; the second of each
    # pair takes the first's certificate.
    centres = circle_centres(monkeypatch)
    roots = locate_roots(make_corner_family(2, 2, 0.2, "one-corner").coin)
    assert len(roots) == 16
    assert len(centres) == 8
    assert max(np.real(centres)) < np.pi


def test_a_partner_of_another_multiplicity_draws_its_own_circle(monkeypatch):
    # The eigenvalue at pi is pi from the one at 0.  Given two candidates,
    # its group claims multiplicity 2 where its partner has 1, so it must be
    # certified on its own circle, and that certificate fails.
    fam = DeterminantFamily(CoinField(1, one_corner_coins(0.6)))
    centres = circle_centres(monkeypatch)
    assert len(locate_roots(fam)) == 8
    assert len(centres) == 4 and min(circular_distances([np.pi], centres)[0]) > 1.0
    grouped = spectral._group_in_region

    def doubled(kappas, rect):
        groups = grouped(kappas, rect)
        return [group * 2 if abs(group[0] - np.pi) < 1e-9 else group for group in groups]

    monkeypatch.setattr(spectral, "_group_in_region", doubled)
    centres.clear()
    with pytest.raises(NumericalFailure, match=r"multiplicity 2 near \(3\.14159"):
        locate_roots(fam)
    assert abs(centres[-1] - np.pi) < 1e-9


def companion_kappas(fam):
    """Every zero of D from a block companion of the coefficients of M.

    D = det(I + sum_n C_n z^n) with z = e^{i kappa} and C_n the part of coeff
    with exponent n.  The reversed polynomial is monic, so its companion
    holds every finite zero y = 1/z = e^{-i kappa}; y = 0 is z at infinity.
    Nothing here touches the box walk that supplies locate_roots' candidates.
    """
    m, top = fam.m, int(fam.expo.max())
    comp = np.zeros((m * top, m * top), dtype=complex)
    comp[: m * (top - 1), m:] = np.eye(m * (top - 1))
    for n in range(1, top + 1):
        comp[m * (top - 1):, m * (top - n): m * (top - n + 1)] = -np.where(
            fam.expo == n, fam.coeff, 0.0)
    ys = np.linalg.eigvals(comp)
    ys = ys[ys != 0]
    return -np.angle(ys) + 1j * np.log(np.abs(ys))


TWO_ENGINE_FIELDS = (
    [(f"r1 seed {s}", lambda s=s: random_coin_field(1, s), 0.5) for s in range(6)]
    + [(f"r2 seed {s}", lambda s=s: random_coin_field(2, s, density=0.4), 0.5) for s in range(3)]
    + [(f"{p} {m0}x{n0} eps {eps}", lambda p=p, m0=m0, n0=n0, eps=eps:
        make_corner_family(m0, n0, eps, p).coin, 2.0)
       for p in CORNER_PRESETS for m0, n0, eps in ((1, 1, 0.3), (2, 1, 0.1), (2, 2, 0.2))]
)


@pytest.mark.parametrize("name, build, depth", TWO_ENGINE_FIELDS,
                         ids=[name for name, _, _ in TWO_ENGINE_FIELDS])
def test_locate_roots_agrees_with_the_companion(name, build, depth):
    assert_roots_match_the_companion(DeterminantFamily(build()), depth, 1e-8)


def assert_roots_match_the_companion(fam, depth, tol):
    # Two engines: locate_roots takes its candidates from the box walk, the
    # companion from the kernel coefficients.  Zeros within 1e-6 of the
    # bottom edge are left out on both sides, where either may fall outside.
    region = KappaRect(spectral.STRIP_SHIFT, spectral.STRIP_SHIFT + 2 * np.pi, -depth,
                       spectral.STRIP_IM_MAX)
    zeros = companion_kappas(fam)
    assert zeros.imag.max() <= 1e-8
    zeros = zeros[zeros.imag >= -depth + 1e-6]
    roots = [r for r in locate_roots(fam, region) if r.kappa.imag >= -depth + 1e-6]
    assert sum(r.multiplicity for r in roots) == len(zeros)
    free = np.ones(len(zeros), dtype=bool)
    for root in roots:
        offset = zeros - root.kappa
        dist = np.abs((offset.real + np.pi) % (2 * np.pi) - np.pi + 1j * offset.imag)
        nearest = np.argsort(np.where(free, dist, np.inf), kind="stable")[: root.multiplicity]
        assert dist[nearest].max() <= tol, (root, zeros[nearest])
        free[nearest] = False


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), density=st.floats(0.2, 1.0))
def test_sampled_root_sets_agree_with_the_companion(seed, density):
    fam = DeterminantFamily(random_coin_field(1, seed, density=density))
    assume(fam.coeff.any())
    assert_roots_match_the_companion(fam, 0.5, 1e-6)


def window_norm(u, radius):
    """The norm of u on the sites with max(|x1|, |x2|) <= radius."""
    return float(np.sqrt(sum(np.sum(np.abs(vec) ** 2) for (x1, x2), vec in u.items()
                             if max(abs(x1), abs(x2)) <= radius)))


def decay_rates(coin, radius, times):
    """log(n_b / n_a) / (b - a) over consecutive times of the window norm n from delta((0, 0), LEFT)."""
    op, u = WalkOperator(coin), WalkState.delta((0, 0), LEFT)
    norms = [window_norm(evolve(op, u, t), radius) for t in times]
    return [np.log(nb / na) / (b - a) for na, nb, a, b in zip(norms, norms[1:], times, times[1:])]


def test_the_window_decays_at_the_rate_of_the_roots():
    # A third engine, sharing no code with the determinant: outside the box
    # the coin is the identity, so what leaves the window never comes back,
    # and the window's norm decays as e^{t Im kappa} for the slowest root.
    # Every root of two-corner 2x2 at eps 0.2 has the same Im kappa.
    coin = make_corner_family(2, 2, 0.2, "two-corner").coin
    rates = decay_rates(coin, 3, (1000, 2000, 3000))
    for root in locate_roots(coin):
        assert root.kappa.imag == pytest.approx(-0.002551374658, abs=1e-12)
        for rate in rates:
            assert abs(rate - root.kappa.imag) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 5, 7])
def test_r1_windows_decay_at_the_rate_of_the_slowest_root(seed):
    # By t = 300 the other roots' shares have fallen far enough that the
    # rate over 300 -> 400 is the slowest root's to 1e-3 (seed 1 is the
    # closest, at 3.6e-5).
    coin = random_coin_field(1, seed)
    region = KappaRect(spectral.STRIP_SHIFT, spectral.STRIP_SHIFT + 2 * np.pi, -0.5,
                       spectral.STRIP_IM_MAX)
    slowest = max(root.kappa.imag for root in locate_roots(coin, region))
    [rate] = decay_rates(coin, 2, (300, 400))
    assert abs(rate - slowest) <= 1e-3


def test_locate_roots_evaluates_few_points(monkeypatch):
    # Deflation and the circle certificates keep the strip winding and the
    # verifications to a few points per root; the plain adaptive windings
    # needed 28,520 on this preset.
    batch = DeterminantFamily.dlogs
    points = []

    def spy(self, kappas):
        points.append(len(kappas))
        return batch(self, kappas)

    monkeypatch.setattr(DeterminantFamily, "dlogs", spy)
    assert len(locate_roots(make_corner_family(2, 2, 0.2, "one-corner").coin)) == 16
    assert sum(points) < 3000


def test_verify_root_refuses_a_wrong_multiplicity():
    fam = DeterminantFamily(make_corner_family(2, 2, 0.2, "one-corner").coin)
    for root in locate_roots(fam):
        assert spectral._verify_root(fam, root.kappa, root.multiplicity)
        assert not spectral._verify_root(fam, root.kappa, root.multiplicity + 1)


def test_verify_root_falls_back_to_the_square(monkeypatch):
    fam = DeterminantFamily(CoinField(1, one_corner_coins(0.0)))
    roots = locate_roots(fam)
    monkeypatch.setattr(spectral, "_circle_dlog_integrals",
                        lambda fam, z, radius: np.array([np.nan, np.inf]))
    for root in roots:
        assert root.multiplicity == 2
        assert spectral._verify_root(fam, root.kappa, 2)
        assert not spectral._verify_root(fam, root.kappa, 1)
    assert locate_roots(fam) == roots


def test_residual_refusal_reports_the_distance_to_the_zero(monkeypatch):
    monkeypatch.setattr(spectral, "ROOT_RESIDUAL_TOL", 1e-300)
    with pytest.raises(NumericalFailure, match=r"\|D'\| = \S+, so the zero is about \|D\|/\|D'\| = "):
        locate_roots(CoinField(1, one_corner_coins(0.6)))


def test_residual_refusal_reports_the_residual_relative_to_hadamard(monkeypatch):
    # The refusal gives |D| over the product of the row norms of I + M at the
    # refused kappa, which bounds |D|: a ratio near rounding level tells a
    # refusal of a true zero from a real failure.
    monkeypatch.setattr(spectral, "ROOT_RESIDUAL_TOL", 1e-300)
    fam = DeterminantFamily(CoinField(1, one_corner_coins(0.6)))
    with pytest.raises(NumericalFailure) as refusal:
        locate_roots(fam)
    message = str(refusal.value)
    kappa = complex(message.split()[2])
    reported = float(message.split("prod_i ||row_i(I + M)|| = ")[1])
    rows = np.linalg.norm(fam.matrices(np.array([kappa]))[0] + np.eye(fam.m), axis=1)
    assert reported == pytest.approx(fam.abs_det(kappa) / np.prod(rows), rel=0.06, abs=0.0)
    assert reported < 1e-12


@pytest.mark.parametrize("seed, low, high", [(14, 1e-3, 1.0), (4, 0.0, 1e-8)])
def test_residual_refusal_names_the_attainable_floor(seed, low, high):
    # No kappa in floating point gets |D| much below |D'| ulp(kappa): on r1
    # seed 14 (|D'| = 4.1e12) that floor is above the bound, so no Newton
    # step could certify the zero; on seed 4 it is 8e-10, below the bound.
    with pytest.raises(NumericalFailure) as refusal:
        locate_roots(random_coin_field(1, seed))
    message = str(refusal.value)
    kappa = complex(message.split()[2])
    derivative = float(message.split("|D'| = ")[1].split(",")[0])
    floor = float(message.split("|D'| * ulp(kappa) = ")[1].split(";")[0])
    assert floor == pytest.approx(derivative * np.spacing(abs(kappa)), rel=0.05)
    assert low <= floor < high


def test_winding_vanishes_above_the_axis():
    for seed in (2, 9, 23):
        coin = random_coin_field(1, seed=seed)
        rect = KappaRect(0.3, 2.9, 1e-6, 1.2)
        assert winding_number(coin, rect) == 0


# ---------------------------------------------------------------------------
# Resolvent application and Riesz projections
# ---------------------------------------------------------------------------


def test_resolvent_apply_solves_walk_equation_below_axis():
    coin = random_coin_field(1, seed=29)
    op = WalkOperator(coin)
    kappa = 0.4 - 0.3j
    w = np.exp(-1j * kappa)
    # The second source sits outside the override box, on a left mover
    # that enters it along row 0.
    for f in (
        WalkState.delta((0, 0), RIGHT, 1.0).plus(WalkState.delta((1, -1), UP, 0.5j)),
        WalkState.delta((3, 0), LEFT),
    ):
        u = resolvent_apply(coin, kappa, f, radius=8)
        pushed = apply_walk(op, u)
        for x1 in range(-7, 8):
            for x2 in range(-7, 8):
                site = (x1, x2)
                res = pushed.amplitude(site) - w * u.amplitude(site) - f.amplitude(site)
                assert np.max(np.abs(res)) < 1e-9


def loop_eigenfunction(kappa, plus=True):
    """Eigenfunctions of the closed 2x2 permutation loop at e^{-i kappa}."""
    ph = np.exp(1j * kappa)
    amp = {}

    def put(site, j, value):
        v = amp.setdefault(site, np.zeros(4, dtype=complex))
        v[j] = value

    if plus:
        put((0, 0), LEFT, 1.0)
        put((0, 1), UP, ph)
        put((1, 1), RIGHT, ph**2)
        put((1, 0), DOWN, ph**3)
    else:
        put((0, 0), DOWN, 1.0)
        put((1, 0), RIGHT, ph)
        put((1, 1), UP, ph**2)
        put((0, 1), LEFT, ph**3)
    return WalkState(amp)


def test_loop_eigenfunctions_are_exact():
    coin = CoinField(1, one_corner_coins(0.0))
    op = WalkOperator(coin)
    for k in range(4):
        kappa = np.pi * k / 2.0
        for plus in (True, False):
            f = loop_eigenfunction(kappa, plus)
            assert apply_walk(op, f).allclose(f.scaled(np.exp(-1j * kappa)), tol=1e-12)


def test_projection_on_eigenspace_returns_squared_norm():
    coin = CoinField(1, one_corner_coins(0.0))
    f = loop_eigenfunction(0.0, plus=True)
    val = projection_element(coin, KappaRect.around(0j, 0.3), f, f)
    assert val == pytest.approx(f.norm() ** 2, abs=1e-6)


def test_projection_annihilates_other_eigenspaces():
    coin = CoinField(1, one_corner_coins(0.0))
    f = loop_eigenfunction(np.pi / 2.0, plus=True)
    val = projection_element(coin, KappaRect.around(0j, 0.3), f, f)
    assert abs(val) < 1e-6
    g = loop_eigenfunction(0.0, plus=False)
    cross = projection_element(coin, KappaRect.around(0j, 0.3), f, g)
    assert abs(cross) < 1e-6


def test_projection_is_additive_over_disjoint_loops():
    coin = CoinField(1, one_corner_coins(0.6))
    rng = np.random.default_rng(77)
    f = WalkState({(0, 0): rng.standard_normal(4) + 1j * rng.standard_normal(4)})
    g = WalkState({(1, 1): rng.standard_normal(4) + 1j * rng.standard_normal(4)})
    both = projection_element(coin, KappaRect(-0.4, np.pi / 2 + 0.4, -0.4, 0.3), f, g)
    first = projection_element(coin, KappaRect.around(0j, 0.3), f, g)
    second = projection_element(coin, KappaRect.around(complex(np.pi / 2, 0.0), 0.3), f, g)
    assert both == pytest.approx(first + second, abs=1e-6)


def test_projection_at_resonance_is_stable_in_the_loop():
    eps = 0.6
    coin = CoinField(1, one_corner_coins(eps))
    kappa0 = complex(0.0, np.log(1 - eps**2) / 8.0)
    f = WalkState.delta((0, 0), LEFT)
    small = projection_element(coin, KappaRect.around(kappa0, 0.012), f, f)
    large = projection_element(coin, KappaRect.around(kappa0, 0.025), f, f)
    assert abs(small) > 1e-3
    assert small == pytest.approx(large, abs=1e-6)


def test_empty_loop_has_zero_projection():
    coin = CoinField(1, one_corner_coins(0.6))
    f = WalkState.delta((0, 0), LEFT)
    val = projection_element(coin, KappaRect.around(0.7 - 0.01j, 0.05), f, f)
    assert abs(val) < 1e-7


def test_projection_gives_up_after_the_last_level(monkeypatch):
    # Sums that never settle stop at _MAX_LOOP_SAMPLES + 1 points per edge.
    rng = np.random.default_rng(0)
    points = []

    def noise(self, kappas):
        points.append(len(kappas))
        return rng.standard_normal(len(kappas)) + 1j * rng.standard_normal(len(kappas))

    monkeypatch.setattr(ResolventPairing, "values", noise)
    coin = CoinField(1, one_corner_coins(0.6))
    f = WalkState.delta((0, 0), LEFT)
    with pytest.raises(NumericalFailure, match="did not converge"):
        projection_element(coin, KappaRect.around(0j, 0.3), f, f)
    assert sum(points) == 4 * (2**15 + 1)


def test_projection_refuses_a_non_finite_sum_at_once(monkeypatch):
    points = []

    def one_nan(self, kappas):
        points.append(len(kappas))
        values = np.ones(len(kappas), dtype=complex)
        if len(points) == 1:
            values[3] = np.nan
        return values

    monkeypatch.setattr(ResolventPairing, "values", one_nan)
    coin = CoinField(1, one_corner_coins(0.6))
    f = WalkState.delta((0, 0), LEFT)
    with pytest.raises(NumericalFailure, match="not finite at 17 points per edge"):
        projection_element(coin, KappaRect.around(0j, 0.3), f, f)
    assert sum(points) == 68


def test_projection_through_an_eigenvalue_raises_without_warnings():
    # The left edge's midpoint is kappa = 0 to the bit, an eigenvalue of the
    # closed loop, where the triangular solve divides by an exact zero.
    coin = CoinField(1, one_corner_coins(0.0))
    f = loop_eigenfunction(0.0, plus=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="passes through a pole"):
            projection_element(coin, KappaRect(0.0, 1.0, -0.5, 0.5), f, f)


# ---------------------------------------------------------------------------
# Two resolvent engines: Schur back substitution and one dense solve
# ---------------------------------------------------------------------------

ENGINE_COINS = {
    "r1": lambda seed: random_coin_field(1, seed),
    "r2": lambda seed: random_coin_field(2, seed),
    "shape M0=1": lambda seed: make_shape_family(BarrierSpec(1), 0.1 * seed).coin,
    "shape M0=2": lambda seed: make_shape_family(BarrierSpec(2), 0.1 * seed).coin,
    "one-corner 1x1": lambda seed: make_corner_family(1, 1, 0.1 * seed, "one-corner").coin,
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", list(ENGINE_COINS))
def test_schur_values_match_the_dense_solve(name, seed):
    coin = ENGINE_COINS[name](seed)
    rng = np.random.default_rng(seed)
    f = random_state(int(rng.integers(2**31)), span=3)
    g = random_state(int(rng.integers(2**31)), span=3)
    kappas = rng.uniform(0.0, 2 * np.pi, 40) + 1j * rng.uniform(-1.5, 1.0, 40)
    pairing = ResolventPairing(coin, f, g)
    batch = pairing.values(kappas)
    for kappa, value in zip(kappas, batch):
        dense = resolvent_matrix_element(coin, kappa, f, g)
        assert abs(value - dense) <= 1e-10 * abs(dense), (kappa, value, dense)
    one_at_a_time = np.array([pairing.values([kappa])[0] for kappa in kappas])
    assert np.array_equal(one_at_a_time, batch)


def test_both_resolvent_engines_match_a_40_digit_solve():
    mpmath = pytest.importorskip("mpmath")
    coin = make_shape_family(BarrierSpec(1), 0.2).coin
    f, g = random_state(3, span=1, n_sites=2), random_state(4, span=1, n_sites=2)
    # 0.03 from the double resonance at pi/2 - 0.0102i.
    kappa = np.pi / 2 + 0.03 - 0.01j
    pairs, matrix, source = spectral._box_system(coin, f, g.sites())
    probe = np.conj([g.component(x, j) for x, j in pairs])
    with mpmath.workdps(40):
        w = mpmath.exp(-1j * mpmath.mpc(kappa))
        a = mpmath.matrix(matrix.tolist()) - w * mpmath.eye(len(pairs))
        u = mpmath.lu_solve(a, mpmath.matrix(source.tolist()))
        exact = complex(mpmath.fsum(u[i] * probe[i] for i in range(len(pairs))))
    for value in (ResolventPairing(coin, f, g).values([kappa])[0],
                  resolvent_matrix_element(coin, kappa, f, g)):
        assert abs(value - exact) <= 1e-11 * abs(exact)


def _reference_values(pairing, kappas):
    """<R f, g> by the back substitution over every Schur step."""
    kappas = np.asarray(list(kappas), dtype=complex)
    out = np.zeros(len(kappas), dtype=complex)
    t = pairing.triangle
    n = len(t)
    chunk = max(1, spectral._CHUNK_ENTRIES // max(1, n))
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, len(kappas), chunk):
            w = np.exp(-1j * kappas[lo : lo + chunk])
            r = np.repeat(pairing.source[:, None], len(w), axis=1)
            acc = out[lo : lo + chunk]
            for k in range(n - 1, -1, -1):
                x = r[k] / (t[k, k] - w)
                r[:k] -= t[:k, k, None] * x
                acc += pairing.weights[k] * x
    return out


def assert_same_bits(values, reference):
    assert values.dtype == reference.dtype and values.shape == reference.shape
    differ = np.flatnonzero(np.any(np.ascontiguousarray(values).view(np.int64).reshape(-1, 2)
                                   != np.ascontiguousarray(reference).view(np.int64).reshape(-1, 2),
                                   axis=1))
    assert differ.size == 0, (differ[:5], values[differ[:5]], reference[differ[:5]])


@pytest.mark.parametrize("seed", range(1, 9))
@pytest.mark.parametrize("name", list(ENGINE_COINS))
def test_joining_steps_keep_every_bit(name, seed):
    # Batched, in small batches and one point at a time: the steps and the
    # rows left out change no bit.
    coin = ENGINE_COINS[name](seed)
    rng = np.random.default_rng(seed)
    f = random_state(int(rng.integers(2**31)), span=3)
    g = random_state(int(rng.integers(2**31)), span=3)
    kappas = rng.uniform(0.0, 2 * np.pi, 100) + 1j * rng.uniform(-1.5, 1.0, 100)
    pairing = ResolventPairing(coin, f, g)
    assert len(pairing.steps) < len(pairing.triangle)
    reference = _reference_values(pairing, kappas)
    assert_same_bits(pairing.values(kappas), reference)
    for size in (1, 2, 3, 7):
        assert_same_bits(np.concatenate([pairing.values(kappas[i : i + size])
                                         for i in range(0, 100, size)]), reference)


@pytest.mark.parametrize("eps", [0.3, 0.15])
def test_joining_steps_keep_every_bit_on_the_migration_loops(eps):
    # The projection_difference case of the migration benchmark: shape M0 1
    # opened at eps and 0.45 - eps, each with its sealed member.  Per member,
    # the 4 x 4,097 points of the loop's level 4,096, batched by edge as
    # projection_element takes them, and every 64th point one at a time.
    fam = make_shape_family(BarrierSpec(1), eps)
    corners = KappaRect.for_scale(np.pi / 2, eps).corners()
    probe = WalkState.delta((0, 0), LEFT)
    ts = np.linspace(0.0, 1.0, 4097)
    for coin in (fam.coin, fam.base.coin):
        pairing = ResolventPairing(coin, probe, probe)
        for a, b in zip(corners, corners[1:] + corners[:1]):
            zs = a + (b - a) * ts
            reference = _reference_values(pairing, zs)
            assert_same_bits(pairing.values(zs), reference)
            assert_same_bits(np.concatenate([pairing.values(zs[i : i + 1])
                                             for i in range(0, 4097, 64)]), reference[::64])


def test_joining_steps_on_the_barrier():
    # f = g = delta((0, 0), LEFT) on shape M0 1: the open member joins them
    # through 8 to 16 of its 24 Schur steps, the sealed member through 4.
    probe = WalkState.delta((0, 0), LEFT)
    kept = {}
    for eps in (0.05, 0.1, 0.2, 0.25, 0.4):
        fam = make_shape_family(BarrierSpec(1), eps)
        opened, sealed = (ResolventPairing(c, probe, probe) for c in (fam.coin, fam.base.coin))
        assert len(opened.triangle) == len(sealed.triangle) == 24
        assert len(sealed.steps) == 4
        assert opened.steps == sorted(opened.steps, reverse=True)
        kept[eps] = len(opened.steps)
    assert kept == {0.05: 8, 0.1: 12, 0.2: 12, 0.25: 16, 0.4: 12}


def test_joining_steps_follow_the_links_of_the_triangle():
    # source reaches step 2 only, weights read step 0 only; t links 2 -> 1 -> 0
    # and step 3 hangs off both ends.
    t = np.diag([0.5, 0.6, 0.7, 0.8]).astype(complex)
    t[1, 2] = t[0, 1] = 1.0
    t[0, 3] = 1.0
    source = np.array([0, 0, 1, 0], dtype=complex)
    weights = np.array([1, 0, 0, 0], dtype=complex)
    assert spectral._joining_steps(t, source, weights) == [2, 1, 0]
    assert spectral._joining_steps(t, source, weights[::-1]) == []
    t[1, 2] = 0.0
    assert spectral._joining_steps(t, source, weights) == []
    assert spectral._joining_steps(t, source + 1, weights) == [3, 1, 0]


# ---------------------------------------------------------------------------
# Guard rails
# ---------------------------------------------------------------------------


def test_rect_validation():
    with pytest.raises(ValueError, match="degenerate"):
        KappaRect(1.0, 1.0, 0.0, 1.0)


def test_root_spectral_parameter():
    r = Root(kappa=1.0 - 0.5j, multiplicity=1, residual=0.0, kind="resonance")
    assert r.w == pytest.approx(np.exp(-1j * (1.0 - 0.5j)))
