import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwres.lattice import (
    DOWN,
    LEFT,
    RIGHT,
    STEP_AXIS,
    STEP_SIGN,
    UP,
    CoinField,
    WalkOperator,
    WalkState,
    apply_walk,
    random_coin_field,
)
from qwres.shape import corner_quantization, make_corner_family
from qwres.translation import (
    OutgoingState,
    apply_T_theta,
    apply_U_theta,
    translation_weight,
    translation_weights,
    verify_outgoing,
)

FREE = WalkOperator(CoinField(0, {}))

complex_theta = st.builds(
    complex,
    st.floats(-3.0, 3.0, allow_nan=False),
    st.floats(-1.5, 1.5, allow_nan=False),
)


def random_state(seed, n_sites=4, span=5):
    rng = np.random.default_rng(seed)
    amp = {}
    for _ in range(n_sites):
        site = (int(rng.integers(-span, span + 1)), int(rng.integers(-span, span + 1)))
        amp[site] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return WalkState(amp)


def test_translation_weight_example():
    # A left mover at (2, 0) is weighted by e^{i theta x1}; theta = -i gives e^2.
    u = WalkState.delta((2, 0), LEFT)
    v = apply_T_theta(-1j, u)
    assert v.component((2, 0), LEFT) == pytest.approx(np.exp(2.0))


@settings(max_examples=50, deadline=None)
@given(theta=complex_theta, seed=st.integers(0, 2**31))
def test_translation_inverts(theta, seed):
    u = random_state(seed)
    v = apply_T_theta(-theta, apply_T_theta(theta, u))
    assert v.allclose(u, tol=1e-9 * max(1.0, np.exp(3 * abs(theta.imag) * 6)))


@settings(max_examples=30, deadline=None)
@given(theta=st.floats(-3.0, 3.0, allow_nan=False), seed=st.integers(0, 2**31))
def test_real_translation_is_unitary(theta, seed):
    u = random_state(seed)
    assert apply_T_theta(theta, u).norm() == pytest.approx(u.norm(), rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(theta=complex_theta, seed=st.integers(0, 2**31))
def test_free_walk_conjugation_is_a_global_phase(theta, seed):
    u = random_state(seed)
    lhs = apply_U_theta(FREE, theta, u)
    rhs = apply_walk(FREE, u).scaled(np.exp(-1j * theta))
    assert lhs.allclose(rhs, tol=1e-8 * max(1.0, np.exp(abs(theta.imag) * 8)))


@settings(max_examples=30, deadline=None)
@given(theta=st.floats(-3.0, 3.0, allow_nan=False), seed=st.integers(0, 2**31))
def test_conjugated_perturbed_walk_is_unitary_for_real_theta(theta, seed):
    op = WalkOperator(random_coin_field(2, seed=seed % 1000))
    u = random_state(seed, n_sites=5, span=3)
    v = apply_U_theta(op, theta, u)
    assert v.norm() == pytest.approx(u.norm(), rel=1e-11)


def one_corner_coins(eps):
    """Rectangular loop with corners (0,0), (1,0), (1,1), (0,1); the corner at
    the origin leaks amplitude downward with weight eps."""
    s = np.sqrt(1.0 - eps**2)

    def cols(columns):
        m = np.zeros((4, 4), dtype=complex)
        for j, col in enumerate(columns):
            m[:, j] = col
        return m

    e = np.eye(4)
    leak = cols([s * e[UP] + eps * e[DOWN], e[LEFT], e[RIGHT], -eps * e[UP] + s * e[DOWN]])
    return {
        (0, 0): leak,
        (1, 0): cols([e[RIGHT], e[UP], e[LEFT], e[DOWN]]),
        (1, 1): cols([e[RIGHT], e[DOWN], e[UP], e[LEFT]]),
        (0, 1): cols([e[DOWN], e[LEFT], e[UP], e[RIGHT]]),
    }


def corner_resonant_state(eps, k):
    """Hand-built resonant state of the leaky 2x2 loop: amplitude circulates
    left -> up -> right -> down with one factor sqrt(1-eps^2) per circuit and
    a single downward tail of weight eps from the origin."""
    s = np.sqrt(1.0 - eps**2)
    kappa = 2 * np.pi * k / 4 + 1j * np.log(s) / 4
    ph = np.exp(1j * kappa)
    amp = {}

    def put(site, j, value):
        v = amp.setdefault(site, np.zeros(4, dtype=complex))
        v[j] = value

    put((0, 0), LEFT, 1.0)
    put((0, 1), UP, ph * s)
    put((1, 1), RIGHT, ph**2 * s)
    put((1, 0), DOWN, ph**3 * s)
    put((0, -1), DOWN, eps * ph)
    put((0, -2), DOWN, eps * ph**2)
    core = WalkState(amp)
    return OutgoingState(kappa, 1, core, tail_down={0: eps})


@pytest.mark.parametrize("eps,k", [(0.6, 0), (0.6, 1), (0.3, 2), (0.9, 3)])
def test_corner_resonant_state_satisfies_walk_equation(eps, k):
    op = WalkOperator(CoinField(1, one_corner_coins(eps)))
    state = corner_resonant_state(eps, k)
    report = verify_outgoing(op, state, window=6)
    assert not report.trivial
    assert report.residual <= 1e-12 * max(1.0, report.scale)


def test_corner_resonant_state_summability_threshold():
    state = corner_resonant_state(0.6, 0)
    im = state.kappa.imag
    assert state.is_summable_after(1j * (im - 0.1))
    assert not state.is_summable_after(1j * (im + 0.1))
    assert not state.is_summable_after(0.0)


def test_wrong_kappa_leaves_a_residual():
    op = WalkOperator(CoinField(1, one_corner_coins(0.6)))
    good = corner_resonant_state(0.6, 1)
    bad = OutgoingState(good.kappa + 0.01, 1, good.core, tail_down={0: 0.6})
    report = verify_outgoing(op, bad, window=5)
    assert report.residual > 1e-3


def test_mismatched_tail_coefficient_is_detected():
    op = WalkOperator(CoinField(1, one_corner_coins(0.6)))
    good = corner_resonant_state(0.6, 1)
    bad = OutgoingState(good.kappa, 1, good.core, tail_down={0: 0.61})
    report = verify_outgoing(op, bad, window=5)
    assert report.residual > 1e-3


def test_incoming_exponential_is_rejected():
    # A full plane-wave line along x2 = 0 has an incoming half and therefore
    # cannot be written as a purely outgoing state: truncating it to the
    # outgoing convention leaves a seam the walk equation sees.
    kappa = 1.0 - 0.2j
    core = WalkState(
        {(x1, 0): np.eye(4, dtype=complex)[LEFT] * np.exp(-1j * kappa * x1) for x1 in range(-2, 3)}
    )
    state = OutgoingState(kappa, 1, core, tail_left={0: 1.0})
    report = verify_outgoing(FREE_BOX1, state, window=5)
    assert report.residual > 1e-2


FREE_BOX1 = WalkOperator(CoinField(1, {}))


def test_outgoing_state_requires_decaying_eigenvalue():
    with pytest.raises(ValueError, match="Im kappa"):
        OutgoingState(1.0 + 0.1j, 1, WalkState({}))
    with pytest.raises(ValueError, match="Im kappa"):
        OutgoingState(1.0, 1, WalkState({}))


def test_verify_outgoing_window_floor():
    state = corner_resonant_state(0.5, 0)
    op = WalkOperator(CoinField(1, one_corner_coins(0.5)))
    with pytest.raises(ValueError, match="window"):
        verify_outgoing(op, state, window=2)


def test_trivial_state_is_flagged():
    report = verify_outgoing(FREE_BOX1, OutgoingState(-0.5j, 1, WalkState({})), window=4)
    assert report.trivial


def _bits(z):
    return np.complex128(z).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(theta=complex_theta, real=st.booleans(), seed=st.integers(0, 2**31),
       span=st.sampled_from([5, 300, 2**40]))
def test_apply_T_theta_equals_the_per_entry_weight_product_to_the_bit(theta, real, seed, span):
    # Far sites only for a real theta, where no weight overflows.
    theta, span = (theta.real, span) if real else (theta, min(span, 300))
    u = random_state(seed, n_sites=8, span=span)
    v = apply_T_theta(theta, u)
    for site in u.sites():
        for j in range(4):
            want = translation_weight(theta, site, j) * u.component(site, j)
            assert _bits(v.component(site, j)) == _bits(want)
    sites = np.array([site for site in u.sites() for _ in range(4)])
    chiralities = np.tile(np.arange(4), len(u))
    weights = translation_weights(theta, sites, chiralities)
    assert [_bits(w) for w in weights] == [
        _bits(translation_weight(theta, site, j)) for site, j in zip(sites.tolist(), chiralities)]


def _reference_sample(s, radius):
    """The state on max(|x1|, |x2|) <= radius, built entry by entry from a dict."""
    r1 = s.box_radius + 1
    amp = {site: vec.copy() for site, vec in s.core.items()}
    for j, tail in enumerate(s.tails):
        sign = STEP_SIGN[j]
        ts = range(-radius, -r1) if sign < 0 else range(r1 + 1, radius + 1)
        for offset, a in tail.items():
            for t in ts:
                site = (t, offset) if STEP_AXIS[j] == 0 else (offset, t)
                vec = amp.setdefault(site, np.zeros(4, dtype=complex))
                vec[j] += a * np.exp(sign * 1j * s.kappa * t)
    return amp


@pytest.mark.parametrize("preset", ["one-corner", "two-corner", "phase-corner"])
def test_sample_equals_the_dict_reference_to_the_bit(preset):
    fam = make_corner_family(2, 1, 0.3, preset)
    for mode in corner_quantization(fam).resonances():
        for radius in (fam.box_radius, fam.box_radius + 2, fam.box_radius + 9):
            got = mode.state.sample(radius)
            want = _reference_sample(mode.state, radius)
            assert [(site, vec.tobytes()) for site, vec in got.items()] == [
                (site, vec.tobytes()) for site, vec in want.items()]


def _first_one_corner_resonance():
    fam = make_corner_family(1, 1, 0.3, "one-corner")
    return fam.operator, corner_quantization(fam).resonances()[0].state


def test_verify_outgoing_does_not_hide_a_nan_tail_coefficient():
    op, s = _first_one_corner_resonance()
    assert verify_outgoing(op, s, window=6).residual <= 1e-12
    tails = [dict(t) for t in s.tails]
    j = next(j for j, t in enumerate(tails) if t)
    tails[j][next(iter(tails[j]))] = complex(np.nan, 0.0)
    bad = OutgoingState(s.kappa, s.box_radius, s.core, *tails)
    assert not verify_outgoing(op, bad, window=6).residual <= 1e-12


def test_verify_outgoing_does_not_hide_a_nan_core_amplitude():
    op, s = _first_one_corner_resonance()
    amp = dict(s.core.items())
    site = next(iter(amp))
    amp[site] = amp[site].copy()
    amp[site][np.flatnonzero(amp[site])[0]] = np.nan
    bad = OutgoingState(s.kappa, s.box_radius, WalkState(amp), *s.tails)
    assert not verify_outgoing(op, bad, window=6).residual <= 1e-12
