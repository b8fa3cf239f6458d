"""Tests for the eps-families: opened corners and woven walls."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwres.barrier import TRIVIAL_WALL_COIN, BarrierSpec, build_nonpenetrable
from qwres.lattice import (
    DOWN,
    LEFT,
    RIGHT,
    STEPS,
    UP,
    CoinField,
    WalkState,
    apply_walk,
    random_unitary_coin,
    unitarity_residual,
)
from qwres.shape import (
    CORNER_PRESETS,
    MINUS,
    PLUS,
    CornerFamily,
    ShapeFamily,
    circulation_factor,
    circulation_slots,
    closed_spectrum_phases,
    condition_c_check,
    corner_quantization,
    corner_sites,
    elastic_corner_coins,
    make_corner_family,
    make_shape_family,
    migration_scan,
    perturbation_identities,
    projection_difference,
    rebuild_family,
)
from qwres.spectral import (KappaRect, NumericalFailure, ResolventPairing, locate_roots,
                            projection_element)
from qwres.translation import verify_outgoing

TWO_PI = 2.0 * math.pi


def max_pointwise_diff(a, b):
    total = 0.0
    for site in set(a.sites()) | set(b.sites()):
        total = max(total, float(np.max(np.abs(a.amplitude(site) - b.amplitude(site)))))
    return total


def rotated_wall_coin(phi):
    """A legal side-wall coin for box radius 2 that differs from the mirror.

    The pinned row of the (2, 0) wall is left untouched; the free
    (down, up) block is the mirror swap followed by a rotation.
    """
    c, s = math.cos(phi), math.sin(phi)
    block = np.array([[0.0, 1.0], [1.0, 0.0]]) @ np.array([[c, -s], [s, c]])
    m = np.array(TRIVIAL_WALL_COIN, dtype=complex)
    m[np.ix_((DOWN, UP), (DOWN, UP))] = block
    return m


class TestCornerFamily:
    @pytest.mark.parametrize("m0,n0", [(1, 1), (2, 2), (3, 1)])
    def test_closed_rectangle_keeps_every_mode(self, m0, n0):
        fam = make_corner_family(m0, n0, 0.0)
        assert circulation_factor(fam, PLUS) == pytest.approx(1.0)
        assert circulation_factor(fam, MINUS) == pytest.approx(1.0)
        data = corner_quantization(fam)
        period = 2 * (m0 + n0)
        assert data.period == period
        assert len(data.eigenvalues()) == 2 * period
        assert not data.resonances()
        expected = sorted(TWO_PI * k / period for k in range(period))
        for circulation in (PLUS, MINUS):
            kappas = sorted(k.real for k in data.kappas(circulation))
            assert np.allclose(kappas, expected, atol=1e-12)
            assert all(k.imag == 0 for k in data.kappas(circulation))

    @settings(max_examples=60, deadline=None)
    @given(
        m0=st.integers(min_value=1, max_value=4),
        n0=st.integers(min_value=1, max_value=4),
        circulation=st.sampled_from([PLUS, MINUS]),
    )
    def test_slots_walk_the_boundary(self, m0, n0, circulation):
        slots = circulation_slots(m0, n0, circulation)
        assert len(slots) == 2 * (m0 + n0)
        sites = [site for site, _ in slots]
        assert len(set(sites)) == len(sites)
        for (x1, x2) in sites:
            assert 0 <= x1 <= m0 and 0 <= x2 <= n0
            assert x1 in (0, m0) or x2 in (0, n0)
        for t in range(len(slots)):
            here = slots[t][0]
            after, chir = slots[(t + 1) % len(slots)]
            step = STEPS[chir]
            assert (here[0] + step[0], here[1] + step[1]) == after

    def test_slots_of_the_two_by_one_rectangle(self):
        # plus climbs the left edge first, minus runs along the bottom first.
        assert circulation_slots(2, 1, PLUS) == (
            ((0, 0), LEFT), ((0, 1), UP), ((1, 1), RIGHT),
            ((2, 1), RIGHT), ((2, 0), DOWN), ((1, 0), LEFT),
        )
        assert circulation_slots(2, 1, MINUS) == (
            ((0, 0), DOWN), ((1, 0), RIGHT), ((2, 0), RIGHT),
            ((2, 1), UP), ((1, 1), LEFT), ((0, 1), LEFT),
        )
        with pytest.raises(ValueError, match="circulation must be"):
            circulation_slots(2, 1, "sideways")

    def test_one_corner_factors_and_counts(self):
        eps = 0.3
        fam = make_corner_family(2, 1, eps, "one-corner")
        data = corner_quantization(fam)
        assert data.c_plus == pytest.approx(math.sqrt(1 - eps ** 2), abs=1e-15)
        assert data.c_minus == pytest.approx(1.0, abs=1e-15)
        assert len(data.eigenvalues()) == fam.period
        assert len(data.resonances()) == fam.period
        assert all(m.circulation == MINUS for m in data.eigenvalues())
        assert all(m.circulation == PLUS for m in data.resonances())

    def test_two_corner_damps_both_circulations(self):
        eps = 0.25
        fam = make_corner_family(2, 2, eps, "two-corner")
        data = corner_quantization(fam)
        expected = math.sqrt(1 - eps ** 2)
        assert data.c_plus == pytest.approx(expected, abs=1e-15)
        assert data.c_minus == pytest.approx(expected, abs=1e-15)
        assert not data.eigenvalues()
        assert len(data.resonances()) == 2 * fam.period

    def test_phase_corner_splits_the_spectrum(self):
        eps = 0.2
        fam = make_corner_family(1, 2, eps, "phase-corner")
        data = corner_quantization(fam)
        phi = 2 * math.asin(eps / 2)
        assert data.c_plus == pytest.approx(cmath.exp(1j * phi), abs=1e-15)
        assert data.c_minus == pytest.approx(1.0, abs=1e-15)
        assert len(data.eigenvalues()) == 2 * fam.period
        assert not data.resonances()
        kappas = sorted(k.real for k in data.kappas())
        gaps = np.diff(kappas)
        assert gaps.min() > 1e-3

    def test_quantization_roots_in_closed_form(self):
        eps = 0.4
        fam = make_corner_family(2, 1, eps, "one-corner")
        data = corner_quantization(fam)
        n = fam.period
        depth = math.log(math.sqrt(1 - eps ** 2)) / n
        plus = sorted(data.kappas(PLUS), key=lambda z: z.real)
        expected_re = sorted((-TWO_PI * k / n) % TWO_PI for k in range(n))
        for kappa, re in zip(plus, expected_re):
            assert kappa.real == pytest.approx(re, abs=1e-12)
            assert kappa.imag == pytest.approx(depth, abs=1e-12)
        minus = sorted(k.real for k in data.kappas(MINUS))
        assert np.allclose(minus, expected_re, atol=1e-12)

    def test_eigenmodes_satisfy_the_walk_equation(self):
        fam = make_corner_family(1, 2, 0.35, "phase-corner")
        data = corner_quantization(fam)
        for mode in data.eigenvalues():
            stepped = apply_walk(fam.operator, mode.state)
            scaled = WalkState(
                {
                    site: cmath.exp(-1j * mode.kappa) * mode.state.amplitude(site)
                    for site in mode.state.sites()
                }
            )
            assert max_pointwise_diff(stepped, scaled) <= 1e-12
            assert mode.state.norm() == pytest.approx(math.sqrt(fam.period))

    @pytest.mark.parametrize(
        "m0,n0,preset", [(1, 1, "one-corner"), (2, 1, "two-corner")]
    )
    def test_resonant_modes_pass_the_outgoing_check(self, m0, n0, preset):
        fam = make_corner_family(m0, n0, 0.35, preset)
        data = corner_quantization(fam)
        assert data.resonances()
        for mode in data.resonances():
            report = verify_outgoing(
                fam.operator, mode.state, window=fam.box_radius + 5
            )
            assert report.residual <= 1e-12 * max(1.0, report.scale)
            assert not report.trivial

    def test_resonance_summability_threshold(self):
        fam = make_corner_family(1, 1, 0.35, "one-corner")
        mode = corner_quantization(fam).resonances()[0]
        depth = mode.kappa.imag
        assert depth < 0
        assert mode.state.is_summable_after(1j * (depth - 0.1))
        assert not mode.state.is_summable_after(0.0)
        assert not mode.state.is_summable_after(1j * (depth + 0.05))

    def test_cross_feed_validation(self):
        coins = elastic_corner_coins(1, 1)
        bad = coins[(0, 0)].copy()
        c, s = math.sqrt(1 - 0.01), 0.1
        left, down = bad[:, LEFT].copy(), bad[:, DOWN].copy()
        bad[:, LEFT] = c * left + s * down
        bad[:, DOWN] = -s * left + c * down
        coins[(0, 0)] = bad
        with pytest.raises(ValueError, match="cross-feed"):
            CornerFamily(1, 1, 0.1, None, coins)

    def test_family_validation_errors(self):
        with pytest.raises(ValueError, match="preset"):
            make_corner_family(1, 1, 0.1, "three-corner")
        with pytest.raises(ValueError, match="eps"):
            make_corner_family(1, 1, -0.1)
        with pytest.raises(ValueError, match="eps"):
            make_corner_family(1, 1, 1.5)
        with pytest.raises(ValueError, match="m0, n0"):
            make_corner_family(0, 1, 0.1)
        coins = elastic_corner_coins(1, 1)
        coins[(0, 0)] = 1.1 * coins[(0, 0)]
        with pytest.raises(ValueError, match="unitary"):
            CornerFamily(1, 1, 0.1, None, coins)
        coins = elastic_corner_coins(1, 1)
        coins[(0, 0)], coins[(1, 1)] = coins[(1, 1)], coins[(0, 0)]
        with pytest.raises(ValueError, match="deviates"):
            CornerFamily(1, 1, 0.1, None, coins)
        coins = elastic_corner_coins(2, 1)
        with pytest.raises(ValueError, match="corner coins"):
            CornerFamily(1, 1, 0.1, None, coins)

    @settings(max_examples=40, deadline=None)
    @given(
        eps=st.floats(min_value=0.0, max_value=0.999),
        preset=st.sampled_from(CORNER_PRESETS),
    )
    def test_preset_invariants(self, eps, preset):
        fam = make_corner_family(1, 2, eps, preset)
        for site in corner_sites(1, 2):
            coin = fam.coin_at(site)
            assert unitarity_residual(coin) <= 1e-12
            base = elastic_corner_coins(1, 2)[site]
            assert float(np.max(np.abs(coin - base))) <= eps + 1e-12
        data = corner_quantization(fam)
        assert abs(data.c_plus) <= 1 + 1e-12
        assert abs(data.c_minus) <= 1 + 1e-12
        assert len(data.modes) == 2 * fam.period
        for mode in data.modes:
            factor = data.c_plus if mode.circulation == PLUS else data.c_minus
            assert abs(mode.multiplier ** fam.period - factor) <= 1e-9
            on_axis = abs(abs(mode.multiplier) - 1.0) <= 1e-12
            assert mode.kind == ("eigenvalue" if on_axis else "resonance")


class TestCornerRoots:
    def test_closed_rectangle_roots_have_multiplicity_two(self):
        fam = make_corner_family(1, 1, 0.0)
        roots = locate_roots(fam.coin)
        assert len(roots) == 4
        expected = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
        for root, target in zip(sorted(roots, key=lambda r: r.kappa.real), expected):
            assert root.multiplicity == 2
            assert root.kind == "eigenvalue"
            assert abs(root.kappa - target) <= 1e-8

    def test_determinant_roots_match_quantization(self):
        fam = make_corner_family(1, 1, 0.4, "one-corner")
        data = corner_quantization(fam)
        for mode in data.modes:
            rect = KappaRect.around(mode.kappa, 0.01)
            roots = locate_roots(fam.coin, rect)
            assert sum(r.multiplicity for r in roots) == 1
            assert abs(roots[0].kappa - mode.kappa) <= 1e-8

    def test_phase_corner_drift_rate_is_stable(self):
        closed = [TWO_PI * k / 4 for k in range(4)]
        rates = []
        for eps in (0.05, 0.1, 0.2):
            fam = make_corner_family(1, 1, eps, "phase-corner")
            drifts = []
            for kappa in corner_quantization(fam).kappas(PLUS):
                drifts.append(
                    min(
                        min(abs(kappa.real - p), TWO_PI - abs(kappa.real - p))
                        for p in closed
                    )
                )
            rates.append(max(drifts) / eps)
        assert max(rates) <= 1.2 * min(rates)
        assert 0 < max(rates) < 1.0


class TestShapeFamily:
    def test_trivial_weave_uses_one_matrix_on_the_whole_wall(self):
        eps = 0.3
        c = math.sqrt(1 - eps ** 2)
        expected = np.array(
            [
                [eps, c, 0, 0],
                [c, -eps, 0, 0],
                [0, 0, eps, c],
                [0, 0, c, -eps],
            ],
            dtype=complex,
        )
        fam = make_shape_family(BarrierSpec(1), eps)
        assert fam.eps == eps
        for site in fam.coin.override_sites():
            assert np.allclose(fam.coin.coin_at(site), expected, atol=1e-15)

    def test_zero_strength_reproduces_the_sealed_walk(self):
        spec = BarrierSpec(
            2,
            wall_coins={(2, 0): rotated_wall_coin(0.6)},
            interior_coins={(0, 1): random_unitary_coin(7)},
        )
        fam = make_shape_family(spec, 0.0)
        base = build_nonpenetrable(spec)
        for site in base.coin.override_sites():
            assert np.array_equal(fam.coin.coin_at(site), base.coin.coin_at(site))

    def test_side_walls_get_the_transverse_pair_only(self):
        eps = 0.2
        c = math.sqrt(1 - eps ** 2)
        g_lr = np.eye(4, dtype=complex)
        g_lr[LEFT, LEFT] = g_lr[RIGHT, RIGHT] = c
        g_lr[RIGHT, LEFT] = eps
        g_lr[LEFT, RIGHT] = -eps
        custom = rotated_wall_coin(0.6)
        spec = BarrierSpec(
            2,
            wall_coins={(2, 0): custom},
            interior_coins={(0, 1): random_unitary_coin(7)},
        )
        fam = make_shape_family(spec, eps)
        assert np.allclose(fam.coin.coin_at((2, 0)), custom @ g_lr, atol=1e-15)
        assert np.array_equal(
            fam.coin.coin_at((0, 1)), fam.base.coin.coin_at((0, 1))
        )
        corner = fam.coin.coin_at((2, 2))
        assert abs(corner[LEFT, LEFT] - eps) <= 1e-15
        assert abs(corner[DOWN, DOWN] - eps) <= 1e-15

    @settings(max_examples=25, deadline=None)
    @given(eps=st.floats(min_value=0.0, max_value=1.0))
    def test_weave_stays_unitary_and_inside_the_ball(self, eps):
        fam = make_shape_family(BarrierSpec(1), eps)
        for site in fam.coin.override_sites():
            woven = fam.coin.coin_at(site)
            assert unitarity_residual(woven) <= 1e-12
            deviation = float(np.max(np.abs(woven - fam.base.coin.coin_at(site))))
            assert deviation <= eps + 1e-12

    def test_strength_validation(self):
        with pytest.raises(ValueError, match="eps"):
            make_shape_family(BarrierSpec(1), -0.2)
        with pytest.raises(ValueError, match="eps"):
            make_shape_family(BarrierSpec(1), 1.0001)


class TestConditionC:
    def test_trivial_family_passes_when_open(self):
        fam = make_shape_family(BarrierSpec(1), 0.2)
        report = condition_c_check(fam.coin)
        assert report.holds
        assert report.first_clause
        assert len(report.sites) == 8
        for row in report.sites:
            assert abs(row.left_down) == pytest.approx(0.04, abs=1e-12)
            assert abs(row.right_up) == pytest.approx(0.04, abs=1e-12)

    def test_sealed_family_fails(self):
        fam = make_shape_family(BarrierSpec(1), 0.0)
        report = condition_c_check(fam.coin)
        assert not report.holds
        assert not report.first_clause
        assert not report.second_clause

    def test_single_bad_site_is_reported(self):
        coin = CoinField(1, {(0, 0): np.array(TRIVIAL_WALL_COIN)})
        report = condition_c_check(coin)
        assert not report.holds
        (row,) = report.sites
        assert row.site == (0, 0)
        for value in (row.left_down, row.right_up, row.left_up, row.right_down):
            assert abs(value) <= 1e-15


class TestMigrationScan:
    def test_corner_loops_carry_both_split_roots(self):
        fam = make_corner_family(2, 2, 0.1, "one-corner")
        rows = migration_scan(fam, [0.1], [math.pi / 4, math.pi / 2])
        assert [row.mu0 for row in rows] == [math.pi / 4, math.pi / 2]
        for row in rows:
            assert row.count == 2
            kinds = sorted(r.kind for r in row.roots for _ in range(r.multiplicity))
            assert kinds == ["eigenvalue", "resonance"]
            for root in row.roots:
                assert abs(root.kappa.real - row.mu0) <= 0.1 ** 0.5

    def test_shape_count_matches_sealed_multiplicity(self):
        fam = make_shape_family(BarrierSpec(1), 0.04)
        rows = migration_scan(fam, [0.04], [math.pi / 2])
        assert len(rows) == 1
        assert rows[0].count == 2

    def test_overlapping_loops_are_rejected(self):
        fam = make_corner_family(1, 1, 0.09, "one-corner")
        with pytest.raises(ValueError, match="overlap"):
            migration_scan(fam, [0.09], [0.0, 0.3])

    def test_ambiguous_loops_are_rejected(self):
        fam = make_corner_family(1, 1, 0.5, "one-corner")
        with pytest.raises(ValueError, match="attributable"):
            migration_scan(make_corner_family(4, 4, 0.5, "one-corner"), [1.0], [math.pi / 2])
        with pytest.raises(ValueError, match="phase inside"):
            migration_scan(fam, [0.01], [1.0])

    def test_threaded_scan_matches_serial(self):
        fam = make_corner_family(1, 1, 0.1, "one-corner")
        serial = migration_scan(fam, [0.1, 0.05], [math.pi / 2])
        threaded = migration_scan(fam, [0.1, 0.05], [math.pi / 2], threads=2)
        assert len(serial) == len(threaded) == 2
        for a, b in zip(serial, threaded):
            assert (a.eps, a.mu0, a.count) == (b.eps, b.mu0, b.count)
            assert np.allclose(
                [r.kappa for r in a.roots], [r.kappa for r in b.roots]
            )

    def test_rebuild_family_paths(self):
        corner = make_corner_family(1, 1, 0.1, "one-corner")
        again = rebuild_family(corner, 0.2)
        assert again.eps == 0.2 and again.preset == "one-corner"
        custom = CornerFamily(1, 1, 0.0, None, elastic_corner_coins(1, 1))
        with pytest.raises(ValueError, match="preset-built"):
            rebuild_family(custom, 0.2)
        shape = make_shape_family(BarrierSpec(1), 0.1)
        assert rebuild_family(shape, 0.3).eps == 0.3
        with pytest.raises(TypeError):
            rebuild_family(3, 0.2)
        with pytest.raises(TypeError):
            closed_spectrum_phases("nope")

    def test_closed_spectrum_phases(self):
        corner = make_corner_family(1, 2, 0.1, "one-corner")
        assert np.allclose(
            closed_spectrum_phases(corner),
            [math.pi * k / 3 for k in range(6)],
            atol=1e-12,
        )
        shape = make_shape_family(BarrierSpec(1), 0.1)
        assert np.allclose(
            closed_spectrum_phases(shape),
            [0.0, math.pi / 2, math.pi, 3 * math.pi / 2],
            atol=1e-8,
        )


class TestPerturbationIdentities:
    def probes(self):
        rng = np.random.default_rng(5)

        def state(sites):
            return WalkState(
                {
                    s: rng.standard_normal(4) + 1j * rng.standard_normal(4)
                    for s in sites
                }
            )

        return state([(1, 0), (0, 0)]), state([(-1, 0), (0, -1), (2, 0)])

    def coupled_spec(self):
        # The all-mirror wall never mixes horizontal with vertical
        # chiralities, so a generic interior coin is added to couple them.
        return BarrierSpec(1, interior_coins={(0, 0): random_unitary_coin(11)})

    def test_sealed_family_has_zero_difference(self):
        fam = make_shape_family(self.coupled_spec(), 0.0)
        f, g = self.probes()
        report = perturbation_identities(fam, 0.9 - 0.4j, f, g)
        assert abs(report.direct) <= 1e-13
        assert abs(report.perturbed_outer) <= 1e-13
        assert abs(report.unperturbed_outer) <= 1e-13

    def test_both_factorizations_agree_with_the_direct_difference(self):
        fam = make_shape_family(self.coupled_spec(), 0.2)
        f, g = self.probes()
        report = perturbation_identities(fam, 0.7 - 0.4j, f, g)
        assert abs(report.direct) > 1e-6
        assert report.spread <= 1e-8 * max(1.0, abs(report.direct))

    def test_translated_probes_keep_the_identity(self):
        fam = make_shape_family(self.coupled_spec(), 0.2)
        f, g = self.probes()
        theta = 0.2 - 0.1j
        report = perturbation_identities(fam, 0.7 - 0.4j, f, g, theta=theta)
        assert report.theta == theta
        assert report.spread <= 1e-8 * max(1.0, abs(report.direct))
        plain = perturbation_identities(fam, 0.7 - 0.4j, f, g)
        zero = perturbation_identities(fam, 0.7 - 0.4j, f, g, theta=0.0)
        assert zero.direct == plain.direct
        assert abs(report.direct - plain.direct) > 1e-10

    def test_pole_guard_and_family_type(self):
        fam = make_shape_family(BarrierSpec(1), 0.2)
        f, g = self.probes()
        with pytest.raises(NumericalFailure, match="determinant zero"):
            perturbation_identities(fam, math.pi / 2, f, g)
        corner = make_corner_family(1, 1, 0.2, "one-corner")
        with pytest.raises(TypeError):
            perturbation_identities(corner, 0.7 - 0.4j, f, g)


class TestProjectionDifference:
    def test_difference_shrinks_with_the_opening(self):
        f = WalkState.delta((0, 0), LEFT)
        g = WalkState.delta((0, 0), LEFT)
        sizes = []
        for eps in (0.2, 0.1, 0.05):
            fam = make_shape_family(BarrierSpec(1), eps)
            sizes.append(abs(projection_difference(fam, math.pi / 2, f, g)))
        assert sizes[0] > sizes[1] > sizes[2]

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    def test_each_member_projects_a_quarter_of_the_probe(self, eps):
        # The sealed eigenvalue at pi/2 and the resonance it migrates to both
        # hold a quarter of delta((0, 0), LEFT) (scipy quad: 0.25 to 6e-17),
        # a size that does not rest on the trapezoid rule's rounding.
        fam = make_shape_family(BarrierSpec(1), eps)
        f = WalkState.delta((0, 0), LEFT)
        loop = KappaRect.for_scale(math.pi / 2, eps)
        for coin in (fam.coin, fam.base.coin):
            value = projection_element(coin, loop, f, f)
            assert abs(value - 0.25) <= 1e-8, (eps, value)

    @staticmethod
    def fresh_projection(coin, rect, f, g):
        """The projection's trapezoid sums with every level's points solved afresh."""
        pairing = ResolventPairing(coin, f, g)
        corners = rect.corners()

        def integral(n):
            total = 0.0j
            for a, b in zip(corners, corners[1:] + corners[:1]):
                zs = a + (b - a) * np.linspace(0.0, 1.0, n + 1)
                total += np.trapezoid(np.exp(-1j * zs) * pairing.values(zs), zs)
            return total / TWO_PI

        n, prev = 16, integral(16)
        while True:
            n *= 2
            cur = integral(n)
            if abs(cur - prev) < 1e-8:
                return complex(cur)
            prev = cur

    def test_each_trapezoid_point_is_solved_once(self, monkeypatch):
        # Each doubling keeps the previous level's values, and the sums stay
        # those of solving every level afresh (65,480 points for both members).
        fam = make_shape_family(BarrierSpec(1), 0.2)
        f = WalkState.delta((0, 0), LEFT)
        loop = KappaRect.for_scale(math.pi / 2, 0.2)
        fresh = (self.fresh_projection(fam.coin, loop, f, f)
                 - self.fresh_projection(fam.base.coin, loop, f, f))
        values = ResolventPairing.values
        points = []

        def spy(self, kappas):
            kappas = np.asarray(kappas)
            points.append(len(kappas))
            return values(self, kappas)

        monkeypatch.setattr(ResolventPairing, "values", spy)
        value = projection_difference(fam, math.pi / 2, f, f)
        assert sum(points) == 32_776
        assert value == fresh

    def test_corner_family_uses_its_closed_member(self):
        fam = make_corner_family(1, 1, 0.3, "one-corner")
        f = WalkState.delta((0, 0), LEFT)
        g = WalkState.delta((0, 1), UP)
        value = projection_difference(fam, math.pi / 2, f, g)
        assert np.isfinite(value.real) and np.isfinite(value.imag)
        with pytest.raises(ValueError, match="eps > 0"):
            projection_difference(make_corner_family(1, 1, 0.0), math.pi / 2, f, g)

    @pytest.mark.parametrize("preset", CORNER_PRESETS)
    def test_custom_corner_family_has_the_same_closed_member(self, preset):
        # A family built from bare coins (no preset) still has its closed
        # member, the table's coins, so its projection difference is the
        # preset family's to the bit.
        fam = make_corner_family(1, 1, 0.3, preset)
        custom = CornerFamily(1, 1, 0.3, None, fam.coin.overrides)
        f = WalkState.delta((0, 0), LEFT)
        g = WalkState.delta((0, 1), UP)
        assert projection_difference(custom, math.pi / 2, f, g) == projection_difference(
            fam, math.pi / 2, f, g)
