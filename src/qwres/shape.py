"""Coin families opened by a small parameter.

Two constructions share this module.  The corner family places four
permutation-like coins at the corners of a rectangle so that amplitude
circulates around the boundary; opening a corner by ``eps`` lets a fixed
fraction escape per pass, and every mode of the circulation is solvable in
closed form.  The wall family starts from a sealed barrier and rotates each
wall coin by ``eps`` in the column pair transverse to its wall, turning the
interior eigenvalues into nearby eigenvalues or resonances.

Both families expose the same scanning interface: rebuild at a given
strength, locate determinant roots inside shrinking loops around the closed
spectrum, and compare resolvent or projection matrix elements between the
open and sealed members.
"""

from __future__ import annotations

import cmath
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .barrier import (
    TRIVIAL_WALL_COIN,
    BarrierSpec,
    build_nonpenetrable,
    interior_spectrum,
    wall_sites,
)
from .elastic import PermutationCoin, trace_trajectory
from .lattice import (
    CHIRALITIES,
    DOWN,
    LEFT,
    RIGHT,
    STEP_AXIS,
    STEPS,
    UP,
    CoinField,
    Site,
    WalkOperator,
    WalkState,
    apply_walk,
)
from .spectral import (
    TWO_PI,
    DeterminantFamily,
    KappaRect,
    NumericalFailure,
    Root,
    det_value,
    locate_roots,
    projection_element,
    resolvent_apply,
    resolvent_matrix_element,
    root_reported_at,
)
from .translation import OutgoingState, apply_T_theta, translation_weight

PLUS = "plus"
MINUS = "minus"
CORNER_PRESETS = ("one-corner", "two-corner", "phase-corner")

_ZERO_TOL = 1e-14
_DEVIATION_SLACK = 1e-12
_CLOSURE_TOL = 1e-9
_POLE_GUARD = 1e-8
_PHASE_CLUSTER_TOL = 1e-8
_CONDITION_C_TOL = 1e-12
# Half-side of a migration loop in units of eps^s: loops on the natural grids
# stay disjoint (closed-spectrum phases of the shipped families lie pi/4 apart
# or more) and hold the whole migrated cluster, whose observed spread stays
# below 0.34 eps^(1/2) for the trivial shape family up to eps = 0.4.
_MIGRATION_LOOP = 0.5


def corner_sites(m0: int, n0: int) -> Tuple[Site, Site, Site, Site]:
    """The four corners of the rectangle [0, m0] x [0, n0]."""
    return ((0, 0), (m0, 0), (m0, n0), (0, n0))


# The closed routing, one permutation per site of corner_sites in chirality
# order: entry j is where amplitude arriving in chirality j is sent.
_CORNER_ROUTES = (
    (UP, LEFT, RIGHT, DOWN),
    (RIGHT, UP, LEFT, DOWN),
    (RIGHT, DOWN, UP, LEFT),
    (DOWN, LEFT, UP, RIGHT),
)


def corner_permutation_field(m0: int, n0: int) -> PermutationCoin:
    """The closed corner model as an elastic permutation field.

    One circulation climbs the left edge, crosses the top, descends the right
    edge and returns along the bottom; the other runs the same boundary in
    the opposite sense.  The four corner permutations route each circulation
    into itself with no cross-feed, so every boundary mode is an eigenvalue.
    """
    if m0 < 1 or n0 < 1:
        raise ValueError(f"rectangle needs m0, n0 >= 1, got {m0}, {n0}")
    return PermutationCoin(max(m0, n0), dict(zip(corner_sites(m0, n0), _CORNER_ROUTES)))


def elastic_corner_coins(m0: int, n0: int) -> Dict[Site, np.ndarray]:
    """The corner coins of :func:`corner_permutation_field` as matrices.

    Column j of a coin says where amplitude arriving in chirality j is sent.
    """
    return corner_permutation_field(m0, n0).to_coin_field().overrides


def _cross_feed_zeros(m0: int, n0: int) -> Tuple[Tuple[Site, int, int], ...]:
    """Entries (site, row, col) that must vanish for the circulations to stay decoupled.

    At a corner the two circulations arrive on the chiralities whose previous
    site lies in the rectangle, and neither may feed the other's exit.
    """
    zeros = []
    for site, route in zip(corner_sites(m0, n0), _CORNER_ROUTES):
        a, b = (
            j for j in CHIRALITIES
            if 0 <= site[0] - STEPS[j][0] <= m0 and 0 <= site[1] - STEPS[j][1] <= n0
        )
        zeros += [(site, route[b], a), (site, route[a], b)]
    return tuple(zeros)


class CornerFamily:
    """A rectangle of corner coins opened by a strength ``eps`` in [0, 1].

    Off the four corners every coin is the identity, so the family is fully
    described by four unitaries.  Validation enforces what the closed-form
    analysis relies on: unitarity, the eight cross-feed zeros, and the
    entrywise bound ``|coin - closed coin| <= eps`` (some presets reach the
    bound exactly, so a slack of 1e-12 is tolerated on top).
    """

    def __init__(
        self,
        m0: int,
        n0: int,
        eps: float,
        preset: Optional[str],
        coins: Mapping[Site, np.ndarray],
    ):
        m0 = int(m0)
        n0 = int(n0)
        base = elastic_corner_coins(m0, n0)
        eps = float(eps)
        if not 0.0 <= eps <= 1.0:
            raise ValueError(f"eps must lie in [0, 1], got {eps}")
        corners = corner_sites(m0, n0)
        given = {(int(s[0]), int(s[1])) for s in coins}
        if given != set(corners):
            raise ValueError(
                f"corner coins must be given at exactly {sorted(set(corners))}, got {sorted(given)}"
            )
        coin = CoinField(max(m0, n0), {site: coins[site] for site in corners})
        for site in corners:
            deviation = float(np.max(np.abs(coin.coin_at(site) - base[site])))
            if deviation > eps + _DEVIATION_SLACK:
                raise ValueError(
                    f"coin at {site} deviates {deviation:.3e} from the closed corner, "
                    f"beyond eps = {eps}"
                )
        for site, row, col in _cross_feed_zeros(m0, n0):
            leak = abs(coin.coin_at(site)[row, col])
            if leak > _ZERO_TOL:
                raise ValueError(
                    f"cross-feed entry ({row}, {col}) at {site} must vanish, got {leak:.3e}"
                )
        self.m0 = m0
        self.n0 = n0
        self.eps = eps
        self.preset = preset
        self.box_radius = coin.box_radius
        self.period = 2 * (m0 + n0)
        self.coin = coin
        self.operator = WalkOperator(self.coin)

    def coin_at(self, site: Site) -> np.ndarray:
        return self.coin.coin_at(site)

    def __repr__(self) -> str:
        return (
            f"CornerFamily(m0={self.m0}, n0={self.n0}, eps={self.eps}, "
            f"preset={self.preset!r})"
        )


def _givens_pair(col_a: int, col_b: int, eps: float) -> np.ndarray:
    """Rotation of strength eps in the (col_a, col_b) plane; a right factor mixes those columns."""
    c = math.sqrt(1.0 - eps * eps)
    g = np.eye(4, dtype=complex)
    g[col_a, col_a] = c
    g[col_b, col_b] = c
    g[col_b, col_a] = eps
    g[col_a, col_b] = -eps
    return g


def make_corner_family(
    m0: int, n0: int, eps: float, preset: str = "one-corner"
) -> CornerFamily:
    """Build a corner family from one of the shipped presets.

    ``one-corner`` rotates the column pair (left, up) at the origin, which
    damps one circulation and leaves the other closed: half the modes stay
    eigenvalues, half become resonances.  ``two-corner`` applies the same
    rotation shape at a second corner so both circulations are damped and no
    eigenvalue survives.  ``phase-corner`` multiplies one column at the
    origin by a phase of modulus ``|e^{i phi} - 1| = eps``, keeping every
    mode an eigenvalue but splitting the two circulations apart.
    """
    eps = float(eps)
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    coins = elastic_corner_coins(m0, n0)
    if preset == "one-corner":
        coins[(0, 0)] = coins[(0, 0)] @ _givens_pair(LEFT, UP, eps)
    elif preset == "two-corner":
        coins[(0, 0)] = coins[(0, 0)] @ _givens_pair(LEFT, UP, eps)
        coins[(m0, 0)] = coins[(m0, 0)] @ _givens_pair(RIGHT, UP, eps)
    elif preset == "phase-corner":
        phi = 2.0 * math.asin(eps / 2.0)
        coins[(0, 0)] = coins[(0, 0)].copy()
        coins[(0, 0)][:, LEFT] *= cmath.exp(1j * phi)
    else:
        raise ValueError(f"unknown preset {preset!r}; expected one of {CORNER_PRESETS}")
    return CornerFamily(m0, n0, eps, preset, coins)


def circulation_slots(m0: int, n0: int, circulation: str) -> Tuple[Tuple[Site, int], ...]:
    """The (site, chirality) pairs visited by one circulation, in step order.

    They are the closed orbit of the closed model's classical particle
    through the origin, arriving there as a left mover for ``plus`` (which
    climbs the left edge first) and as a down mover for ``minus`` (which
    runs along the bottom first).  Consecutive slots satisfy
    ``site[t+1] = site[t] + step(chirality[t+1])``, wrapping around after
    ``2 (m0 + n0)`` steps.
    """
    starts = {PLUS: LEFT, MINUS: DOWN}
    if circulation not in starts:
        raise ValueError(f"circulation must be {PLUS!r} or {MINUS!r}, got {circulation!r}")
    return trace_trajectory(corner_permutation_field(m0, n0), (0, 0), starts[circulation]).states


def _slot_entries(fam: CornerFamily, slots) -> list:
    """Coin entries linking each slot to the next; 1 on straight segments."""
    n = len(slots)
    entries = []
    for t in range(n):
        site, chir = slots[t]
        chir_next = slots[(t + 1) % n][1]
        entries.append(complex(fam.coin.coin_at(site)[chir_next, chir]))
    return entries


def circulation_factor(fam: CornerFamily, circulation: str) -> complex:
    """Product of the turn entries around one circulation."""
    slots = circulation_slots(fam.m0, fam.n0, circulation)
    total = 1.0 + 0j
    for entry in _slot_entries(fam, slots):
        total *= entry
    return total


@dataclass(frozen=True)
class CornerMode:
    """One solved circulation mode.

    ``multiplier`` is e^{-i kappa}, the factor by which one walk step scales
    the state.  ``state`` is a compactly supported WalkState for an
    eigenvalue and an OutgoingState for a resonance.
    """

    circulation: str
    k: int
    kappa: complex
    multiplier: complex
    kind: str
    state: object


@dataclass(frozen=True)
class QuantizationData:
    """Both circulation factors and the full list of solved modes."""

    c_plus: complex
    c_minus: complex
    period: int
    modes: Tuple[CornerMode, ...]

    def eigenvalues(self) -> Tuple[CornerMode, ...]:
        return tuple(m for m in self.modes if m.kind == "eigenvalue")

    def resonances(self) -> Tuple[CornerMode, ...]:
        return tuple(m for m in self.modes if m.kind == "resonance")

    def kappas(self, circulation: Optional[str] = None) -> Tuple[complex, ...]:
        return tuple(
            m.kappa for m in self.modes if circulation in (None, m.circulation)
        )


def _amplitudes_around(slots, entries, kappa: complex) -> list:
    phase = cmath.exp(1j * kappa)
    values = [1.0 + 0j]
    for t in range(len(slots) - 1):
        values.append(phase * entries[t] * values[t])
    closure = phase * entries[-1] * values[-1]
    if abs(closure - values[0]) > _CLOSURE_TOL:
        raise NumericalFailure(
            f"circulation fails to close at kappa = {kappa}: defect {abs(closure - values[0]):.3e}"
        )
    return values


def _resonant_state(fam: CornerFamily, slots, values, kappa: complex) -> OutgoingState:
    """Assemble the escaping mode: loop amplitudes plus rays out of each corner."""
    box = fam.box_radius
    dilated = box + 1
    phase = cmath.exp(1j * kappa)
    entries = [(site, chir, val) for (site, chir), val in zip(slots, values)]
    tails: List[Dict[int, complex]] = [{} for _ in CHIRALITIES]
    for (site, chir), val in zip(slots, values):
        coin = fam.coin.coin_at(site)
        for j, step in enumerate(STEPS):
            # Amplitude escapes along the steps that leave the rectangle; off
            # the corners the identity coin sends none that way.
            target = (site[0] + step[0], site[1] + step[1])
            if 0 <= target[0] <= fam.m0 and 0 <= target[1] <= fam.n0:
                continue
            emitted = complex(coin[j, chir]) * val
            if abs(emitted) < 1e-15:
                continue
            # The tail coefficient is the emitted amplitude with the phase of
            # the emitting corner's coordinate along the ray taken out.
            key = site[1 - STEP_AXIS[j]]
            tails[j][key] = tails[j].get(key, 0j) + emitted * translation_weight(kappa, site, j)
            for n in range(1, 2 * dilated + 2):
                ray_site = (site[0] + n * step[0], site[1] + n * step[1])
                if max(abs(ray_site[0]), abs(ray_site[1])) > dilated:
                    break
                entries.append((ray_site, j, emitted * phase ** n))
    return OutgoingState(kappa, box, WalkState.from_entries(*zip(*entries)), *tails)


def corner_quantization(fam: CornerFamily) -> QuantizationData:
    """Solve both circulations of a corner family in closed form.

    Around a circulation of length N an amplitude returns multiplied by
    e^{i kappa N} times the product c of the turn entries, so the modes are
    the N solutions of w^N = c in w = e^{-i kappa}.  When |c| = 1 every turn
    entry is forced to a phase, nothing leaves the loop, and each mode is an
    eigenvalue with a compactly supported eigenfunction.  When |c| < 1 the
    modes drop below the real axis and the amplitude shed at the open
    corners forms the tails of an outgoing resonant state.
    """
    modes = []
    factors = {}
    for circulation in (PLUS, MINUS):
        slots = circulation_slots(fam.m0, fam.n0, circulation)
        entries = _slot_entries(fam, slots)
        c = complex(np.prod(entries))
        factors[circulation] = c
        if abs(c) > 1.0 + 1e-12:
            raise NumericalFailure(
                f"turn product {abs(c):.6f} exceeds 1; the coins cannot be unitary"
            )
        if abs(c) < 1e-15:
            # A fully absorbing corner: the circulation supports no modes.
            continue
        n = fam.period
        modulus = abs(c) ** (1.0 / n)
        # Classify by the multiplier modulus |w| = |c|**(1/n) that the modes
        # carry: |c| may sit up to n * 1e-12 below 1 with |w| still unit.
        is_eigen = abs(modulus - 1.0) <= 1e-12
        if is_eigen:
            for entry in entries:
                if abs(abs(entry) - 1.0) > 1e-10:
                    raise NumericalFailure(
                        "unit turn product with a non-unit factor; "
                        "the circulation data is inconsistent"
                    )
        arg = cmath.phase(c)
        for k in range(n):
            w = modulus * cmath.exp(1j * (arg + TWO_PI * k) / n)
            re = (-(arg + TWO_PI * k) / n) % TWO_PI
            if is_eigen:
                kappa = complex(re, 0.0)
                values = _amplitudes_around(slots, entries, kappa)
                state: object = WalkState.from_entries(*zip(*slots), values)
                kind = "eigenvalue"
            else:
                kappa = complex(re, math.log(abs(c)) / n)
                values = _amplitudes_around(slots, entries, kappa)
                state = _resonant_state(fam, slots, values, kappa)
                kind = "resonance"
            modes.append(CornerMode(circulation, k, kappa, w, kind, state))
    return QuantizationData(factors[PLUS], factors[MINUS], fam.period, tuple(modes))


class ShapeFamily:
    """A sealed barrier whose walls are opened by column rotations.

    Every wall coin is multiplied on the right by a rotation of strength
    ``eps`` acting on the column pair transverse to its wall: (left, right)
    on the vertical walls, (down, up) on the horizontal ones.  Corners and
    any wall site still carrying the default reflecting coin receive both
    rotations, so the trivial family uses a single woven matrix on the whole
    wall.  Interior coins are untouched.  At ``eps = 0`` the sealed walk is
    reproduced exactly.
    """

    def __init__(self, spec: BarrierSpec, eps: float):
        eps = float(eps)
        if not 0.0 <= eps <= 1.0:
            raise ValueError(f"eps must lie in [0, 1], got {eps}")
        base = build_nonpenetrable(spec)
        m0 = base.box_radius
        g_lr = _givens_pair(LEFT, RIGHT, eps)
        g_du = _givens_pair(DOWN, UP, eps)
        overrides = {
            site: base.coin.coin_at(site) for site in base.coin.override_sites()
        }
        for site in wall_sites(m0):
            mat = overrides[site]
            reflecting = float(np.max(np.abs(mat - TRIVIAL_WALL_COIN))) <= 1e-12
            woven = mat
            if abs(site[0]) == m0 or reflecting:
                woven = woven @ g_lr
            if abs(site[1]) == m0 or reflecting:
                woven = woven @ g_du
            deviation = float(np.max(np.abs(woven - mat)))
            if deviation > eps + _DEVIATION_SLACK:
                raise ValueError(
                    f"wall coin at {site} moves {deviation:.3e} under the eps = {eps} "
                    "weave, so this family would leave the eps ball"
                )
            overrides[site] = woven
        self.spec = spec
        self.eps = eps
        self.base = base
        self.box_radius = m0
        self.coin = CoinField(m0, overrides)
        self.operator = WalkOperator(self.coin)

    def __repr__(self) -> str:
        return f"ShapeFamily(box_radius={self.box_radius}, eps={self.eps})"


def make_shape_family(spec: BarrierSpec, eps: float) -> ShapeFamily:
    """Open the walls of a sealed barrier by strength ``eps``."""
    return ShapeFamily(spec, eps)


_DET_PAIRS = (
    ("left_down", (LEFT, DOWN)),
    ("right_up", (RIGHT, UP)),
    ("left_up", (LEFT, UP)),
    ("right_down", (RIGHT, DOWN)),
)


@dataclass(frozen=True)
class SiteDeterminants:
    """The four 2 x 2 chirality-pair subdeterminants of one coin."""

    site: Site
    left_down: complex
    right_up: complex
    left_up: complex
    right_down: complex


@dataclass(frozen=True)
class ConditionCReport:
    """Outcome of the decoupling check, with the per-site evidence."""

    sites: Tuple[SiteDeterminants, ...]
    tol: float
    first_clause: bool
    second_clause: bool

    @property
    def holds(self) -> bool:
        return self.first_clause or self.second_clause


def condition_c_check(coin: CoinField) -> ConditionCReport:
    """Check the subdeterminant condition the wall analysis needs.

    For every override site the four 2 x 2 subdeterminants of the coin with
    rows and columns restricted to a chirality pair are computed.  The first
    clause asks the (left, down) and (right, up) determinants to be nonzero
    at every site, the second asks the same of (left, up) and (right, down);
    the condition holds when either clause does.  Identity coins satisfy
    both clauses, so only override sites need inspection.
    """
    rows = []
    for site in coin.override_sites():
        mat = coin.coin_at(site)
        dets = {
            name: complex(np.linalg.det(mat[np.ix_(pair, pair)]))
            for name, pair in _DET_PAIRS
        }
        rows.append(SiteDeterminants(site, **dets))
    first = all(min(abs(r.left_down), abs(r.right_up)) > _CONDITION_C_TOL for r in rows)
    second = all(min(abs(r.left_up), abs(r.right_down)) > _CONDITION_C_TOL for r in rows)
    return ConditionCReport(tuple(rows), _CONDITION_C_TOL, first, second)


def _circle_distance(a: float, b: float) -> float:
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def closed_spectrum_phases(fam) -> Tuple[float, ...]:
    """Distinct eigenphases of the family's closed member.

    For a corner family these are the multiples of pi / (m0 + n0); for a
    wall family they are read off the sealed interior spectrum and clustered
    to remove numerical duplicates.
    """
    if isinstance(fam, CornerFamily):
        return tuple(math.pi * k / (fam.m0 + fam.n0) for k in range(fam.period))
    if isinstance(fam, ShapeFamily):
        phases = interior_spectrum(fam.base).eigenphases
        distinct = []
        for p in phases:
            if not distinct or p - distinct[-1] > _PHASE_CLUSTER_TOL:
                distinct.append(float(p))
        if len(distinct) > 1 and _circle_distance(distinct[0], distinct[-1]) <= _PHASE_CLUSTER_TOL:
            distinct.pop()
        return tuple(distinct)
    raise TypeError(f"no closed spectrum is defined for {type(fam).__name__}")


def rebuild_family(fam, eps: float):
    """The same family at a different opening strength."""
    if isinstance(fam, CornerFamily):
        if fam.preset not in CORNER_PRESETS:
            raise ValueError(
                "only preset-built corner families can be rebuilt at a new eps"
            )
        return make_corner_family(fam.m0, fam.n0, eps, fam.preset)
    if isinstance(fam, ShapeFamily):
        return make_shape_family(fam.spec, eps)
    raise TypeError(f"cannot rebuild {type(fam).__name__}")


@dataclass(frozen=True)
class MigrationRow:
    """Root count inside one loop of one scan step, roots in the loop center's frame."""

    eps: float
    mu0: float
    count: int
    roots: Tuple[Root, ...]


def migration_scan(
    fam,
    eps_grid: Sequence[float],
    mu0_list: Sequence[float],
    s: float = 0.5,
    threads: int = 1,
) -> Tuple[MigrationRow, ...]:
    """Track determinant roots inside shrinking loops around chosen phases.

    For every ``eps`` in the grid the family is rebuilt at that strength
    and, for every center ``mu0``, the determinant roots inside the square
    of half-width ``0.5 eps^s`` around ``mu0`` are located.  The loops must
    stay pairwise disjoint and each must isolate exactly one phase of the
    closed spectrum; anything else raises ValueError, since a count over
    such a loop could not be attributed to a single unperturbed phase.
    Rows come back ordered by ``eps`` first and center second, regardless
    of the thread count.  Each root's real part is reported within pi of
    its loop center, with the residual re-measured at that value (see
    ``root_reported_at``).
    """
    eps_values = [float(e) for e in eps_grid]
    centers = [float(m) % TWO_PI for m in mu0_list]
    if not eps_values or not centers:
        raise ValueError("need at least one eps and one center")
    if s <= 0:
        raise ValueError(f"the loop exponent s must be positive, got {s}")
    for e in eps_values:
        if not 0.0 < e <= 1.0:
            raise ValueError(f"eps values must lie in (0, 1], got {e}")
    phases = closed_spectrum_phases(fam)
    jobs = []
    for e in eps_values:
        half_re = _MIGRATION_LOOP * e ** s
        for i, mu in enumerate(centers):
            for other in centers[i + 1:]:
                if _circle_distance(mu, other) <= 2.0 * half_re:
                    raise ValueError(
                        f"loops at {mu:.6f} and {other:.6f} overlap at eps = {e}"
                    )
        for mu in centers:
            inside = [p for p in phases if _circle_distance(p, mu) <= half_re]
            if not inside:
                raise ValueError(
                    f"no closed-spectrum phase inside the loop at {mu:.6f} for eps = {e}"
                )
            if len(inside) > 1:
                raise ValueError(
                    f"{len(inside)} closed-spectrum phases inside the loop at "
                    f"{mu:.6f} for eps = {e}; the count would not be attributable"
                )
            jobs.append((e, mu))
    # One family per eps: its loops share the matrix tables and the
    # candidate eigenproblem.
    families = {e: DeterminantFamily.of(rebuild_family(fam, e).coin) for e in eps_values}

    def run(job) -> MigrationRow:
        e, mu = job
        roots = []
        loop = KappaRect.for_scale(mu, e, s, _MIGRATION_LOOP, _MIGRATION_LOOP)
        for root in locate_roots(families[e], loop):
            re = mu + ((root.kappa.real - mu + math.pi) % TWO_PI) - math.pi
            roots.append(root_reported_at(root, families[e], complex(re, root.kappa.imag)))
        return MigrationRow(e, mu, sum(r.multiplicity for r in roots), tuple(roots))

    threads = max(1, int(threads))
    if threads == 1:
        rows = [run(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(run, jobs))
    return tuple(rows)


@dataclass(frozen=True)
class PerturbationReport:
    """Three routes to the same resolvent difference, for cross-checking.

    ``direct`` subtracts the two resolvent matrix elements outright.  The
    factored values route the probe through the one-step difference of the
    walks, with the open resolvent applied on the outside in one and the
    sealed resolvent in the other.
    """

    kappa: complex
    theta: Optional[complex]
    direct: complex
    perturbed_outer: complex
    unperturbed_outer: complex

    @property
    def spread(self) -> float:
        values = (self.direct, self.perturbed_outer, self.unperturbed_outer)
        return max(abs(u - v) for u in values for v in values)


def perturbation_identities(
    fam: ShapeFamily,
    kappa: complex,
    f: WalkState,
    g: WalkState,
    theta: Optional[complex] = None,
) -> PerturbationReport:
    """Evaluate the open-minus-sealed resolvent element three ways.

    The resolvent difference factors through the one-step difference of the
    two walks, which is supported on the wall; both factored orders and the
    direct subtraction are computed and reported.  A complex translation
    ``theta`` is folded into the probe states, so no translated operator is
    ever assembled: the left probe is translated by ``-theta`` and the right
    one by ``-conj(theta)``, which matches taking the adjoint of the
    translation.
    """
    if not isinstance(fam, ShapeFamily):
        raise TypeError("perturbation identities need a ShapeFamily")
    kappa = complex(kappa)
    open_coin = fam.coin
    sealed_coin = fam.base.coin
    for coin, label in ((open_coin, "open"), (sealed_coin, "sealed")):
        value, _ = det_value(coin, kappa)
        if abs(value) < _POLE_GUARD:
            raise NumericalFailure(
                f"kappa = {kappa} sits within {_POLE_GUARD} of a {label} "
                "determinant zero; move the evaluation point"
            )
    left_probe, right_probe = f, g
    if theta is not None and complex(theta) != 0:
        theta = complex(theta)
        left_probe = apply_T_theta(-theta, f)
        right_probe = apply_T_theta(-theta.conjugate(), g)
    else:
        theta = None if theta is None else complex(theta)
    wall = frozenset(wall_sites(fam.box_radius))

    def hop_difference(u: WalkState) -> WalkState:
        on_wall = np.array([site in wall for site in u.sites()], dtype=bool)
        clipped = WalkState._of_rows(u._sites[on_wall], u._amps[on_wall])
        sealed_step = apply_walk(fam.base.operator, clipped)
        return sealed_step.plus(apply_walk(fam.operator, clipped).scaled(-1.0))

    direct = resolvent_matrix_element(
        open_coin, kappa, left_probe, right_probe
    ) - resolvent_matrix_element(sealed_coin, kappa, left_probe, right_probe)
    through_sealed = resolvent_apply(sealed_coin, kappa, left_probe, fam.box_radius)
    perturbed_outer = resolvent_matrix_element(
        open_coin, kappa, hop_difference(through_sealed), right_probe
    )
    through_open = resolvent_apply(open_coin, kappa, left_probe, fam.box_radius)
    unperturbed_outer = resolvent_matrix_element(
        sealed_coin, kappa, hop_difference(through_open), right_probe
    )
    return PerturbationReport(kappa, theta, direct, perturbed_outer, unperturbed_outer)


def _closed_coin(fam) -> CoinField:
    if isinstance(fam, ShapeFamily):
        return fam.base.coin
    if isinstance(fam, CornerFamily):
        return corner_permutation_field(fam.m0, fam.n0).to_coin_field()
    raise TypeError(f"no closed member is defined for {type(fam).__name__}")


def projection_difference(
    fam,
    mu0: float,
    f: WalkState,
    g: WalkState,
) -> complex:
    """Matrix element of the spectral-projection difference over one loop.

    Both members of the family are integrated around the same square
    ``KappaRect.for_scale(mu0, eps)`` of half-width ``eps^(1/2)``, and the
    sealed value is subtracted from the open one.  As ``eps`` shrinks the
    difference is expected to shrink like ``eps^(1/2)`` in norm.
    """
    if fam.eps <= 0:
        raise ValueError("the projection difference needs eps > 0 to size its loop")
    loop = KappaRect.for_scale(float(mu0), fam.eps)
    opened = projection_element(fam.coin, loop, f, g)
    sealed = projection_element(_closed_coin(fam), loop, f, g)
    return opened - sealed
