"""Non-penetrable walls: walks whose box boundary is a perfect mirror.

On the four wall segments of the box (left, right, bottom, top) a coin row
is pinned so that the outgoing channel through the wall receives amplitude
only from the matching incoming exterior channel: a right mover arriving at
the left wall is sent straight back as a left mover, and likewise on the
other three walls.  Unitarity then forces the matching column, so exterior
amplitude reflects without ever entering the box and interior amplitude
never leaves.  The interior dynamics restricted to the directed edges whose
both endpoints lie in the box is therefore a finite unitary matrix; its
eigendecomposition drives an exact Green function, resolvent norms on
shrinking contour loops, and later comparisons with penetrable
approximations of the same wall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from .lattice import (
    CHIRALITIES,
    DOWN,
    LEFT,
    RIGHT,
    STEPS,
    UP,
    CoinField,
    Site,
    WalkOperator,
    WalkState,
    box_edges,
    compress_walk,
    ray_meets_box,
)
from .spectral import TWO_PI, KappaRect, NumericalFailure
from .translation import translation_weights

# Full mirror: swaps left with right and down with up.  It satisfies the
# pinned rows of every wall segment, so it is the canonical wall coin.
TRIVIAL_WALL_COIN = np.array(
    [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)
TRIVIAL_WALL_COIN.setflags(write=False)

_PIN_TOL = 1e-12


def wall_sites(box_radius: int) -> Tuple[Site, ...]:
    """All sites on the four wall segments of the box, corners included once."""
    m0 = box_radius
    sites = set()
    for t in range(-m0, m0 + 1):
        sites.add((-m0, t))
        sites.add((m0, t))
        sites.add((t, -m0))
        sites.add((t, m0))
    return tuple(sorted(sites))


def pinned_rows(site: Site, box_radius: int) -> Tuple[Tuple[int, int], ...]:
    """The (outgoing row, feeding column) pins active at a wall site.

    A pin (j, k) requires row j of the coin to equal the k-th basis row:
    the channel leaving the box through the wall is fed purely by the
    exterior channel bouncing off it.
    """
    m0 = box_radius
    x1, x2 = site
    pins = []
    if x1 == -m0 and abs(x2) <= m0:
        pins.append((LEFT, RIGHT))
    if x1 == m0 and abs(x2) <= m0:
        pins.append((RIGHT, LEFT))
    if x2 == -m0 and abs(x1) <= m0:
        pins.append((DOWN, UP))
    if x2 == m0 and abs(x1) <= m0:
        pins.append((UP, DOWN))
    return tuple(pins)


@dataclass(frozen=True)
class BarrierSpec:
    """Input to build_nonpenetrable.

    wall_coins may override the mirror coin on any wall site as long as the
    pinned rows stay exact; interior_coins live strictly inside the box.
    """

    box_radius: int
    wall_coins: Optional[Mapping[Site, np.ndarray]] = None
    interior_coins: Optional[Mapping[Site, np.ndarray]] = None


def interior_pairs(box_radius: int) -> Tuple[Tuple[Site, int], ...]:
    """Ordered basis of the interior edge space.

    The amplitude of chirality j at x is an interior degree of freedom when
    both x and the site it just came from lie in the box; equivalently the
    four exclusions are left movers on the right wall, right movers on the
    left wall, down movers on the top wall and up movers on the bottom wall.
    """
    return box_edges(((-box_radius, -box_radius), (box_radius, box_radius)))


class NonPenetrableWalk:
    """A validated walk whose box walls satisfy the mirror pins."""

    def __init__(self, spec: BarrierSpec):
        m0 = int(spec.box_radius)
        if m0 < 1:
            raise ValueError(f"a wall needs box radius at least 1, got {m0}")
        overrides: Dict[Site, np.ndarray] = {site: TRIVIAL_WALL_COIN for site in wall_sites(m0)}
        walls = set(overrides)
        for site, mat in (spec.wall_coins or {}).items():
            site = (int(site[0]), int(site[1]))
            if site not in walls:
                raise ValueError(f"{site} is not a wall site of the box of radius {m0}")
            overrides[site] = np.asarray(mat, dtype=complex)
        for site, mat in (spec.interior_coins or {}).items():
            site = (int(site[0]), int(site[1]))
            if max(abs(site[0]), abs(site[1])) >= m0:
                raise ValueError(f"interior coin at {site} is not strictly inside the walls")
            overrides[site] = np.asarray(mat, dtype=complex)
        for site in walls:
            mat = overrides[site]
            for row, col in pinned_rows(site, m0):
                want = np.zeros(4)
                want[col] = 1.0
                if np.max(np.abs(mat[row] - want)) > _PIN_TOL:
                    raise ValueError(
                        f"wall coin at {site} violates the mirror pin on row {row}: "
                        f"got {np.round(mat[row], 12).tolist()}"
                    )
        self.spec = spec
        self.box_radius = m0
        self.coin = CoinField(m0, overrides)
        self.operator = WalkOperator(self.coin)
        self.pairs = interior_pairs(m0)
        self._index = {pair: i for i, pair in enumerate(self.pairs)}
        self._pair_sites = np.array([site for site, _ in self.pairs], dtype=np.int64)
        self._pair_chiralities = np.array([j for _, j in self.pairs])

    @property
    def interior_dimension(self) -> int:
        return len(self.pairs)

    def state_to_vector(self, u: WalkState) -> np.ndarray:
        vec = np.zeros(len(self.pairs), dtype=complex)
        for site, amp in u.items():
            for j in CHIRALITIES:
                a = amp[j]
                if a == 0:
                    continue
                idx = self._index.get((site, j))
                if idx is None:
                    raise ValueError(
                        f"state has amplitude on ({site}, {j}), outside the interior edges"
                    )
                vec[idx] = a
        return vec

    def vector_to_state(self, vec: np.ndarray) -> WalkState:
        return WalkState.from_entries(self._pair_sites, self._pair_chiralities, vec)


def build_nonpenetrable(spec: BarrierSpec) -> NonPenetrableWalk:
    """Assemble and validate a non-penetrable walk from its spec."""
    return NonPenetrableWalk(spec)


_LEAK_TOL = 1e-12
_SPECTRUM_TOL = 1e-10
# Eigenphases within this distance of mu0 count as mu0 itself.
_PHASE_TOL = 1e-8


class InteriorSpectrum:
    """Unitary interior matrix with its eigendecomposition, fully verified.

    eigenphases[j] in [0, 2 pi) satisfies eigenvalue[j] = e^{-i eigenphase[j]};
    vectors[:, j] is the corresponding orthonormal eigenvector in the interior
    edge basis.
    """

    def __init__(self, walk: NonPenetrableWalk):
        self.walk = walk
        n = walk.interior_dimension
        matrix, leak = compress_walk(walk.operator, walk.pairs)
        self.leakage = leak
        if leak > _LEAK_TOL:
            raise NumericalFailure(
                f"interior edge space is not invariant: leak amplitude {leak:.3e}"
            )
        eye = np.eye(n)
        for residual in (matrix.conj().T @ matrix - eye, matrix @ matrix.conj().T - eye):
            worst = float(np.max(np.abs(residual)))
            if worst > _LEAK_TOL:
                raise NumericalFailure(
                    f"interior matrix failed a unitarity check by {worst:.3e}"
                )
        import scipy.linalg  # only where a Schur form is taken, as in ResolventPairing

        t, z = scipy.linalg.schur(matrix, output="complex")
        off = t - np.diag(np.diagonal(t))
        if np.max(np.abs(off)) > _SPECTRUM_TOL:
            raise NumericalFailure(
                "Schur form of the interior matrix is not numerically diagonal "
                f"(off-diagonal {np.max(np.abs(off)):.3e}); it should be, since the "
                "matrix is unitary"
            )
        lams = np.diagonal(t).copy()
        if np.max(np.abs(np.abs(lams) - 1.0)) > _SPECTRUM_TOL:
            raise NumericalFailure("interior eigenvalue moduli drifted off the unit circle")
        phases = (-np.angle(lams)) % TWO_PI
        order = np.argsort(phases, kind="stable")
        self.matrix = matrix
        self.eigenvalues = lams[order]
        self.eigenphases = phases[order]
        self.vectors = z[:, order]
        residual = matrix @ self.vectors - self.vectors * self.eigenvalues[None, :]
        worst = float(np.max(np.abs(residual)))
        if worst > _SPECTRUM_TOL:
            raise NumericalFailure(f"worst eigenpair residual {worst:.3e} too large")

    @property
    def dimension(self) -> int:
        return len(self.eigenphases)

    def multiplicity_of(self, mu0: float) -> int:
        return int(np.sum(self.phase_distance(mu0) <= _PHASE_TOL))

    def phase_distance(self, mu0: float) -> np.ndarray:
        return np.abs((self.eigenphases - mu0 + np.pi) % TWO_PI - np.pi)


def interior_spectrum(g, coins: Optional[Mapping[Site, np.ndarray]] = None) -> InteriorSpectrum:
    """Interior unitary and eigendecomposition of a non-penetrable walk.

    g may be a NonPenetrableWalk (coins must then be omitted) or the box
    radius, in which case coins supplies overrides that are routed to the
    walls or the interior by their location.
    """
    if isinstance(g, NonPenetrableWalk):
        if coins:
            raise ValueError("coins cannot be overridden on an already built walk")
        walk = g
    else:
        m0 = int(g)
        walls = set(wall_sites(m0))
        wall_coins = {}
        inner = {}
        for site, mat in (coins or {}).items():
            site = (int(site[0]), int(site[1]))
            if site in walls:
                wall_coins[site] = mat
            else:
                inner[site] = mat
        walk = build_nonpenetrable(BarrierSpec(m0, wall_coins, inner))
    return InteriorSpectrum(walk)


def green_apply(
    iu: InteriorSpectrum,
    kappa: complex,
    f: WalkState,
    theta: Optional[complex] = None,
) -> WalkState:
    """Apply the interior resolvent (U_i - e^{-i kappa})^{-1} to f.

    With theta given, the translated resolvent T(theta) R(kappa) T(-theta)
    is applied instead; the translations are diagonal on the edge basis.
    """
    walk = iu.walk
    vec = walk.state_to_vector(f)
    if theta is not None:
        vec = translation_weights(-theta, walk._pair_sites, walk._pair_chiralities) * vec
    w = np.exp(-1j * complex(kappa))
    denom = iu.eigenvalues - w
    small = np.min(np.abs(denom))
    if small < 1e-14:
        raise NumericalFailure(
            f"kappa = {kappa} sits on an interior eigenvalue (gap {small:.3e})"
        )
    coeffs = iu.vectors.conj().T @ vec
    out = iu.vectors @ (coeffs / denom)
    if theta is not None:
        out = translation_weights(theta, walk._pair_sites, walk._pair_chiralities) * out
    return walk.vector_to_state(out)


# The rectangle type under its old name, which qwbench and older callers import.
ContourLoop = KappaRect


def norm_on_loop(
    iu: InteriorSpectrum,
    mu0: float,
    eps: float,
    s: float = 0.5,
    *,
    samples: int = 64,
) -> float:
    """Max interior resolvent norm over the square KappaRect.for_scale(mu0, eps, s).

    The norm at kappa is 1 / sigma_min(U_i - e^{-i kappa}), which for the
    unitary, hence normal, U_i is 1 / min_j |lambda_j - e^{-i kappa}|.  Any
    eigenphase other than mu0 inside the loop makes the scaling regime
    meaningless, so that raises instead of returning a number.
    """
    loop = KappaRect.for_scale(mu0, eps, s)
    half_width = eps**s
    distance = iu.phase_distance(mu0)
    if np.any(distance[distance > _PHASE_TOL] <= half_width):
        raise NumericalFailure(
            f"another eigenphase lies inside the loop of half width {half_width:.3e} "
            f"around mu0 = {mu0}"
        )
    kappas = loop.boundary_points(max(64, samples))
    sigma = np.min(np.abs(np.exp(-1j * kappas)[:, None] - iu.eigenvalues[None, :]), axis=1)
    worst = int(np.argmin(sigma))
    if sigma[worst] <= 0:
        raise NumericalFailure(f"resolvent is singular on the loop at kappa = {kappas[worst]}")
    return 1.0 / float(sigma[worst])


_ESCAPE_CAP_FACTOR = 16


def exterior_escape_check(walk: NonPenetrableWalk) -> int:
    """Verify that every exterior channel escapes along a deterministic path.

    Exterior channels scatter only through pinned basis columns, so their
    dynamics is a classical trajectory; each start in the twice dilated box
    that is not an interior edge must leave on a ray missing the box.
    Returns the number of starts traced; a trajectory that fails to escape,
    or that reaches an interior edge, raises NumericalFailure.
    """
    m0 = walk.box_radius
    r = m0 + 2
    cap = _ESCAPE_CAP_FACTOR * (2 * r + 1) ** 2
    interior = set(walk.pairs)
    coin = walk.coin
    traced = 0
    for x1 in range(-r, r + 1):
        for x2 in range(-r, r + 1):
            for j in CHIRALITIES:
                start = ((x1, x2), j)
                if start in interior:
                    continue
                traced += 1
                q, p = start
                for _ in range(cap):
                    if not ray_meets_box(q, p, m0):
                        break
                    col = coin.coin_at(q)[:, p]
                    hits = np.flatnonzero(np.abs(col) > 1e-12)
                    if len(hits) != 1 or abs(abs(col[hits[0]]) - 1.0) > 1e-12:
                        raise NumericalFailure(
                            f"exterior channel ({q}, {p}) scatters through a non-pinned "
                            f"column at {q}; the wall leaks"
                        )
                    p = int(hits[0])
                    q = (q[0] + STEPS[p][0], q[1] + STEPS[p][1])
                    if (q, p) in interior:
                        raise NumericalFailure(
                            f"exterior trajectory from {start} entered the interior at ({q}, {p})"
                        )
                else:
                    raise NumericalFailure(
                        f"exterior trajectory from {start} did not escape within {cap} steps"
                    )
    return traced
