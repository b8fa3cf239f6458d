"""Resolvents, the finite characteristic determinant, and root location.

Outside a box holding the coin overrides the walk is free, so amplitude
that leaves the box never comes back.  On a box that also holds a finite
state f and the probes, R(kappa) f = (U - e^{-i kappa})^{-1} f solves one
linear system with the walk compressed to the box's edges, rational in
e^{-i kappa} and so continued to all kappa.  A single kappa is one dense
solve; the many kappas of a Riesz projection's loop share one complex Schur
form of the compressed walk, and each costs one triangular back
substitution over the Schur steps that join f to the probe.  Only the
determinant comes
from the override block, where the one-sided free kernels give a matrix of
size 4 * (number of overridden sites).  The characteristic determinant

    D(kappa) = det(I + M(kappa)),

with M the compressed kernel-times-coin-increment matrix, is entire and
2 pi periodic; its zeros in the closed lower half plane are the eigenvalues
(on the real axis) and resonances (below it) of the walk, counted with
multiplicity by the winding of D.  Every entry of M is a constant times
e^{i kappa n} for a positive integer n, which is what makes evaluation on
batches of kappa cheap and the continuation to the lower half plane free.

Root location uses the walk itself: compressed to the bounding box of the
override sites it is a finite matrix A with D(kappa) = det(I - e^{i kappa} A),
so the zeros of D are kappa = i log w over the nonzero eigenvalues w of A.
The zeros that fall in the requested rectangle, one copy per period it
spans, are grouped into clusters; each cluster is polished by a
multiplicity-corrected Newton iteration and certified by the winding of D
around a small contour, and the certified multiplicities must add up to the
argument-principle winding around the whole rectangle.  Windings that refuse
to settle to integers, and counts that disagree, raise NumericalFailure
rather than being rounded.

The windings use those candidates too (the deflated argument principle of
Kravanja and Van Barel).  Around a rectangle the integrand is
(log D)' - sum_k 1/(kappa - c_k) over the candidate copies c_k near the
contour, which is smooth wherever the candidates are right, so a contour
passing close to zeros no longer forces deep refinement; the copies
strictly inside are added back to the count.  A bad candidate cannot change
a count: a missing one leaves its zero's pole in the integrand, where the
quadrature counts it as before, and a spurious one adds a pole whose
winding cancels its own inside count.  It costs points, never correctness.
So a deflated winding seeds only 2 Simpson panels per edge where a plain
one seeds 8: the remainder is smooth on the scale of a small loop, and
adaptive refinement still finds any unmatched pole.  Long edges get more
panels from the highest frequency of M either way.

A band one period wide, built as KappaRect(a, a + 2 pi, ...) so that
KappaRect.periodic holds exactly, is first counted by the periodic
trapezoid rule.  D is 2 pi periodic, so the vertical edges cancel and only
the two horizontal lines remain.  Since D = prod_k (1 - e^{i (kappa - c_k)})
over the candidates c_k, each exact candidate leaves (log D)' minus its
periodic pole 1/2 cot((kappa - c_k)/2) equal to the constant i/2.  So the
remainder is smooth and periodic along both lines, where the trapezoid rule
converges geometrically (Trefethen and Weideman, SIAM Review 56, 2014), and
32 points per line suffice; 64 or 128 where a candidate comes close to a
line.  The count is its winding plus the candidates strictly between the
lines.  The rule decides only when no candidate lies too near either line
and the sums on all and on every other point agree on an integer;
otherwise the adaptive rule counts as before.  No zero lies above the real
axis, so a band reaching above it is counted up to a top line clear of the
eigenvalues on the axis.
A root's multiplicity is certified first on a small circle, where the
trapezoid rule converges geometrically, and by a small rectangle only if
the 16- and 32-point sums disagree.

Every walk here moves each chirality one lattice step, so a step flips the
parity of x1 + x2, and the exponent of each nonzero entry of M has the
parity of its row site plus its column site.  So
M(kappa + pi) = S M(kappa) S with S = diag((-1)^{x1 + x2}), and
D(kappa + pi) = D(kappa): zeros come in pairs kappa, kappa + pi.  A band one
period wide is therefore half-open, [re_min, re_min + 2 pi), and counted
on half of it: the periodic rule evaluates (log D)' on the first half of
each line's points and reuses the values on the second, and the adaptive
rule counts a window pi wide and doubles the count.  A root pi from one
already certified on its own circle, with the same multiplicity, takes that
certificate instead of drawing a circle of its own.

Every winding evaluates (log D)' block by block.  The entries of M are
fixed coefficients times powers of e^{i kappa}, so which entries vanish
does not depend on kappa.  Ordered by the strongly connected components of
that pattern, M is block triangular, and D = prod_b det(I + M_bb) holds
exactly over its diagonal blocks M_bb; so (log D)' is the sum of
trace((I + M_bb)^{-1} M_bb') over the blocks.  The box walk splits the same
way, D = prod_b det(I - e^{i kappa} A_bb) (Duff and Reid, ACM TOMS 4,
1978), and on an elastic field its blocks are the closed orbits: on 60
seeded radius-2 fields (m = 100) they hold 2 to 24 indices, where M's
largest block holds 4 to 70, 44 in the median.  On the corner and barrier
models A's blocks are the larger, so each family takes the table whose
batched solves cost less, and checks A's against det(I + M) above the axis
before taking it (see DeterminantFamily.blocks).  A winding only yields an
integer, so it does not see that the forms round differently.  Newton, the
residuals and every reported determinant stay on the full I + M, so the
roots and residuals are those of the full matrix, to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from .lattice import (CHIRALITIES, STEP_AXIS, STEP_SIGN, STEPS, CoinField, WalkState, box_edges,
                      compress_walk)

TWO_PI = 2.0 * np.pi

# Default scan strip: one full period in Re kappa, shifted a little off zero
# so that the frequently occurring roots at rational multiples of pi stay
# clear of the vertical seam, and reaching just above the real axis so that
# embedded eigenvalues are enclosed.
STRIP_SHIFT = -np.pi / 32
STRIP_IM_MIN = -2.0
STRIP_IM_MAX = 1e-6

EIGENVALUE_IM_TOL = 1e-8
ROOT_RESIDUAL_TOL = 1e-8
WINDING_INTEGER_TOL = 1e-3

# Bounds on the batched contour quadrature: the new points of one level (a
# zero next to the contour would otherwise let levels grow until the depth
# budget runs out) and the array entries one batched step of (log D)' holds:
# a stack of matrices to solve, or of pole terms.  At 1 << 13 each complex
# temporary is at most 128 KiB, which glibc's allocator keeps for reuse.
# Larger temporaries go back to the system when freed and are faulted in
# again on the next call: on a 2-vCPU VM, a 32-point batch on the radius-1
# random field of seed 3 (576 block entries a point) took 256 minor faults
# and 1.1-1.3 ms a call at 1 << 16, 157-220 faults and 1.1-1.3 ms at
# 1 << 14, and no fault and 0.9-1.0 ms at 1 << 13; 1 << 12 was no faster
# (1.0-1.6 ms).
_LEVEL_CAP = 1 << 14
_CHUNK_ENTRIES = 1 << 13
# The residuals of a block of resolvent kappas in ResolventPairing.values.
# Its loop makes a few numpy calls per Schur step and block, so smaller
# blocks only add calls: two shape.projection_difference calls on the
# barrier of shape M0 1 took 23.5 ms at 1 << 13 and 21.1-21.8 ms here.
_PAIRING_CHUNK_ENTRIES = 1 << 16
# Perturbed rectangles winding_number tries after the first one.
_BOUNDARY_RETRIES = 3


class NumericalFailure(RuntimeError):
    """A spectral computation could not certify its own answer."""


def _free_kernel_exponent(j, x, y) -> np.ndarray:
    """Exponents n with G_j(x, y) = -e^{i kappa n}, and 0 where G_j(x, y) = 0.

    G_j(x, y) is nonzero only where y is d >= 0 steps behind x along the
    line of chirality j, and then n = d + 1.  Broadcasts over the
    chiralities j and the sites x and y (the last axis of x and y holds the
    two coordinates).
    """
    j = np.asarray(j)
    along_x1 = np.asarray(STEP_AXIS)[j] == 0
    offset = np.asarray(x) - np.asarray(y)
    along = np.where(along_x1, offset[..., 0], offset[..., 1])
    across = np.where(along_x1, offset[..., 1], offset[..., 0])
    d = np.asarray(STEP_SIGN)[j] * along
    return np.where((across == 0) & (d >= 0), d + 1, 0)


def resolvent_kernel_entry(j: int, x: Tuple[int, int], y: Tuple[int, int], kappa: complex) -> complex:
    """Kernel of the free resolvent (U0 - e^{-i kappa})^{-1} on chirality j.

    Left movers see a one-sided exponential to their right (y1 >= x1 on the
    same row), right movers the mirror image, and the vertical pair the same
    along columns.  Entries are -e^{i kappa (distance + 1)}; for Im kappa > 0
    these are the summable kernels of the honest resolvent and the formula
    itself continues entirely to all kappa.
    """
    n = int(_free_kernel_exponent(j, x, y))
    if n == 0:
        return 0.0j
    return -np.exp(1j * kappa * n)


@dataclass(frozen=True)
class KappaRect:
    """Axis-aligned rectangle in the complex kappa plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.re_min, self.re_max, self.im_min, self.im_max))):
            raise ValueError(f"rectangle {self} has a bound that is not finite")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError(f"degenerate rectangle {self}")

    @property
    def width(self) -> float:
        return self.re_max - self.re_min

    @property
    def height(self) -> float:
        return self.im_max - self.im_min

    @property
    def periodic(self) -> bool:
        """One period [re_min, re_max), half-open: exact for KappaRect(a, a + TWO_PI, ...)."""
        return self.re_max == self.re_min + TWO_PI

    def corners(self) -> Tuple[complex, complex, complex, complex]:
        """Counterclockwise from the bottom-left corner."""
        return (
            complex(self.re_min, self.im_min),
            complex(self.re_max, self.im_min),
            complex(self.re_max, self.im_max),
            complex(self.re_min, self.im_max),
        )

    def expanded(self, delta: float) -> "KappaRect":
        return KappaRect(
            self.re_min - delta, self.re_max + delta, self.im_min - delta, self.im_max + delta
        )

    @staticmethod
    def around(z: complex, half_width: float) -> "KappaRect":
        r = half_width
        return KappaRect(z.real - r, z.real + r, z.imag - r, z.imag + r)

    @staticmethod
    def for_scale(mu0: float, eps: float, s: float = 0.5, a: float = 1.0, b: float = 1.0) -> "KappaRect":
        """The loop of half-width a eps^s and half-height b eps^s around the real mu0."""
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        if not 0.0 < s:
            raise ValueError(f"the contour exponent must be positive, got s={s}")
        r = eps**s
        return KappaRect(mu0 - a * r, mu0 + a * r, -b * r, b * r)

    def boundary_points(self, n: int) -> np.ndarray:
        """At least n points along the boundary, counterclockwise, corners included."""
        per_side = max(1, int(np.ceil(n / 4)))
        corners = self.corners()
        ts = np.arange(per_side) / per_side
        return np.concatenate([a + (b - a) * ts for a, b in zip(corners, corners[1:] + corners[:1])])

    def contains(self, z: complex) -> bool:
        return self.re_min <= z.real <= self.re_max and self.im_min <= z.imag <= self.im_max


def default_strip(im_min: float = STRIP_IM_MIN) -> KappaRect:
    return KappaRect(STRIP_SHIFT, STRIP_SHIFT + TWO_PI, im_min, STRIP_IM_MAX)


_FOLD_SNAP = 1e-12


def fold_real(re: float, frame: float = 0.0) -> float:
    """re moved by whole periods into [frame, frame + 2 pi); within 1e-12 of its end, frame."""
    re = frame + (re - frame) % TWO_PI
    return re if re < frame + TWO_PI - _FOLD_SNAP else frame


@dataclass(frozen=True)
class Root:
    """A zero of the characteristic determinant.

    kind is "eigenvalue" for zeros on the real axis (|Im kappa| at most
    1e-8 before snapping) and "resonance" for zeros strictly below it.
    multiplicity is the verified winding of a small contour around kappa.
    """

    kappa: complex
    multiplicity: int
    residual: float
    kind: str

    @property
    def w(self) -> complex:
        """The associated spectral parameter e^{-i kappa}."""
        return complex(np.exp(-1j * self.kappa))


# A block of the box walk, M_bb = -e^{i kappa} A_bb, has exponent 1 in every
# entry: one power index broadcast over a stack of blocks.
_UNIT_EXPONENT = np.ones((1, 1, 1), dtype=int)
# Points above the axis where the box walk's winding table is checked
# against det(I + M), and the relative gap allowed.  There both sides are
# well conditioned: the gap was at most 3.0e-15 on elastic radius-2 seeds
# 0 to 59, while zeroing any one entry of A that moved its nonzero
# eigenvalues (132 of 960 such drops on seeds 0 to 11) gave a gap above
# 1e-8 every time.  Below the axis clean fields part too: at 4.1 - 1.1i
# elastic radius-2 seed 16 gives 0.74.
_GUARD_KAPPAS = np.array([0.7 + 0.3j, 2.3 + 0.2j, 4.1 + 0.1j])
_GUARD_TOL = 1e-8


def _gather(idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row and column indices that gather the stacked blocks of idx (see _diagonal_blocks)."""
    return idx[:, :, None], idx[:, None, :]


def _solve_cost(split: List[np.ndarray]) -> int:
    """Sum of blocks times size^3 over a block split: the work of one batched solve."""
    return sum(idx.shape[0] * idx.shape[1] ** 3 for idx in split)


def _diagonal_blocks(coeff: np.ndarray) -> List[np.ndarray]:
    """The diagonal blocks of coeff's block triangular form, as index arrays stacked by size.

    The blocks are the strongly connected components of the graph with an
    edge i -> j wherever coeff[i, j] != 0 (Tarjan, SIAM J. Comput. 1, 1972;
    Duff and Reid, ACM TOMS 4, 1978): ordered by them, the matrix is block
    triangular.  Reachability comes from squaring the pattern until it
    stops growing; i and j share a component when each reaches the other.
    A single index with a zero diagonal entry is a zero block and is left
    out.  Each array has shape (blocks, size).
    """
    if not coeff.any():
        return []
    m = len(coeff)
    reach = (coeff != 0) | np.eye(m, dtype=bool)
    while True:
        wider = reach.astype(float)
        wider = (wider @ wider) > 0
        if np.array_equal(wider, reach):
            break
        reach = wider
    # Each index's component, named by its smallest member; sorted by name,
    # the members of a component are a run of `order`, in ascending order.
    first = np.argmax(reach & reach.T, axis=1)
    sizes = np.bincount(first, minlength=m)
    order = np.argsort(first, kind="stable")
    ends = np.cumsum(sizes)
    by_size = {}
    for root in np.flatnonzero((sizes > 1) | ((sizes == 1) & (np.diagonal(coeff) != 0))).tolist():
        size = int(sizes[root])
        by_size.setdefault(size, []).append(order[ends[root] - size : ends[root]])
    return [np.array(by_size[size]) for size in sorted(by_size)]


class DeterminantFamily:
    """Precomputed structure of M(kappa) for one coin field.

    Every matrix entry is coeff * e^{i kappa * expo} with integer expo >= 1,
    so a batch of kappas is evaluated with one broadcast exponential.  The
    box walk A (see _box_walk), with D = det(I - e^{i kappa} A), is built
    once and shared by the candidates and the winding table.  Build one
    through DeterminantFamily.of, which keeps a field's family on the field.

    dlogs, behind every winding, sums (log D)' over the diagonal blocks of
    the winding table (see blocks): D is the product of the blocks'
    determinants, exactly.  matrices, logdet, abs_det and det_dlog, behind
    Newton and the reported residuals, stay on the full I + M.
    """

    def __init__(self, coin: CoinField):
        self.coin = coin
        sites = coin.override_sites()
        self.pairs: Tuple[Tuple[Tuple[int, int], int], ...] = tuple(
            (site, j) for site in sites for j in CHIRALITIES
        )
        m = len(self.pairs)
        self.m = m
        # The free kernel is diagonal in chirality on the row index while the
        # coin increment mixes chiralities on the column one: the (row, col)
        # entry is K_j(x, y) * (C(y) - I)[j, k], and K_j(x, y) is the free
        # kernel evaluated at y shifted one step along j.  Indexed
        # [x, j, y, k] with rows (x, j) and columns (y, k) in the order of
        # self.pairs.
        xy = np.array(sites, dtype=int).reshape(-1, 2)
        shifted = xy[None, None, :, :] + np.array(STEPS)[None, :, None, :]
        n = _free_kernel_exponent(np.array(CHIRALITIES)[None, :, None], xy[:, None, None, :], shifted)
        c = -(np.array([coin.coin_at(site) for site in sites], dtype=complex).reshape(-1, 4, 4)
              - np.eye(4)).transpose(1, 0, 2)[None]
        keep = (n > 0)[..., None] & (c != 0)
        expo = np.where(keep, n[..., None], 0).reshape(m, m)
        coeff = np.where(keep, c, 0.0).reshape(m, m)
        self.expo = expo
        self.coeff = coeff
        self._top = int(expo.max()) if expo.size else 0
        self._walk: Optional[np.ndarray] = None
        self._candidates: Optional[np.ndarray] = None
        self._table: Optional[Tuple[str, List[Tuple[np.ndarray, np.ndarray, np.ndarray]]]] = None

    @classmethod
    def of(cls, coin) -> "DeterminantFamily":
        """The family of a coin field, built on first use and kept on the (immutable) field.

        A family is its own.  Threads asking at once may each build one; the
        last stays, and all are the same.
        """
        if isinstance(coin, cls):
            return coin
        if coin._family is None:
            coin._family = cls(coin)
        return coin._family

    @property
    def walk(self) -> np.ndarray:
        """The box walk A of the coin field (see _box_walk), built once."""
        if self._walk is None:
            self._walk = _box_walk(self.coin)
        return self._walk

    @property
    def candidates(self) -> np.ndarray:
        """The zeros of D modulo 2 pi, eigenvalues of the compressed walk, computed once.

        Threads sharing a family may each solve the eigenproblem once; the
        last answer stays, and all answers are the same.
        """
        if self._candidates is None:
            self._candidates = _zero_candidates(self)
        return self._candidates

    def _powers(self, kappas: np.ndarray) -> np.ndarray:
        """The N + 1 powers e^{i kappa n}, one row per kappa.

        Gathered by exponent they give the same products as one exponential
        per entry.
        """
        return np.exp(1j * kappas[:, None] * np.arange(self._top + 1, dtype=float))

    def matrices(self, kappas: np.ndarray) -> np.ndarray:
        """Stack of M(kappa), shape (len(kappas), m, m)."""
        kappas = np.asarray(kappas, dtype=complex).reshape(-1)
        return self.coeff * self._powers(kappas)[:, self.expo]

    def logdet(self, kappas: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(log|D|, arg D) for a batch of kappas, overflow free."""
        a = self.matrices(kappas)
        a[:, np.arange(self.m), np.arange(self.m)] += 1.0
        sign, logabs = np.linalg.slogdet(a)
        with np.errstate(divide="ignore", invalid="ignore"):
            ang = np.angle(sign)
        return logabs, ang

    @property
    def table(self) -> str:
        """"A" if the windings run on the box walk's blocks, "M" if on M's; see blocks."""
        return self._winding_table()[0]

    @property
    def blocks(self) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(coeff, expo, i * expo) of the winding table's diagonal blocks, stacked by size.

        The table is M's block triangular form or A's, D being the product
        of either's diagonal blocks' determinants (see _diagonal_blocks).
        A block of A enters as M_bb = -e^{i kappa} A_bb: coefficients -A_bb,
        every exponent 1.  On elastic fields A's blocks are the closed
        orbits, much smaller than M's; on the corner and barrier models
        they are the larger.  So A's table is taken only where its sum of
        blocks times size^3 (the cost of a batched solve) is strictly below
        M's, and only after det(I + M) and the product of its blocks'
        determinants agree at _GUARD_KAPPAS: the candidates come from A
        too, and a box walk that lost a cycle would otherwise lose its
        zeros from the candidates and the windings alike.  The table not
        taken is never built.  Computed once, as candidates; each entry
        holds every block of one size, with shape (blocks, size, size).
        """
        return self._winding_table()[1]

    def _winding_table(self) -> Tuple[str, List[Tuple[np.ndarray, np.ndarray, np.ndarray]]]:
        if self._table is None:
            split = _diagonal_blocks(self.coeff)
            cost = _solve_cost(split)
            # No block of A can cost less than no block of M.
            walk_split = _diagonal_blocks(self.walk) if cost else split
            if _solve_cost(walk_split) < cost:
                stacks = [(-self.walk[rows, cols], _UNIT_EXPONENT, 1j)
                          for rows, cols in map(_gather, walk_split)]
                self._check_walk_table(stacks)
                self._table = ("A", stacks)
            else:
                self._table = ("M", [
                    (self.coeff[rows, cols], self.expo[rows, cols], 1j * self.expo[rows, cols])
                    for rows, cols in map(_gather, split)])
        return self._table

    def _check_walk_table(self, stacks) -> None:
        """NumericalFailure unless det(I + M) = prod_b det(I - e^{i kappa} A_bb) at _GUARD_KAPPAS."""
        full = np.linalg.det(self.matrices(_GUARD_KAPPAS) + np.eye(self.m))
        powers = self._powers(_GUARD_KAPPAS)
        split = np.ones(len(_GUARD_KAPPAS), dtype=complex)
        for coeff, index, _ in stacks:
            split *= np.linalg.det(coeff * powers[:, index] + np.eye(coeff.shape[-1])).prod(axis=1)
        gap = np.abs(split - full) / np.abs(full)
        if not np.all(gap <= _GUARD_TOL):
            k = int(np.argmin(gap <= _GUARD_TOL))
            raise NumericalFailure(
                f"the box walk's blocks give D = {split[k]:.6e} at kappa = {_GUARD_KAPPAS[k]}, "
                f"where det(I + M) = {full[k]:.6e} (relative gap {gap[k]:.1e} above "
                f"{_GUARD_TOL:.0e}); the box walk does not match the coin field"
            )

    def dlogs(self, kappas: np.ndarray) -> np.ndarray:
        """d/dkappa log D = sum_b trace((I + M_bb)^{-1} M_bb') for a batch of kappas.

        The sum runs over the diagonal blocks of the winding table (see
        blocks), each block size one batched solve; on A's blocks it is
        -i sum_b trace((I - z A_bb)^{-1} z A_bb) with z = e^{i kappa}.  A
        table with no block gives zeros: D = 1.  Solved in stacks of at most
        _CHUNK_ENTRIES block entries; a stack in which some block is singular
        comes back as inf throughout.
        """
        powers = self._powers(np.asarray(kappas, dtype=complex).reshape(-1))
        stacks = self.blocks
        out = np.zeros(len(powers), dtype=complex)
        if not stacks:
            return out
        chunk = max(1, _CHUNK_ENTRIES // sum(c.size for c, _, _ in stacks))
        for lo in range(0, len(powers), chunk):
            try:
                for coeff, index, dexpo in stacks:
                    mats = coeff * powers[lo : lo + chunk, index]
                    solved = np.linalg.solve(mats + np.eye(coeff.shape[-1]), dexpo * mats)
                    out[lo : lo + chunk] += np.trace(solved, axis1=-2, axis2=-1).sum(axis=1)
            except np.linalg.LinAlgError:
                out[lo : lo + chunk] = np.inf
        return out

    def _shifted(self, kappa: complex) -> Tuple[np.ndarray, np.ndarray]:
        """(M(kappa), I + M(kappa)) at one kappa."""
        mats = self.coeff * self._powers(np.array([kappa], dtype=complex))[0, self.expo]
        return mats, mats + np.eye(self.m)

    def det(self, kappa: complex) -> complex:
        """D(kappa) alone, to the bit the D of det_dlog; it may overflow deep in the strip."""
        sign, logabs = np.linalg.slogdet(self._shifted(kappa)[1])
        return complex(sign * np.exp(logabs))

    def det_dlog(self, kappa: complex) -> Tuple[complex, complex]:
        """(D(kappa), d/dkappa log D(kappa)); D may overflow deep in the strip."""
        mats, shifted = self._shifted(kappa)
        sign, logabs = np.linalg.slogdet(shifted)
        try:
            dlog = complex(np.trace(np.linalg.solve(shifted, 1j * self.expo * mats)))
        except np.linalg.LinAlgError:
            dlog = complex(np.inf)
        return complex(sign * np.exp(logabs)), dlog

    def abs_det(self, kappa: complex) -> float:
        logabs, _ = self.logdet(np.array([kappa]))
        return float(np.exp(logabs[0]))


def det_value(coin: CoinField, kappa: complex) -> Tuple[complex, complex]:
    """(D(kappa), d log D / d kappa) at a single point, on the family of DeterminantFamily.of."""
    return DeterminantFamily.of(coin).det_dlog(kappa)


def root_reported_at(root: Root, fam: DeterminantFamily, kappa: complex) -> Root:
    """Move a root to the reported kappa, re-measuring the determinant there.

    Reporting can shift the real part by whole periods or into the frame of
    a loop center, and the shifted float is not bit-identical to the located
    root, so the residual is re-evaluated at the value actually emitted.
    Anyone re-checking |D(kappa)| from the output then reproduces a number
    bounded by the reported residual.
    """
    return replace(root, kappa=kappa, residual=max(float(root.residual), abs(fam.det(kappa))))


class _EdgeTrouble(Exception):
    """Contour integration hit a (near) zero; the caller may perturb."""


_SIMPSON_DEPTH = 48
_EDGE_TOL = 2e-4
_NO_POLES = np.empty(0, dtype=complex)


def _pole_sum(kappas: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """sum_k 1/(kappa - poles_k) at each kappa, in stacks of at most _CHUNK_ENTRIES terms."""
    out = np.zeros(len(kappas), dtype=complex)
    if poles.size:
        chunk = max(1, _CHUNK_ENTRIES // poles.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            for lo in range(0, len(kappas), chunk):
                out[lo : lo + chunk] = np.sum(1.0 / (kappas[lo : lo + chunk, None] - poles), axis=1)
    return out


def _contour_dlogs(fam: DeterminantFamily, kappas: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """(log D)' minus the poles' sum at one refinement level's new points, as one batch."""
    if len(kappas) > _LEVEL_CAP:
        raise _EdgeTrouble(f"adaptive contour integration needs {len(kappas)} points in one level")
    values = fam.dlogs(kappas) - _pole_sum(kappas, poles)
    if not np.all(np.isfinite(values)):
        raise _EdgeTrouble("determinant (near) zero on the contour")
    return values


def _contour_dlog_integral(
    fam: DeterminantFamily, rect: KappaRect, poles: np.ndarray = _NO_POLES
) -> complex:
    """Integral of (log D)' - sum_k 1/(kappa - poles_k) counterclockwise around rect.

    Integrating the logarithmic derivative instead of tracking arg D keeps
    long edges honest: the derivative is smooth wherever D is zero free, so
    a whole hidden turn of D between samples cannot alias away.  The seed
    panels of each edge are matched to the highest frequency e^{i kappa n}
    present in the matrix family; adaptive Simpson refinement then
    concentrates near any zeros close to the edge.  Subtracting the poles of
    the zeros' candidates (the deflated argument principle) removes that
    refinement wherever a candidate is right; where one is missing or
    spurious, the unmatched pole is refined and integrated as any other.
    Each edge gets at least 2 seed panels when poles are subtracted and 8
    when not: a deflated integrand has no zero to resolve near the edge
    unless a candidate is wrong, and then refinement resolves it, while a
    plain one (such as a fallback square around a root) keeps the wider
    seed that makes its first error estimates trustworthy.  With no poles
    this is the plain integral of (log D)'.  All panels are
    refined together, level by level, each level's new points in one batch.
    Raises _EdgeTrouble where the integrand is not finite on the contour or
    a level or the depth budget is exceeded.
    """
    corners = rect.corners()
    e_max = max(1, fam._top)
    floor = 2 if poles.size else 8
    knots, tols = [], []
    for i in range(4):
        a, b = corners[i], corners[(i + 1) % 4]
        panels = max(floor, int(np.ceil(abs(b - a) * 4.0 * e_max)))
        knots.append(a + (b - a) * np.arange(panels) / panels)
        tols.append(np.full(panels, _EDGE_TOL / panels))
    # The knots go once around the loop; each panel ends where the next starts.
    z0, tol = np.concatenate(knots), np.concatenate(tols)
    z2 = np.roll(z0, -1)
    z1 = 0.5 * (z0 + z2)
    f0, f1 = np.split(_contour_dlogs(fam, np.concatenate([z0, z1]), poles), 2)
    f2 = np.roll(f0, -1)
    whole = (z2 - z0) / 6.0 * (f0 + 4.0 * f1 + f2)
    total = 0.0j
    for _ in range(_SIMPSON_DEPTH + 1):
        zl, zr = 0.5 * (z0 + z1), 0.5 * (z1 + z2)
        fl, fr = np.split(_contour_dlogs(fam, np.concatenate([zl, zr]), poles), 2)
        left = (z1 - z0) / 6.0 * (f0 + 4.0 * fl + f1)
        right = (z2 - z1) / 6.0 * (f1 + 4.0 * fr + f2)
        err = left + right - whole
        done = np.abs(err) <= 15.0 * tol
        total += np.sum((left + right + err / 15.0)[done])
        if done.all():
            return total
        halves = ((z0, z1), (zl, zr), (z1, z2), (f0, f1), (fl, fr), (f1, f2),
                  (left, right), (tol / 2.0, tol / 2.0))
        z0, z1, z2, f0, f1, f2, whole, tol = [np.concatenate([h[0][~done], h[1][~done]]) for h in halves]
    raise _EdgeTrouble("adaptive contour integration exhausted its depth budget")


def _integer_turns(total: complex, contour) -> int:
    """The winding a contour integral of (log D)' stands for, if it is clean."""
    # The real part is the change of log|D| around a closed loop, zero in
    # exact arithmetic; a drift means the quadrature cannot be trusted.
    if abs(total.real) > 0.02 * (1.0 + abs(total.imag)):
        raise _EdgeTrouble(f"log|D| failed to close around {contour} (drift {total.real:.2e})")
    turns = total.imag / TWO_PI
    nearest = round(turns)
    if abs(turns - nearest) > WINDING_INTEGER_TOL:
        raise _EdgeTrouble(f"winding {turns:.6f} does not settle to an integer")
    return int(nearest)


def _winding(fam: DeterminantFamily, rect: KappaRect, poles: np.ndarray = _NO_POLES) -> int:
    """Zeros of D inside rect: the deflated winding plus the poles strictly inside."""
    inside = ((poles.real > rect.re_min) & (poles.real < rect.re_max)
              & (poles.imag > rect.im_min) & (poles.imag < rect.im_max))
    return _integer_turns(_contour_dlog_integral(fam, rect, poles), rect) + int(np.count_nonzero(inside))


# Points per line of the periodic rule, doubled from the first to the last
# count while a candidate lies too near a line; the coarse sum takes every
# other point.
_PERIODIC_POINTS = 32
_PERIODIC_MAX_POINTS = 128
# With N points per line the periodic rule refuses a band with a candidate
# closer than _PERIODIC_GAP * 32 / N to either line: 1e-2 at 32 points,
# 5e-3 at 64 and 2.5e-3 at 128.  A trapezoid on a line cannot tell which
# side of it a pole lies on: take a candidate at distance rho on one side
# and its zero just across.  The zero's pole and the subtracted one then
# leave the N-point sum (1 - s^2) / (2 (1 - 2 s cos(theta) + s^2))
# >= tanh(N rho / 2) / 2 turns off the wrong integer, with s = e^{-N rho}
# and theta set by where the pair sits between points.  Both the N- and the
# N/2-point sums stay farther than WINDING_INTEGER_TOL from it once
# tanh(N rho / 4) > 2 WINDING_INTEGER_TOL, that is N rho > 8e-3 (for N = 32,
# rho > 2.5e-4; 3e-4 measured, on 400 offsets).  The gap keeps a factor of
# 40 at every N.  On 200 seeded random radius-1 fields the nearest candidate
# stayed 0.05 below the line 1e-6 above the axis.
_PERIODIC_GAP = 1e-2


def _half_cot(u: np.ndarray) -> np.ndarray:
    """1/2 cot(u/2) = (i/2)(q + 1)/(q - 1) with q = e^{iu}, from the side where |q| <= 1."""
    side = np.where(u.imag >= 0, 1.0, -1.0)
    q = np.exp(1j * side * u)
    return side * 0.5j * (q + 1.0) / (q - 1.0)


def _periodic_winding(fam: DeterminantFamily, rect: KappaRect) -> Optional[int]:
    """Zeros of D in a band one period wide by the periodic rule, or None if it cannot tell.

    Both lines are sampled at n equispaced points, and every candidate's
    periodic pole is subtracted once.  n starts at _PERIODIC_POINTS and
    doubles while a candidate lies within _PERIODIC_GAP * 32 / n of a line;
    past _PERIODIC_MAX_POINTS the rule declines.  The second half of each
    line's points lies pi from the first, where (log D)' repeats, so one
    batch of n points evaluates it on the first halves only.
    """
    cands = fam.candidates
    y = cands.imag
    near = np.min(np.minimum(np.abs(y - rect.im_min), np.abs(y - rect.im_max)), initial=np.inf)
    n = _PERIODIC_POINTS
    while near < _PERIODIC_GAP * _PERIODIC_POINTS / n:
        n *= 2
        if n > _PERIODIC_MAX_POINTS:
            return None
    x = rect.re_min + TWO_PI * np.arange(n) / n
    # Indexed [line, half of the line, point].
    lines = np.concatenate([x + 1j * rect.im_min, x + 1j * rect.im_max]).reshape(2, 2, -1)
    dlogs = np.broadcast_to(fam.dlogs(lines[:, 0].reshape(-1)).reshape(2, 1, -1), lines.shape)
    kappas = lines.reshape(-1)
    with np.errstate(invalid="ignore"):
        values = dlogs.reshape(-1) - _half_cot(kappas[:, None] - cands).sum(axis=1)
        # Counterclockwise: the bottom line left to right, the top one back.
        bottom, top = np.split(values, 2)
        coarse = (bottom[::2] - top[::2]).sum() * (2 * TWO_PI / n)
        fine = (bottom - top).sum() * (TWO_PI / n)
    if not abs(coarse - fine) <= TWO_PI * WINDING_INTEGER_TOL:
        return None
    try:
        turns = _integer_turns(fine, rect)
    except _EdgeTrouble:
        return None
    return turns + int(np.count_nonzero((y > rect.im_min) & (y < rect.im_max)))


def _half_period_window(kappas: np.ndarray, band: KappaRect) -> KappaRect:
    """A window pi wide that holds half the zeros of a band one period wide.

    D(kappa + pi) = D(kappa), so [a, a + 2 pi) holds the zeros of
    [a, a + pi) twice over, and every a gives the band's count.  a lies
    midway in the widest gap between the candidates' real parts modulo pi,
    so that the window's vertical edges stay clear of zeros.  (Widening the
    band in Re instead would count a zero on its seam twice.)
    """
    start = band.re_min
    if kappas.size:
        xs = np.sort((kappas.real - band.re_min) % np.pi)
        gaps = np.diff(xs, append=xs[0] + np.pi)
        widest = int(np.argmax(gaps))
        start += float(xs[widest] + gaps[widest] / 2)
    return KappaRect(start, start + np.pi, band.im_min, band.im_max)


def winding_number(coin: CoinField, region: KappaRect) -> int:
    """Number of determinant zeros inside the rectangle, by argument principle.

    The winding is deflated: the candidate zeros near the contour are
    subtracted from (log D)' and those strictly inside added back to the
    count.  A wrong candidate list cannot change the count, only its cost:
    a zero without a candidate is integrated as a pole of the remainder,
    and a candidate without a zero contributes a pole that winds -1 around
    exactly the rectangles that count it inside.  If the integrand is not
    finite on the boundary, or the quadrature runs out of its depth or
    level budget, the rectangle is expanded by a tiny amount and retried;
    persistent trouble raises NumericalFailure.  A family whose winding
    table (see DeterminantFamily.blocks) has no block has D = 1 exactly: its
    pattern has no cycle, so no zero lies anywhere.  coin is a coin field,
    whose family DeterminantFamily.of builds once, or a family.

    A periodic rectangle (see KappaRect.periodic; the default strip is one)
    is first counted by the periodic rule: the trapezoid sums of
    (log D)' minus every candidate's pole 1/2 cot((kappa - c_k)/2) on its
    two lines, n points each, plus the candidates strictly between them.
    n is 32, doubled up to 128 while a candidate lies within
    _PERIODIC_GAP * 32 / n of a line; past 128 the rule declines, as it does
    unless the n/2- and n-point sums agree to WINDING_INTEGER_TOL turns and
    the n-point sum passes the integer checks.  Where it declines, the
    adaptive rule above counts a window pi wide (see _half_period_window)
    and doubles the count, and a retry translates the window in Re instead
    of widening it.  Such a band holds its zeros in [re_min, re_min + 2 pi):
    a zero on its seam is counted once.  The walk is unitary, so no zero
    lies above the axis: a periodic band whose top line lies above it is
    counted, by either rule, up to Im kappa = max(im_max, 2 _PERIODIC_GAP),
    clear of the eigenvalues on the axis that a line 1e-6 above it (the
    default strip's) would pass inside the gap.
    """
    fam = DeterminantFamily.of(coin)
    if not fam.blocks:
        return 0
    if region.periodic and region.im_max > 0:
        region = replace(region, im_max=max(region.im_max, 2 * _PERIODIC_GAP))
    delta = max(1e-8, 1e-7 * max(region.width, region.height))
    retries = [delta * k for k in range(1, _BOUNDARY_RETRIES + 1)]
    if region.periodic:
        count = _periodic_winding(fam, region)
        if count is not None:
            return count
        half = _half_period_window(fam.candidates, region)
        # Translated in Re, the window still doubles to one whole period.
        rects = [half] + [KappaRect(half.re_min - d, half.re_max - d, half.im_min - d, half.im_max + d)
                          for d in retries]
        factor = 2
    else:
        rects = [region] + [region.expanded(d) for d in retries]
        factor = 1
    for rect in rects:
        try:
            return factor * _winding(fam, rect, _deflation_poles(fam.candidates, rect))
        except _EdgeTrouble as trouble:
            last = trouble
    raise NumericalFailure(
        f"winding over {region} failed after {_BOUNDARY_RETRIES} boundary perturbations: {last}"
    )


_NEWTON_MAX_ITER = 60
# Radius of the circle (and half-width of the fallback square) that
# certifies a root's multiplicity.  Candidates closer than this share one
# contour, so they are grouped into one root: a defective root of
# multiplicity m comes back as m eigenvalues spread by about (machine
# epsilon)^(1/m), and distinct zeros that close cannot be told apart by the
# certificate.  Newton may not move a group farther than this either, or it
# could land on a zero counted elsewhere.
_VERIFY_RADIUS = 1e-6


def _box_walk(coin: CoinField) -> np.ndarray:
    """The walk A compressed to all four chiralities on the override sites' bounding box.

    D(kappa) = det(I - e^{i kappa} A): along each line through the box the
    free kernel is z (I - z S)^{-1} for a nilpotent shift S, and
    det(I - z S) = 1.  Without override sites the box is empty.
    """
    sites = coin.override_sites()
    box = []
    if sites:
        (lo1, lo2), (hi1, hi2) = np.min(sites, axis=0).tolist(), np.max(sites, axis=0).tolist()
        box = [((x1, x2), j) for x1 in range(lo1, hi1 + 1) for x2 in range(lo2, hi2 + 1)
               for j in CHIRALITIES]
    return compress_walk(coin, box)[0]


def _zero_candidates(fam: DeterminantFamily) -> np.ndarray:
    """Every zero of D modulo 2 pi: kappa = i log w over the nonzero eigenvalues w of _box_walk.

    Real parts come back in [-pi, pi).
    """
    ws = np.linalg.eigvals(fam.walk)
    ws = ws[ws != 0]
    return -np.angle(ws) + 1j * np.log(np.abs(ws))


def _copies_in(kappas: np.ndarray, rect: KappaRect) -> np.ndarray:
    """The copies z + 2 pi k of the candidates that lie in the closed rect.

    A periodic rect is half-open in Re, [re_min, re_max), and holds one copy
    of each candidate in its Im range, seam or not.
    """
    copies = []
    for z in kappas[(kappas.imag >= rect.im_min) & (kappas.imag <= rect.im_max)]:
        first = int(np.ceil((rect.re_min - z.real) / TWO_PI))
        last = first if rect.periodic else int(np.floor((rect.re_max - z.real) / TWO_PI))
        copies.extend(complex(z.real + TWO_PI * k, z.imag) for k in range(first, last + 1))
    return np.array(copies, dtype=complex)


# Candidate copies within this distance of a winding's rectangle are
# deflated; zeros farther away cost the quadrature no refinement.
_DEFLATION_MARGIN = 0.5
# Copies closer than this to the boundary, or than a tenth of the
# rectangle's shorter side, are not: a zero and its candidate could then lie
# on either side of an edge, and the difference of their poles is too
# narrow for the quadrature to see.  Left in (log D)', such a zero is
# refined and counted as without deflation.  A candidate at distance d from
# an edge and its zero lie on opposite sides only if they are farther apart
# (delta) than d; the unmatched pair then moves the edge integral by about
# delta / d >= 1, far above _EDGE_TOL, over a stretch of edge about d long.
# On a square of side s below 1e-6 the gap s / 10 keeps d >= s / 10, while
# the first level's knots are s / 8 apart: the stretch is seen and refined.
# So the zero at the centre of a tiny square is deflated too, instead of
# leaving a pole the adaptive rule must resolve close to every edge.
_DEFLATION_GAP = 1e-7


def _deflation_poles(kappas: np.ndarray, rect: KappaRect) -> np.ndarray:
    """The candidate copies to subtract from (log D)' around rect."""
    near = _copies_in(kappas, rect.expanded(_DEFLATION_MARGIN))
    x, y = near.real, near.imag
    gap = min(_DEFLATION_GAP, 0.1 * min(rect.width, rect.height))
    outside = ((x < rect.re_min - gap) | (x > rect.re_max + gap)
               | (y < rect.im_min - gap) | (y > rect.im_max + gap))
    inside = ((x > rect.re_min + gap) & (x < rect.re_max - gap)
              & (y > rect.im_min + gap) & (y < rect.im_max - gap))
    return near[outside | inside]


def _group_in_region(kappas: np.ndarray, rect: KappaRect) -> List[List[complex]]:
    """Copies of the candidates in rect, one per period, grouped by proximity.

    In a periodic rect, copies on both sides of the seam are near when they
    are near modulo 2 pi: such a copy joins its group moved by 2 pi, next to
    the group's first member.
    """
    groups: List[List[complex]] = []
    for z in sorted(_copies_in(kappas, rect).tolist(), key=lambda z: (z.real, z.imag)):
        for group in groups:
            near = z - TWO_PI * round((z.real - group[0].real) / TWO_PI) if rect.periodic else z
            if min(abs(near - w) for w in group) < _VERIFY_RADIUS:
                group.append(near)
                break
        else:
            groups.append([z])
    return groups


def _newton_root(fam: DeterminantFamily, z: complex, mult: int) -> Optional[complex]:
    """Multiplicity-corrected Newton from z; None if it strays or stalls.

    A point where D vanishes to working precision has no finite log
    derivative and is returned as it is.
    """
    start = z
    for _ in range(_NEWTON_MAX_ITER):
        _, dlog = fam.det_dlog(z)
        if not np.isfinite(dlog) or dlog == 0:
            return z
        step = -mult / dlog
        z = z + step
        if abs(z - start) > _VERIFY_RADIUS:
            return None
        if abs(step) < 1e-14 * max(1.0, abs(z)):
            return z
    return z if abs(step) < 1e-11 else None


def _circle_dlog_integrals(fam: DeterminantFamily, center: complex, radius: float) -> np.ndarray:
    """(log D)' integrated around a circle by the 16- and 32-point trapezoid rules.

    The rule converges geometrically on a circle (Trefethen and Weideman,
    SIAM Review 56, 2014), at a rate set by how close the nearest zero
    comes to the circle, so the two sums agree unless a zero is close to
    it.  The 16 points are every other one of the 32.
    """
    steps = radius * np.exp(1j * TWO_PI * np.arange(32) / 32)
    with np.errstate(invalid="ignore"):
        terms = 1j * steps * fam.dlogs(center + steps)
        return np.array([terms[::2].sum() * (TWO_PI / 16), terms.sum() * (TWO_PI / 32)])


# A root z takes the certificate of a root w that its own circle certified
# with the same multiplicity, if |Im z - Im w| and |(Re z - Re w) mod 2 pi - pi|
# are at most _PARTNER_TOL.  D(kappa + pi) = D(kappa), so the disc of radius
# r = _VERIFY_RADIUS around z holds as many zeros as the disc around
# z - pi - 2 pi k, whose centre lies within sqrt(2) _PARTNER_TOL of w.  That
# disc differs from w's only in a sliver that thin along w's circle, and a
# zero in the sliver would have stopped w's certificate: with
# u = ((zero - w) / r)^16, or its inverse for a zero outside the circle, it
# moves the 16-point sum from the 32-point one by |u / (1 - u^2)| turns.  In
# the sliver |u| > 0.9999, so the sums part by about half a turn, far more
# than the WINDING_INTEGER_TOL they agreed to.
_PARTNER_TOL = 1e-12


def _verify_root(fam: DeterminantFamily, z: complex, mult: int,
                 circled: Optional[List[Tuple[complex, int]]] = None) -> bool:
    """Whether D has exactly mult zeros around z, counted with multiplicity.

    The circle of radius _VERIFY_RADIUS decides if its 16- and 32-point
    sums agree to WINDING_INTEGER_TOL turns (so a sum that is not finite
    never decides) and the 32-point sum passes the winding checks with
    mult turns.  Otherwise the plain winding around a square decides, on
    up to three growing squares.  circled, if given, collects the roots a
    circle certified, as (z, mult); a root pi from one of them with the same
    multiplicity (see _PARTNER_TOL) takes its certificate and draws none.
    """
    circled = [] if circled is None else circled
    if any(m == mult and abs(z.imag - w.imag) <= _PARTNER_TOL
           and abs((z.real - w.real) % TWO_PI - np.pi) <= _PARTNER_TOL for w, m in circled):
        return True
    coarse, fine = _circle_dlog_integrals(fam, z, _VERIFY_RADIUS)
    if abs(coarse - fine) <= TWO_PI * WINDING_INTEGER_TOL:
        try:
            if _integer_turns(fine, f"the circle around {z}") == mult:
                circled.append((z, mult))
                return True
        except _EdgeTrouble:
            pass
    radius = _VERIFY_RADIUS
    for attempt in range(3):
        try:
            return _winding(fam, KappaRect.around(z, radius)) == mult
        except _EdgeTrouble:
            radius *= 1.9
    return False


def locate_roots(coin: CoinField, region: Optional[KappaRect] = None) -> List[Root]:
    """All determinant zeros in the region, as verified Root records.

    With no region the default strip (one period in Re kappa, Im kappa from
    -2 to just above the axis) is searched.  Candidates come from the
    eigenvalues of the walk compressed to the override box; each group of
    coinciding candidates is refined by Newton and accepted only once a
    small verification contour confirms its multiplicity, and the
    multiplicities must add up to the winding of D around the region.  For
    a periodic region reaching above the axis that winding runs up to a top
    line 2 _PERIODIC_GAP above it (see winding_number), where the periodic
    rule can count the default strip; a zero in the added sliver would
    contradict unitarity and fail this count.  A root pi from one already
    certified on its circle takes that certificate (see _PARTNER_TOL).
    Real parts are reported in [frame, frame + 2 pi), snapping to frame
    within 1e-12 of its end: frame is 0 with no region, and re_min for a
    periodic region, whose seam zeros count once.  Anything that cannot be
    certified raises NumericalFailure instead of degrading the answer
    silently.
    """
    fam = DeterminantFamily.of(coin)
    rect = default_strip() if region is None else region
    frame = 0.0 if region is None else rect.re_min if rect.periodic else None
    if not fam.blocks:
        return []

    roots: List[Root] = []
    circled: List[Tuple[complex, int]] = []
    for group in _group_in_region(fam.candidates, rect):
        mult = len(group)
        z = _newton_root(fam, complex(np.mean(group)), mult)
        if z is None or not _verify_root(fam, z, mult, circled):
            raise NumericalFailure(
                f"could not certify a zero of multiplicity {mult} near {group[0]}"
            )
        if z.imag > 1e-10:
            raise NumericalFailure(
                f"located a zero at {z} above the real axis, which contradicts "
                "unitarity of the walk"
            )
        kappa = z
        if abs(z.imag) <= EIGENVALUE_IM_TOL:
            snapped = complex(z.real, 0.0)
            if fam.abs_det(snapped) <= max(ROOT_RESIDUAL_TOL, 4.0 * fam.abs_det(z)):
                kappa = snapped
            kind = "eigenvalue"
        else:
            kind = "resonance"
        if frame is not None and not frame <= kappa.real < frame + TWO_PI - _FOLD_SNAP:
            # A copy can round onto the seam's far side, or Newton can cross
            # it: report the zero in the frame, and measure the residual there.
            kappa = complex(fold_real(kappa.real, frame), kappa.imag)
        residual = fam.abs_det(kappa)
        if residual > ROOT_RESIDUAL_TOL:
            # |D|/|D'| = 1/|(log D)'| is how far Newton's next step would go.
            dlog = abs(fam.det_dlog(kappa)[1])
            distance = 1.0 / dlog if dlog else float("inf")
            # Hadamard: |D| <= prod_i ||row_i(I + M)||, so the ratio tells a
            # residual at rounding level of the scale from a real failure.
            # No kappa in floating point gets |D| much below |D'| * ulp(kappa).
            rows = np.linalg.norm(fam.matrices(np.array([kappa]))[0] + np.eye(fam.m), axis=1)
            relative = np.exp(fam.logdet(np.array([kappa]))[0][0] - np.sum(np.log(rows)))
            ulp = np.spacing(abs(kappa))
            raise NumericalFailure(
                f"root at {kappa} has residual |D| = {residual:.3e} above {ROOT_RESIDUAL_TOL:.0e}; "
                f"|D'| = {residual * dlog:.3e}, so the zero is about |D|/|D'| = {distance:.1e} "
                f"away ({distance / ulp:.1f} ulps of kappa), and the attainable floor is "
                f"|D'| * ulp(kappa) = {residual * dlog * ulp:.1e}; relative to "
                f"Hadamard's bound, |D| / prod_i ||row_i(I + M)|| = {relative:.1e}"
            )
        roots.append(Root(kappa, mult, residual, kind))

    found = sum(r.multiplicity for r in roots)
    expected = winding_number(fam, rect)
    if found != expected:
        raise NumericalFailure(
            f"located zeros of total multiplicity {found} in {rect}, "
            f"but the winding of D around it counts {expected}"
        )
    return sorted(roots, key=lambda r: (r.kappa.real, r.kappa.imag))


# ---------------------------------------------------------------------------
# Resolvent matrix elements and Riesz projections
# ---------------------------------------------------------------------------


def _box_system(coin: CoinField, f: WalkState, sites) -> Tuple[tuple, np.ndarray, np.ndarray]:
    """(edges, A, f on the edges) on the box that R(kappa) f needs around the sites.

    The box spans the override sites, the given sites, and the sites of f
    with the sites its components arrive from, so every component of f
    lies on an edge of the box.  A is the walk compressed to the edges.
    """
    span = list(coin.override_sites()) + list(sites)
    for x, vec in f.items():
        span += [x] + [(x[0] - STEPS[j][0], x[1] - STEPS[j][1]) for j in CHIRALITIES if vec[j] != 0]
    pairs = box_edges(span)
    source = np.array([f.component(x, j) for x, j in pairs], dtype=complex)
    return pairs, compress_walk(coin, pairs)[0], source


def _joining_steps(t: np.ndarray, source: np.ndarray, weights: np.ndarray) -> List[int]:
    """The Schur indices whose back-substitution step can move <u, g>, descending.

    Step k solves x_k = (source_k - sum_{j > k} t_kj x_j) / (t_kk - w) and
    adds weights_k x_k to the sum.  x_k is an exact zero unless source_k is
    nonzero or k reaches such an index j > k through nonzero entries t_kj;
    and x_k reaches the sum only if weights_k is nonzero or an index i < k
    with that property reaches k through nonzero entries t_ik.  An index
    missing either link adds nothing but products with an exact zero.
    """
    links = np.triu(t != 0, 1)
    fed = source != 0
    for k in range(len(t) - 1, -1, -1):
        fed[k] |= np.any(links[k, k + 1 :] & fed[k + 1 :])
    read = weights != 0
    for k in range(len(t)):
        read[k] |= np.any(links[:k, k] & read[:k])
    return np.flatnonzero(fed & read)[::-1].tolist()


class ResolventPairing:
    """Batched evaluator of <R(kappa) f, g> for one coin field and one (f, g).

    The resolvent comes from the walk compressed to a box (see _box_system)
    that holds the override sites, the sites of g, and f with the sites it
    arrives from.  Outside the box every coin is the identity, so amplitude
    that leaves it flies straight away and never returns, and amplitude on
    an edge entering the box comes from a free ray that carries no f.  So
    R(kappa) f vanishes on the entering edges and on the edges of the box
    solves (A - e^{-i kappa}) u = f exactly.  Both sides are rational in
    e^{-i kappa}, so this is the continued resolvent for every kappa.

    A is reduced once to its complex Schur form A = Z T Z*, so each kappa
    costs one triangular back substitution (T - w) x = Z* f with
    w = e^{-i kappa}, and <u, g> = (Z^T conj g) . x (Laub's frequency-response
    method, IEEE TAC 26, 1981).  The box walk is reducible, so T, Z* f and
    Z^T conj g hold exact zeros, and only the steps that join f to g (see
    _joining_steps) are taken: on the sealed barrier of shape M0 1 with
    f = g = delta((0, 0), LEFT), 4 of 24.  The restriction is made in the
    Schur basis; cutting the box walk down first would change its Schur
    form.
    """

    def __init__(self, coin: CoinField, f: WalkState, g: WalkState):
        pairs, matrix, source = _box_system(coin, f, g.sites())
        probe = np.conj([g.component(x, j) for x, j in pairs])
        import scipy.linalg  # only where a Schur form is taken: it is most of a start-up

        self.triangle, z = scipy.linalg.schur(matrix, output="complex")
        self.source = z.conj().T @ source
        self.weights = z.T @ probe
        self.steps = _joining_steps(self.triangle, self.source, self.weights)

    def values(self, kappas) -> np.ndarray:
        """<R(kappa) f, g> for an array of kappas, in blocks of at most _PAIRING_CHUNK_ENTRIES entries.

        Every step acts on each kappa's column by itself, so a kappa's value
        does not depend on the batch it comes in, to the last bit.  A step
        left out would only have added products with an exact zero, and the
        rows a step updates are updated as by the full back substitution,
        so every value is that of the full back substitution to the bit.  At
        a pole the value is inf or nan.  The one exception is
        an eigenvalue t_kk of a step left out: there the full substitution
        gives nan (0 / 0, or 0 times inf), and this gives the finite limit.
        """
        kappas = np.ascontiguousarray(kappas, dtype=complex)
        out = np.zeros(len(kappas), dtype=complex)
        t = self.triangle
        chunk = max(1, _PAIRING_CHUNK_ENTRIES // max(1, len(t)))
        with np.errstate(divide="ignore", invalid="ignore"):
            for lo in range(0, len(kappas), chunk):
                w = np.exp(-1j * kappas[lo : lo + chunk])
                r = np.repeat(self.source[:, None], len(w), axis=1)
                acc = out[lo : lo + chunk]  # a view: the sums land in out
                # No step taken reads a row below the lowest one.  In a batch
                # each row of the update is its own loop over the kappas, so
                # those rows are left out.  For one kappa the loop runs over
                # the rows, and leaving rows out moves the others within it,
                # which changes the rounding of a few values: all are kept.
                top = self.steps[-1] if self.steps and len(w) > 1 else 0
                for k in self.steps:
                    x = r[k] / (t[k, k] - w)
                    r[top:k] -= t[top:k, k, None] * x
                    acc += self.weights[k] * x
        return out


def _box_solve(coin: CoinField, kappa: complex, f: WalkState, sites) -> Tuple[tuple, np.ndarray]:
    """(edges, R(kappa) f on them) by one dense LU solve on the box of _box_system."""
    pairs, matrix, source = _box_system(coin, f, sites)
    return pairs, np.linalg.solve(matrix - np.exp(-1j * complex(kappa)) * np.eye(len(pairs)), source)


def resolvent_matrix_element(coin: CoinField, kappa: complex, f: WalkState, g: WalkState) -> complex:
    """<(U - e^{-i kappa})^{-1} f, g>, continued meromorphically in kappa.

    One kappa is one dense solve on the box of ResolventPairing; its Schur
    form pays off only over many kappas.
    """
    pairs, u = _box_solve(coin, kappa, f, g.sites())
    probe = np.conj([g.component(x, j) for x, j in pairs])
    return complex(u @ probe)


def resolvent_apply(coin: CoinField, kappa: complex, f: WalkState, radius: int) -> WalkState:
    """Pointwise values of R(kappa) f on the square window of given radius.

    The result solves (U - e^{-i kappa}) u = f identically as a pointwise
    statement even below the real axis, where u is the continued resolvent
    rather than an l2 function.  It is solved on a box that also spans the
    window, as in ResolventPairing, and restricted to the window.
    """
    pairs, u = _box_solve(coin, kappa, f, [(-radius, -radius), (radius, radius)])
    sites = np.array([x for x, _ in pairs], dtype=np.int64)
    inside = np.all(np.abs(sites) <= radius, axis=1)
    return WalkState.from_entries(sites[inside], np.array([j for _, j in pairs])[inside], u[inside])


_PROJECTION_TOL = 1e-8
_MAX_LOOP_SAMPLES = 1 << 15


def projection_element(coin: CoinField, rect: KappaRect, f: WalkState, g: WalkState) -> complex:
    """Matrix element <P f, g> of the Riesz projection at the roots inside rect.

    Evaluates (1/2 pi) of the counterclockwise integral of
    e^{-i mu} <R(mu) f, g> d mu around the rectangle.  On the real axis
    this is the spectral projection of the unitary walk; below it, the
    residue pairing of the continued resolvent.  Trapezoid sums are doubled
    until two refinements agree to 1e-8, each doubling evaluating only the
    new midpoints, up to _MAX_LOOP_SAMPLES + 1 points per edge.  A sum that
    is not finite (a point on a pole) raises NumericalFailure at once, as
    does a loop whose sums have not settled at the last level.
    """
    pairing = ResolventPairing(coin, f, g)
    corners = rect.corners()
    edges = list(zip(corners, corners[1:] + corners[:1]))

    def integrand(zs: np.ndarray) -> np.ndarray:
        return np.exp(-1j * zs) * pairing.values(zs)

    def integral() -> complex:
        total = 0.0j
        for z, v in zip(zs, vals):
            total += np.trapezoid(v, z)
        if not np.isfinite(total):
            raise NumericalFailure(
                f"projection integral over {rect} is not finite at {n + 1} points per "
                "edge; the loop passes through a pole"
            )
        return total / TWO_PI

    # Each doubling solves only the new midpoints: for n a power of two the
    # even points of linspace(0, 1, 2n + 1) are those of linspace(0, 1, n + 1)
    # to the last bit, and each point is solved on its own, so every level's
    # sum is the one of evaluating all its points afresh.
    n = 16
    ts = np.linspace(0.0, 1.0, n + 1)
    zs = [a + (b - a) * ts for a, b in edges]
    vals = [integrand(z) for z in zs]
    prev = integral()
    while n < _MAX_LOOP_SAMPLES:
        n *= 2
        ts = np.linspace(0.0, 1.0, n + 1)
        for i, (a, b) in enumerate(edges):
            zs[i] = a + (b - a) * ts
            v = np.empty(n + 1, dtype=complex)
            v[0::2] = vals[i]
            v[1::2] = integrand(zs[i][1::2])
            vals[i] = v
        cur = integral()
        if abs(cur - prev) < _PROJECTION_TOL:
            return complex(cur)
        prev = cur
    raise NumericalFailure(
        f"projection integral over {rect} did not converge to {_PROJECTION_TOL:.0e}"
    )
