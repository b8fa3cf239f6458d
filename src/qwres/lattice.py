"""States and one-step dynamics of coined walks on the two-dimensional lattice.

A walk state is a finitely supported map Z^2 -> C^4.  The four internal
components (chirality) are indexed LEFT, RIGHT, DOWN, UP; one time step
applies a site-dependent 4x4 unitary coin and then shifts each component one
lattice unit in its own direction, so the walk operator is shift-after-coin.
Coins differ from the identity only inside the square box |x1| <= M0,
|x2| <= M0, which keeps every spectral object downstream a finite computation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Tuple

import numpy as np

Site = Tuple[int, int]

LEFT, RIGHT, DOWN, UP = 0, 1, 2, 3
CHIRALITIES = (LEFT, RIGHT, DOWN, UP)
CHIRALITY_NAMES = ("left", "right", "down", "up")

# Lattice displacement of each component under one shift.
STEPS: Tuple[Site, ...] = ((-1, 0), (1, 0), (0, -1), (0, 1))
# The coordinate each component moves along (0 for x1, 1 for x2) and the sign
# of its step there.
STEP_AXIS: Tuple[int, ...] = tuple(0 if dx else 1 for dx, _ in STEPS)
STEP_SIGN: Tuple[int, ...] = tuple(dx + dy for dx, dy in STEPS)

UNITARITY_TOL = 1e-12

_IDENTITY4 = np.eye(4, dtype=complex)
_IDENTITY4.setflags(write=False)

# Sites stacked at a time by WalkState.norm.  One stack of every site raised
# the winding-sweep benchmark's peak RSS by about 9 MB (8 %) at no gain in speed.
_NORM_CHUNK = 1 << 10


def unitarity_residual(m: np.ndarray) -> float:
    """Max-abs entry of M*M - I; NaN when M has a non-finite entry."""
    m = np.asarray(m, dtype=complex)
    with np.errstate(invalid="ignore"):
        return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


class WalkState:
    """Finitely supported C^4-valued state stored as a sparse site map.

    Amplitudes are kept per site as length-4 complex vectors; sites absent
    from the map read as zero.  Instances are treated as immutable by the
    rest of the package.
    """

    __slots__ = ("_amp",)

    def __init__(self, amplitudes: Mapping[Site, np.ndarray] | None = None):
        self._amp: Dict[Site, np.ndarray] = {}
        if amplitudes:
            for site, vec in amplitudes.items():
                v = np.asarray(vec, dtype=complex)
                if v.shape != (4,):
                    raise ValueError(
                        f"amplitude at {site} has shape {v.shape}, expected (4,)"
                    )
                if np.any(v != 0):
                    self._amp[(int(site[0]), int(site[1]))] = v.copy()

    @classmethod
    def _adopt(cls, amp: Dict[Site, np.ndarray]) -> "WalkState":
        """Wrap a site map that holds no all-zero vector, without copying."""
        out = cls.__new__(cls)
        out._amp = amp
        return out

    @classmethod
    def _wrap(cls, amp: Dict[Site, np.ndarray]) -> "WalkState":
        return cls._adopt({s: v for s, v in amp.items() if np.any(v != 0)})

    @classmethod
    def delta(cls, site: Site, chirality: int, value: complex = 1.0) -> "WalkState":
        """State concentrated on a single (site, chirality) pair."""
        vec = np.zeros(4, dtype=complex)
        vec[chirality] = value
        return cls({tuple(site): vec})

    def amplitude(self, site: Site) -> np.ndarray:
        """Length-4 amplitude vector at a site (a copy; zeros off support)."""
        vec = self._amp.get(tuple(site))
        if vec is None:
            return np.zeros(4, dtype=complex)
        return vec.copy()

    def component(self, site: Site, chirality: int) -> complex:
        vec = self._amp.get(tuple(site))
        return complex(vec[chirality]) if vec is not None else 0.0j

    def sites(self) -> Iterator[Site]:
        return iter(self._amp)

    def items(self) -> Iterator[Tuple[Site, np.ndarray]]:
        return iter(self._amp.items())

    def support(self) -> frozenset:
        return frozenset(self._amp)

    def norm(self) -> float:
        """The l2 norm: each site's |v|^2 summed, then the sites summed in order.

        The sites are stacked _NORM_CHUNK at a time, and cumsum adds them one
        after another onto the running total, where sum would pair them, so
        the result is the one of a loop over the sites, to the last bit.
        """
        vecs = iter(self._amp.values())
        total = np.zeros(1)
        while chunk := list(itertools.islice(vecs, _NORM_CHUNK)):
            per_site = (np.abs(np.array(chunk)) ** 2).sum(axis=1)
            total = np.cumsum(np.concatenate([total, per_site]))[-1:]
        return float(np.sqrt(total[0]))

    def inner(self, other: "WalkState") -> complex:
        """l2 pairing (self, other) = sum_x self(x) . conj(other(x))."""
        if len(other._amp) < len(self._amp):
            return np.conj(other.inner(self))
        total = 0.0j
        for site, vec in self._amp.items():
            ovec = other._amp.get(site)
            if ovec is not None:
                total += complex(np.dot(vec, ovec.conj()))
        return total

    def scaled(self, factor: complex) -> "WalkState":
        return WalkState._wrap({s: factor * v for s, v in self._amp.items()})

    def plus(self, other: "WalkState") -> "WalkState":
        amp = {s: v.copy() for s, v in self._amp.items()}
        for site, vec in other._amp.items():
            if site in amp:
                amp[site] = amp[site] + vec
            else:
                amp[site] = vec.copy()
        return WalkState._wrap(amp)

    def allclose(self, other: "WalkState", tol: float = 1e-12) -> bool:
        for site in set(self._amp) | set(other._amp):
            a = self._amp.get(site)
            b = other._amp.get(site)
            av = a if a is not None else 0.0
            bv = b if b is not None else 0.0
            if np.max(np.abs(av - bv)) > tol:
                return False
        return True

    def __len__(self) -> int:
        return len(self._amp)

    def __repr__(self) -> str:
        return f"WalkState(support={len(self._amp)} sites, norm={self.norm():.6g})"


class CoinField:
    """Site-dependent coin assignment, identity outside the stored overrides.

    Parameters
    ----------
    box_radius:
        Half-width M0 of the perturbation box; every override site x must
        satisfy |x1| <= M0 and |x2| <= M0.
    overrides:
        Map from site to a 4x4 complex matrix.  Each matrix must be unitary
        to max-abs tolerance 1e-12; failing coins are rejected outright
        rather than renormalized, since downstream phase products must not
        be silently altered.
    """

    __slots__ = ("box_radius", "_overrides")

    def __init__(self, box_radius: int, overrides: Mapping[Site, np.ndarray]):
        if int(box_radius) != box_radius or box_radius < 0:
            raise ValueError(f"box_radius must be a nonnegative integer, got {box_radius}")
        self.box_radius = int(box_radius)
        stored: Dict[Site, np.ndarray] = {}
        for site, mat in overrides.items():
            x = (int(site[0]), int(site[1]))
            if max(abs(x[0]), abs(x[1])) > self.box_radius:
                raise ValueError(f"override site {x} outside box of radius {self.box_radius}")
            m = np.asarray(mat, dtype=complex)
            if m.shape != (4, 4):
                raise ValueError(f"coin at {x} has shape {m.shape}, expected (4, 4)")
            res = unitarity_residual(m)
            # Written so that a NaN residual fails too.
            if not res <= UNITARITY_TOL:
                raise ValueError(
                    f"coin at {x} is not unitary (residual {res:.3e} > {UNITARITY_TOL:.0e})"
                )
            m = m.copy()
            m.setflags(write=False)
            stored[x] = m
        self._overrides = stored

    @property
    def overrides(self) -> Dict[Site, np.ndarray]:
        return dict(self._overrides)

    def override_sites(self) -> Tuple[Site, ...]:
        return tuple(sorted(self._overrides))

    def coin_at(self, site: Site) -> np.ndarray:
        return self._overrides.get(tuple(site), _IDENTITY4)

    def is_identity(self) -> bool:
        return not self._overrides

    def __repr__(self) -> str:
        return f"CoinField(box_radius={self.box_radius}, overrides={len(self._overrides)})"


@dataclass(frozen=True)
class WalkOperator:
    """One-step walk operator: coin multiplication followed by the shift."""

    coin: CoinField


def _coin_field_of(op) -> CoinField:
    if isinstance(op, WalkOperator):
        return op.coin
    if isinstance(op, CoinField):
        return op
    raise TypeError(f"expected WalkOperator or CoinField, got {type(op).__name__}")


def apply_walk(op: WalkOperator, u: WalkState) -> WalkState:
    """One step of the walk: mix each site's amplitude by its coin, then shift.

    The support grows by at most one lattice step and the l2 norm is
    preserved up to rounding.
    """
    coin = _coin_field_of(op)
    out: Dict[Site, np.ndarray] = {}
    for site, vec in u.items():
        mixed = coin.coin_at(site) @ vec
        x, y = site
        for j in CHIRALITIES:
            a = mixed[j]
            if a == 0:
                continue
            dx, dy = STEPS[j]
            target = (x + dx, y + dy)
            acc = out.get(target)
            if acc is None:
                acc = np.zeros(4, dtype=complex)
                out[target] = acc
            acc[j] += a
    return WalkState._wrap(out)


def compress_walk(op, pairs) -> Tuple[np.ndarray, float]:
    """The walk compressed to the (site, chirality) pairs, and what it drops.

    Column c of the matrix is one walk step applied to the delta on pairs[c],
    read off on the pairs; leak is the largest amplitude of those steps that
    lands outside them (0 exactly when the pairs span an invariant space).
    """
    coin = _coin_field_of(op)
    index = {pair: i for i, pair in enumerate(pairs)}
    matrix = np.zeros((len(pairs), len(pairs)), dtype=complex)
    leak = 0.0
    for col, ((x, y), j) in enumerate(pairs):
        # The delta on (x, j) steps to coin[k, j] on (x + e_k, k).  Zero
        # entries are skipped and the rest added to the zero matrix, as one
        # walk step adds them to a zero state.
        for k, a in enumerate(coin.coin_at((x, y))[:, j]):
            if a == 0:
                continue
            row = index.get(((x + STEPS[k][0], y + STEPS[k][1]), k))
            if row is None:
                leak = max(leak, abs(a))
            else:
                matrix[row, col] += a
    return matrix, leak


def box_edges(sites) -> Tuple[Tuple[Site, int], ...]:
    """The directed edges of the bounding box of the sites, ordered by x1, x2, chirality.

    The amplitude of chirality j at x is an edge of the box when both x and
    the site x - e_j it just came from lie in the box.  No sites, no edges.
    """
    if not sites:
        return ()
    (lo1, lo2), (hi1, hi2) = np.min(sites, axis=0).tolist(), np.max(sites, axis=0).tolist()
    return tuple(
        ((x1, x2), j)
        for x1 in range(lo1, hi1 + 1)
        for x2 in range(lo2, hi2 + 1)
        for j in CHIRALITIES
        if lo1 <= x1 - STEPS[j][0] <= hi1 and lo2 <= x2 - STEPS[j][1] <= hi2
    )


def ray_meets_box(site: Site, chirality: int, box_radius: int) -> bool:
    """True when the forward ray from (site, chirality) meets the coin box."""
    x, y = site
    dx, dy = STEPS[chirality]
    if dx:
        return abs(y) <= box_radius and x * dx <= box_radius
    return abs(x) <= box_radius and y * dy <= box_radius


# Steps of window outflow gathered before their nonzero exits are kept.
_BANK_ROWS = 1024


def evolve(op: WalkOperator, u: WalkState, t: int) -> WalkState:
    """Apply ``t`` walk steps exactly.

    Far from the coin box the walk is a pure translation, so any amplitude
    sitting on a ray that never re-enters the box is banked with its emission
    time and reconstructed at the end by free flight.  Only a dense window
    (the box dilated by one) is evolved step by step, which keeps the cost
    per step independent of t and makes horizons of 10^4 steps cheap while
    remaining exact.

    The window's outflow is banked by step: the exit amplitudes of step s
    (chirality j at the window's last site along j, ordered left, right,
    down, up and along each side, 4n of them for the window's side
    n = 2 M0 + 3) go to a block of _BANK_ROWS steps, and each full block
    keeps only its nonzero entries, so the bank holds what actually left
    the window.  The result lists the window's sites, then the sites of
    amplitude still moving in, then the free-flight targets of what was
    banked at t = 0 and of the outflow by step.  A site keeps the place
    where it first occurs, and amplitudes that meet at a site are added in
    that order.  Site coordinates must fit in 64-bit integers.
    """
    if int(t) != t or t < 0:
        raise ValueError(f"t must be a nonnegative integer, got {t}")
    t = int(t)
    coin = _coin_field_of(op)
    if t == 0:
        return WalkState._wrap({s: v.copy() for s, v in u.items()})

    m0 = coin.box_radius
    r = m0 + 1  # window radius
    n = 2 * r + 1  # window side length

    active = np.zeros((n, n, 4), dtype=complex)
    movers: Dict[Tuple[Site, int], complex] = {}
    banked: list[Tuple[int, int, int, complex]] = []  # (x, y, chirality, value) at t = 0

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
                key = (site, j)
                movers[key] = movers.get(key, 0.0) + a

    # Stacked 4x4 coins over the window (identity off the box).
    coins = np.empty((n, n, 4, 4), dtype=complex)
    for ix in range(n):
        for iy in range(n):
            coins[ix, iy] = coin.coin_at((ix - r, iy - r))

    # The shift on the flattened window: entry src moves to entry dst, and the
    # exit entries leave it for the ring of sites around it.
    steps = np.array(STEPS)
    wx, wy, wj = np.indices((n, n, 4)).reshape(3, -1)
    to_x, to_y = wx + steps[wj, 0], wy + steps[wj, 1]
    inside = (0 <= to_x) & (to_x < n) & (0 <= to_y) & (to_y < n)
    src = np.flatnonzero(inside)
    dst = (to_x[src] * n + to_y[src]) * 4 + wj[src]
    exit_idx = np.flatnonzero(~inside)
    exit_idx = exit_idx[np.argsort(wj[exit_idx], kind="stable")]

    # Each block of steps' exits is banked as its nonzero entries, in the
    # row-major order of one (t, 4n) array.
    width = exit_idx.size
    block = np.empty((min(t, _BANK_ROWS), width), dtype=complex)
    bank_flat, bank_amps = [], []
    for step in range(t):
        mixed = np.einsum("xyjk,xyk->xyj", coins, active).ravel()
        row = step % _BANK_ROWS
        mixed.take(exit_idx, out=block[row])
        if row == _BANK_ROWS - 1 or step == t - 1:
            filled = block[: row + 1].ravel()
            flat = np.flatnonzero(filled)
            bank_flat.append(flat + (step - row) * width)
            bank_amps.append(filled[flat])
        new = np.zeros(n * n * 4, dtype=complex)
        new[dst] = mixed[src]
        new = new.reshape(n, n, 4)

        if movers:
            advanced: Dict[Tuple[Site, int], complex] = {}
            for ((x, y), j), a in movers.items():
                dx, dy = STEPS[j]
                nx, ny = x + dx, y + dy
                if max(abs(nx), abs(ny)) <= r:
                    new[nx + r, ny + r, j] += a
                else:
                    advanced[((nx, ny), j)] = a
            movers = advanced

        active = new

    # Every amplitude outside the window, in the order it is added: what is
    # still moving in, what left at t = 0, then the window's outflow by step.
    # Each flies freely for the rest of the time.
    amps = np.concatenate(bank_amps)
    del block, filled, bank_amps  # filled is a view of block
    step_row, col = np.divmod(np.concatenate(bank_flat), width)
    del bank_flat
    lead = [(x, y, j, a) for ((x, y), j), a in movers.items()]
    lead += [(x + STEPS[j][0] * t, y + STEPS[j][1] * t, j, a) for x, y, j, a in banked]
    lead_x, lead_y, lead_j, lead_a = np.array(lead, dtype=object).reshape(-1, 4).T
    try:
        lead_x, lead_y = lead_x.astype(np.int64), lead_y.astype(np.int64)
    except OverflowError as exc:
        raise ValueError("evolve needs site coordinates that fit in 64-bit integers") from exc
    leave = exit_idx[col]
    flight = t - 1 - step_row
    chir = np.concatenate([lead_j.astype(np.intp), wj[leave]])
    amps = np.concatenate([lead_a.astype(complex), amps])
    ax, ay = np.nonzero(np.any(active != 0, axis=2))
    site_x = np.concatenate([ax - r, lead_x, to_x[leave] - r + steps[wj[leave], 0] * flight])
    site_y = np.concatenate([ay - r, lead_y, to_y[leave] - r + steps[wj[leave], 1] * flight])

    first, slot = _first_appearances(site_x, site_y)
    amp = np.zeros((first.size, 4), dtype=complex)
    amp[: ax.size] = active[ax, ay]  # the window's sites come first, once each
    np.add.at(amp, (slot[ax.size :], chir), amps)
    keep = np.any(amp != 0, axis=1)
    sites = zip(site_x[first[keep]].tolist(), site_y[first[keep]].tolist())
    return WalkState._adopt(dict(zip(sites, itertools.compress(amp, keep))))


def _first_appearances(x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Number the distinct sites (x[i], y[i]) in the order they first appear.

    Returns the index of each site's first appearance, in that order, and
    each entry's site number.  lexsort is stable, so each run of one site in
    it starts where the site first appears.
    """
    by_site = np.lexsort((y, x))
    x, y = x[by_site], y[by_site]
    starts = np.ones(by_site.size, dtype=bool)
    starts[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
    first = by_site[starts]
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    slot = np.empty_like(by_site)
    slot[by_site] = rank[np.cumsum(starts) - 1]
    return first[order], slot


def _haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed 4x4 unitary drawn from rng.

    Built from the QR factorization of a complex Gaussian sample with the
    usual diagonal phase fix; the unitarity residual is at rounding level.
    """
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, rmat = np.linalg.qr(z)
    d = np.diagonal(rmat)
    return q * (d / np.abs(d))


def random_unitary_coin(seed: int) -> np.ndarray:
    """Deterministic Haar-like 4x4 unitary for a given seed."""
    return _haar_unitary(np.random.default_rng(seed))


def random_coin_field(box_radius: int, seed: int, density: float = 1.0) -> CoinField:
    """Seeded coin field with independent random unitaries inside the box.

    ``density`` < 1 keeps each site with that probability, leaving the rest
    as identity.
    """
    rng = np.random.default_rng(seed)
    overrides: Dict[Site, np.ndarray] = {}
    for x in range(-box_radius, box_radius + 1):
        for y in range(-box_radius, box_radius + 1):
            if density < 1.0 and rng.random() >= density:
                continue
            overrides[(x, y)] = _haar_unitary(rng)
    return CoinField(box_radius, overrides)


def _is_integer(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _cell_value(cell: object) -> complex:
    """The number a matrix cell [re, im] of two JSON numbers stands for."""
    if not (
        isinstance(cell, (list, tuple))
        and len(cell) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in cell)
    ):
        raise ValueError(f"matrix cell {cell!r} is not a pair of numbers [re, im]")
    return complex(cell[0], cell[1])


def coin_field_from_json(doc: dict) -> CoinField:
    """Build a coin field from the interchange document.

    Expected shape: ``{"M0": int, "coins": [{"x": [i, j], "m": [[[re, im] x4] x4]}]}``
    with matrix rows in chirality order left, right, down, up.
    """
    if not isinstance(doc, dict):
        raise ValueError("coin document must be a JSON object")
    unknown = set(doc) - {"M0", "coins"}
    if unknown:
        raise ValueError(f"unknown keys in coin document: {sorted(unknown)}")
    m0 = doc.get("M0")
    if not _is_integer(m0):
        raise ValueError(f"coin document needs an integer 'M0', got {m0!r}")
    entries = doc.get("coins", [])
    if not isinstance(entries, list):
        raise ValueError(f"'coins' must be a list of coin entries, got {entries!r}")
    overrides: Dict[Site, np.ndarray] = {}
    for entry in entries:
        try:
            x = entry["x"]
            rows = entry["m"]
            mat = np.array([[_cell_value(cell) for cell in row] for row in rows], dtype=complex)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed coin entry {entry!r}: {exc}") from exc
        if not (isinstance(x, (list, tuple)) and len(x) == 2 and all(map(_is_integer, x))):
            raise ValueError(f"coin entry site must be a pair of integers, got {x!r}")
        site = (x[0], x[1])
        if site in overrides:
            raise ValueError(f"coin entry site {x!r} is listed twice")
        overrides[site] = mat
    return CoinField(m0, overrides)


def coin_field_to_json(coin: CoinField) -> dict:
    """Inverse of :func:`coin_field_from_json`."""
    coins = []
    for site in coin.override_sites():
        m = coin.coin_at(site)
        coins.append(
            {
                "x": [site[0], site[1]],
                "m": [[[float(c.real), float(c.imag)] for c in row] for row in m],
            }
        )
    return {"M0": coin.box_radius, "coins": coins}
