"""States and one-step dynamics of coined walks on the two-dimensional lattice.

A walk state is a finitely supported map Z^2 -> C^4.  The four internal
components (chirality) are indexed LEFT, RIGHT, DOWN, UP; one time step
applies a site-dependent 4x4 unitary coin and then shifts each component one
lattice unit in its own direction, so the walk operator is shift-after-coin.
Coins differ from the identity only inside the square box |x1| <= M0,
|x2| <= M0, which keeps every spectral object downstream a finite computation.
"""

from __future__ import annotations

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

# Rows of amplitudes that WalkState.norm sums at a time, so that its
# temporaries stay small whatever the support.
_NORM_CHUNK = 1 << 10

_INT64 = np.iinfo(np.int64)

def _integer_site(site) -> Site:
    """The site as a pair of ints; ValueError for a coordinate that is not an integer."""
    coords = []
    for c in (site[0], site[1]):
        try:
            x = int(c)
        except (TypeError, ValueError, OverflowError):
            x = None
        if x is None or x != c:
            raise ValueError(f"site {site!r} has a coordinate that is not an integer")
        coords.append(x)
    return coords[0], coords[1]


def _site_array(sites) -> np.ndarray:
    """Sites as an (N, 2) int64 array; ValueError for a coordinate that is not a 64-bit integer."""
    xy = np.asarray(sites)
    if xy.dtype.kind != "i":
        xy = [_integer_site(site) for site in xy.reshape(-1, 2).tolist()]
    try:
        return np.asarray(xy, dtype=np.int64).reshape(-1, 2)
    except OverflowError as exc:
        raise ValueError("site coordinates must fit in 64-bit integers") from exc


def unitarity_residual(m: np.ndarray) -> float:
    """Max-abs entry of M*M - I; NaN when M has a non-finite entry."""
    m = np.asarray(m, dtype=complex)
    with np.errstate(invalid="ignore"):
        return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


class WalkState:
    """Finitely supported C^4-valued state, held as two arrays in insertion order.

    The state keeps an (N, 2) int64 array of distinct sites and the (N, 4)
    complex array of their amplitude vectors, no row of which is all zero;
    sites absent from it read as zero.  Both arrays are read-only, and a
    site -> row index is built on the first lookup.  Site coordinates are
    integers that fit in 64 bits.
    """

    __slots__ = ("_sites", "_amps", "_index")

    def __init__(self, amplitudes: Mapping[Site, np.ndarray] | None = None):
        amp: Dict[Site, np.ndarray] = {}
        for site, vec in (amplitudes or {}).items():
            v = np.asarray(vec, dtype=complex)
            if v.shape != (4,):
                raise ValueError(f"amplitude at {site} has shape {v.shape}, expected (4,)")
            amp[_integer_site(site)] = v
        state = WalkState._of_rows(_site_array(list(amp)),
                                   np.array(list(amp.values()), dtype=complex).reshape(-1, 4))
        self._sites, self._amps, self._index = state._sites, state._amps, None

    @classmethod
    def _of_rows(cls, sites: np.ndarray, amps: np.ndarray) -> "WalkState":
        """Wrap distinct int64 sites and their amplitude rows, dropping the all-zero rows.

        The arrays are not copied when every row is kept.
        """
        keep = np.any(amps != 0, axis=1)
        if not keep.all():
            sites, amps = sites[keep], amps[keep]
        return cls._adopt(sites, amps)

    @classmethod
    def _adopt(cls, sites: np.ndarray, amps: np.ndarray) -> "WalkState":
        """Wrap distinct int64 sites and their amplitude rows, none of them all zero."""
        sites.setflags(write=False)
        amps.setflags(write=False)
        out = cls.__new__(cls)
        out._sites, out._amps, out._index = sites, amps, None
        return out

    @classmethod
    def from_entries(cls, sites, chiralities, values) -> "WalkState":
        """The sum of values[i] on (sites[i], chiralities[i]), added in the given order.

        Sites keep the order in which they first occur, and sites whose
        amplitudes sum to zero are left out.  ValueError for a chirality
        outside 0-3, a site that is not a pair of 64-bit integers, or inputs
        of different lengths.
        """
        xy, j = _site_array(sites), np.asarray(chiralities).reshape(-1)
        if j.size and (j.dtype.kind not in "iu" or np.any((j < 0) | (j > 3))):
            raise ValueError(f"chiralities are the integers 0 to 3, got {j.tolist()}")
        values = np.asarray(values, dtype=complex).reshape(-1)
        if not len(xy) == len(j) == len(values):
            raise ValueError(f"{len(xy)} sites, {len(j)} chiralities and {len(values)} values")
        first, slot = _first_appearances(xy[:, 0], xy[:, 1])
        amps = np.zeros((first.size, 4), dtype=complex)
        np.add.at(amps, (slot, j.astype(np.intp)), values)
        return cls._of_rows(xy[first], amps)

    @classmethod
    def delta(cls, site: Site, chirality: int, value: complex = 1.0) -> "WalkState":
        """State concentrated on a single (site, chirality) pair."""
        return cls.from_entries([site], [chirality], [value])

    def _row(self, site: Site) -> int | None:
        if self._index is None:
            self._index = dict(zip(self.sites(), range(len(self))))
        return self._index.get(tuple(site))

    def amplitude(self, site: Site) -> np.ndarray:
        """Length-4 amplitude vector at a site (a copy; zeros off support)."""
        row = self._row(site)
        if row is None:
            return np.zeros(4, dtype=complex)
        return self._amps[row].copy()

    def component(self, site: Site, chirality: int) -> complex:
        row = self._row(site)
        return complex(self._amps[row, chirality]) if row is not None else 0.0j

    def sites(self) -> Iterator[Site]:
        x, y = self._sites.T.tolist()
        return zip(x, y)

    def items(self) -> Iterator[Tuple[Site, np.ndarray]]:
        return zip(self.sites(), self._amps)

    def support(self) -> frozenset:
        return frozenset(self.sites())

    def norm(self) -> float:
        """The l2 norm: each site's |v|^2 summed, then the sites summed in order.

        The rows are taken _NORM_CHUNK at a time, and cumsum adds them one
        after another onto the running total, where sum would pair them, so
        the result is the one of a loop over the sites, to the last bit.
        """
        total = np.zeros(1)
        for start in range(0, len(self), _NORM_CHUNK):
            per_site = (np.abs(self._amps[start : start + _NORM_CHUNK]) ** 2).sum(axis=1)
            total = np.cumsum(np.concatenate([total, per_site]))[-1:]
        return float(np.sqrt(total[0]))

    def inner(self, other: "WalkState") -> complex:
        """l2 pairing (self, other) = sum_x self(x) . conj(other(x)).

        The sum runs over the sites of the smaller state, in its order.
        """
        if len(other) < len(self):
            return complex(np.conj(other.inner(self)))
        total = 0.0j
        for site, vec in self.items():
            row = other._row(site)
            if row is not None:
                total += complex(np.dot(vec, other._amps[row].conj()))
        return total

    def _union(self, other: "WalkState") -> Tuple[np.ndarray, np.ndarray]:
        """The sites of self, then those only other has, and the row of each of other's sites."""
        sites = np.concatenate([self._sites, other._sites])
        first, slot = _first_appearances(sites[:, 0], sites[:, 1])
        return sites[first], slot[len(self) :]

    def scaled(self, factor: complex) -> "WalkState":
        return WalkState._of_rows(self._sites, factor * self._amps)

    def plus(self, other: "WalkState") -> "WalkState":
        sites, rows = self._union(other)
        amps = np.empty((len(sites), 4), dtype=complex)
        amps[: len(self)] = self._amps
        shared = rows < len(self)
        amps[rows[shared]] += other._amps[shared]
        amps[rows[~shared]] = other._amps[~shared]
        return WalkState._of_rows(sites, amps)

    def allclose(self, other: "WalkState", tol: float = 1e-12) -> bool:
        """True when every component differs by at most tol; a NaN difference is not close."""
        sites, rows = self._union(other)
        diff = np.zeros((len(sites), 4), dtype=complex)
        diff[: len(self)] = self._amps
        with np.errstate(invalid="ignore"):  # inf - inf
            diff[rows] -= other._amps
        return bool(np.all(np.abs(diff) <= tol))

    def __len__(self) -> int:
        return len(self._sites)

    def __repr__(self) -> str:
        return f"WalkState(support={len(self)} sites, norm={self.norm():.6g})"


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

    The field is immutable, so spectral.DeterminantFamily.of keeps the
    field's determinant family in the slot _family, built on first use.
    """

    __slots__ = ("box_radius", "_overrides", "_family")

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
        self._family = None

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


def apply_walk(coin: CoinField, u: WalkState) -> WalkState:
    """One step of the walk: mix each site's amplitude by its coin, then shift.

    The support grows by at most one lattice step and the l2 norm is
    preserved up to rounding.  Each (site, chirality) receives at most one
    amplitude, so from_entries adds it to zero once.  ValueError for a step
    that leaves 64-bit site coordinates.
    """
    mixed = np.array([coin.coin_at(site) @ vec for site, vec in u.items()],
                     dtype=complex).reshape(-1, 4)
    row, j = np.nonzero(mixed)
    sites, steps = u._sites[row], np.array(STEPS)[j]
    if np.any(((steps > 0) & (sites == _INT64.max)) | ((steps < 0) & (sites == _INT64.min))):
        raise ValueError("apply_walk needs site coordinates that fit in 64-bit integers")
    return WalkState.from_entries(sites + steps, j, mixed[row, j])


def compress_walk(coin: CoinField, pairs) -> Tuple[np.ndarray, float]:
    """The walk compressed to the (site, chirality) pairs, and what it drops.

    Column c of the matrix is one walk step applied to the delta on pairs[c],
    read off on the pairs; leak is the largest amplitude of those steps that
    lands outside them (0 exactly when the pairs span an invariant space).
    """
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
# Steps between two looks, inside a block, for a window that repeats one of
# the last _REPEAT_STRIDE; longer periods are seen at the block's end.
_REPEAT_STRIDE = 64


def evolve(coin: CoinField, u: WalkState, t: int) -> WalkState:
    """Apply ``t`` walk steps exactly.

    Far from the coin box the walk is a pure translation, so any amplitude
    sitting on a ray that never re-enters the box is banked with its emission
    time and reconstructed at the end by free flight.  Only a dense window
    (the box dilated by one) is evolved step by step, which keeps the cost
    per step independent of t and makes horizons of 10^4 steps cheap while
    remaining exact.  Amplitude moving in from outside the window is added
    to the window at the step its ray enters it, found before the first step.

    One step is two numpy calls: the coins mix the window into a buffer
    that ends in a zero slot, and one take shifts the buffer into a row of
    the bank, reading the zero slot where nothing shifts in.  A bank row is
    the next step's window followed by the step's exit amplitudes
    (chirality j at the window's last site along j, ordered left, right,
    down, up and along each side, 4n of them for the window's side
    n = 2 M0 + 3).  Each full block of _BANK_ROWS rows keeps only its
    nonzero exits, so the bank holds what actually left the window.  When,
    after the last amplitude moved in, a window equals an earlier one of
    its block bit for bit, the steps between them repeat for ever, and the
    rest of the bank is copied from them.  Every _REPEAT_STRIDE steps the
    window is compared with the _REPEAT_STRIDE before it, and at a block's
    end with the whole block.  A walk that decays repeats in subnormal
    numbers: over 10^4 steps, criterion 04's five fields are found to
    repeat with periods of 8 to 40 steps at steps 4,095 to 7,231.

    The result lists the window's sites, then the sites of amplitude still
    moving in, then the free-flight targets of what was banked at t = 0 and
    of the outflow by step.  A site keeps the place where it first occurs,
    and amplitudes that meet at a site are added in that order.  It is
    built as the state's two arrays, without an object per site, after the
    bank block is freed, and with no sort of the outflow, by four facts
    (r = M0 + 1 is the window's radius):

    - the outflow of the four sides lands in disjoint bands, x < -r and
      x > r with |y| <= r, y < -r and y > r with |x| <= r, none of which
      meets the window;
    - two exits of one column leave at different steps and fly different
      distances, so every nonzero bank entry has a site of its own, and the
      bank's flat index step * 4n + column increases;
    - so only a lead (amplitude banked at t = 0 or still moving in) can
      share a site with the outflow, with at most one entry of it, whose
      step and column follow from the site; a binary search of the bank's
      index says whether that entry is nonzero;
    - a banked lead can cross the window's ring, so the window's and the
      leads' sites, and only these, are numbered by first appearance.

    Site coordinates must fit in 64-bit integers.
    """
    if int(t) != t or t < 0:
        raise ValueError(f"t must be a nonnegative integer, got {t}")
    t = int(t)
    if t == 0:
        return WalkState._of_rows(u._sites, u._amps)

    m0 = coin.box_radius
    r = m0 + 1  # window radius
    n = 2 * r + 1  # window side length
    size = n * n * 4
    steps = np.array(STEPS)

    inside = np.all((-r <= u._sites) & (u._sites <= r), axis=1)
    active = np.zeros((n, n, 4), dtype=complex)
    in_x, in_y = (u._sites[inside] + r).T
    active[in_x, in_y] += u._amps[inside]

    # The nonzero entries outside the window, by site and then chirality.
    # Those on a ray that meets the box move in; the rest are banked at t = 0.
    out_amps = u._amps[~inside]
    out_site, out_j = np.nonzero(out_amps != 0)
    out_a = out_amps[out_site, out_j]
    out_xy = u._sites[~inside][out_site]
    sign, axis = np.array(STEP_SIGN)[out_j], np.array(STEP_AXIS)[out_j]
    along = np.where(axis == 0, out_xy[:, 0], out_xy[:, 1])
    across = np.where(axis == 0, out_xy[:, 1], out_xy[:, 0])
    moves_in = (-m0 <= across) & (across <= m0) & np.where(sign > 0, along <= m0, along >= -m0)
    # A mover reaches the window after |along| - r steps.  That fits in int64
    # for every mover, so wrapping arithmetic gives it exactly; the values of
    # the other entries are not used.
    arrival = -sign * along - r
    enters = np.flatnonzero(moves_in & (arrival <= t))
    enters = enters[np.argsort(arrival[enters], kind="stable")]
    entry_xy = out_xy[enters] + steps[out_j[enters]] * arrival[enters, None] + r
    entry_idx = (entry_xy[:, 0] * n + entry_xy[:, 1]) * 4 + out_j[enters]
    at_step, starts = np.unique(arrival[enters] - 1, return_index=True)
    entering = dict(zip(at_step.tolist(), zip(np.split(entry_idx, starts[1:]),
                                              np.split(out_a[enters], starts[1:]))))
    lead = np.concatenate([np.flatnonzero(moves_in & (arrival > t)), np.flatnonzero(~moves_in)])
    lead_xy, lead_shift = out_xy[lead], steps[out_j[lead]] * t
    # What was banked flies away from the box, and may leave int64.
    if np.any(((lead_shift > 0) & (lead_xy > _INT64.max - t))
              | ((lead_shift < 0) & (lead_xy < _INT64.min + t))):
        raise ValueError("evolve needs site coordinates that fit in 64-bit integers")
    lead_xy = lead_xy + lead_shift

    # Stacked 4x4 coins over the window (identity off the box).
    coins = np.empty((n, n, 4, 4), dtype=complex)
    for ix in range(n):
        for iy in range(n):
            coins[ix, iy] = coin.coin_at((ix - r, iy - r))

    # The shift on the flattened window: the entries src move to a window
    # entry, and the exit entries leave it for the ring of sites around it.
    # gather lists the source of each entry of a bank row: for the window
    # part, the entry that shifts into it or the zero slot.
    wx, wy, wj = np.indices((n, n, 4)).reshape(3, -1)
    to_x, to_y = wx + steps[wj, 0], wy + steps[wj, 1]
    exits = (to_x < 0) | (to_x >= n) | (to_y < 0) | (to_y >= n)
    src = np.flatnonzero(~exits)
    exit_idx = np.flatnonzero(exits)
    exit_idx = exit_idx[np.argsort(wj[exit_idx], kind="stable")]
    width = exit_idx.size
    gather = np.full(size + width, size)
    gather[(to_x[src] * n + to_y[src]) * 4 + wj[src]] = src
    gather[size:] = exit_idx

    mixed = np.zeros(size + 1, dtype=complex)
    mixed_window = mixed[:size].reshape(n, n, 4)
    block = np.empty((min(t, _BANK_ROWS), size + width), dtype=complex)
    windows = [bank_row[:size].reshape(n, n, 4) for bank_row in block]
    window_bits = block[:, :size].view(np.int64)
    last_entry = max(entering, default=-1)
    bank_flat, bank_amps = [], []
    for step in range(t):
        np.einsum("xyjk,xyk->xyj", coins, active, out=mixed_window)
        row = step % _BANK_ROWS
        # mode="raise" would buffer the output.
        mixed.take(gather, out=block[row], mode="clip")
        active = windows[row]
        if step in entering:
            idx, amps = entering[step]
            block[row, idx] += amps
        end = row == _BANK_ROWS - 1 or step == t - 1
        if end or (row % _REPEAT_STRIDE == _REPEAT_STRIDE - 1 and step > last_entry):
            # Once nothing more moves in, each window is a fixed function of
            # the one before, so a repeated window repeats the p steps since
            # its earlier copy, exits included, for the rest of the time.
            # Within a block only the last _REPEAT_STRIDE windows are
            # compared; the block's end compares them all.
            since = 0 if end else max(0, row - _REPEAT_STRIDE)
            repeat = since + np.flatnonzero(
                np.all(window_bits[since:row] == window_bits[row], axis=1))
            repeat = repeat[step - row + repeat >= last_entry]
            if end or repeat.size:
                # The block's exits, nonzero entries only, in the row-major
                # order of one (t, width) array.
                filled = block[: row + 1, size:].ravel()
                flat = np.flatnonzero(filled)
                bank_flat.append(flat + (step - row) * width)
                bank_amps.append(filled[flat])
            if repeat.size:
                p = row - repeat[-1]
                period = block[row - p + 1 : row + 1, size:].ravel()
                flat = np.flatnonzero(period)
                left = t - 1 - step
                tiles = np.arange((left + p - 1) // p)[:, None] * (p * width) + flat
                tiles = tiles.ravel()[: np.searchsorted(tiles.ravel(), left * width)]
                bank_flat.append(tiles + (step + 1) * width)
                bank_amps.append(period[tiles % (p * width)])
                active = windows[row - p + left % p]
                break

    # The window's last state outlives the bank block, which goes first.
    active = active.copy()
    del block, windows, window_bits, mixed, mixed_window
    flat = np.concatenate(bank_flat)
    del bank_flat
    outflow = np.concatenate(bank_amps)
    del bank_amps

    # Exit column c leaves the window for the site (exit_x, exit_y)[c] with
    # chirality exit_j[c]; banked at step s, it flies t - 1 - s more steps.
    exit_j = wj[exit_idx]
    exit_x, exit_y = to_x[exit_idx] - r, to_y[exit_idx] - r
    column = np.empty((4, n), dtype=np.intp)
    column[exit_j, np.where(np.array(STEP_AXIS)[exit_j] == 0, exit_y, exit_x) + r] = np.arange(width)

    # The window's sites, then the leads': what is still moving in, then
    # what was banked at t = 0.  Leads may land in the window or on each
    # other, so these sites are numbered by first appearance.
    ax, ay = np.nonzero(np.any(active != 0, axis=2))
    near_x = np.concatenate([ax - r, lead_xy[:, 0]])
    near_y = np.concatenate([ay - r, lead_xy[:, 1]])
    first, slot = _first_appearances(near_x, near_y)
    near = np.zeros((first.size, 4), dtype=complex)
    near[: ax.size] = active[ax, ay]  # the window's sites come first, once each
    np.add.at(near, (slot[ax.size :], out_j[lead]), out_a[lead])

    # A lead with one coordinate in [-r, r] and the other at most t steps
    # beyond that range lies on the band beyond one side of the window, on
    # the site where that side's exit column puts the outflow of one step.
    # If the bank holds that entry, it is added after the leads.
    lx, ly = lead_xy.T
    in_x, in_y = (-r <= lx) & (lx <= r), (-r <= ly) & (ly <= r)
    along = np.where(in_y, lx, ly)
    meets = np.flatnonzero((in_x ^ in_y) & (-r - t <= along) & (along <= r + t))
    along = along[meets]
    j = 2 * in_x[meets] + (along > 0)  # LEFT, RIGHT, DOWN, UP
    across = np.where(in_y[meets], ly[meets], lx[meets])
    key = (t + r - np.abs(along)) * width + column[j, across + r]
    at = np.searchsorted(flat, key)
    found = at < flat.size
    found[found] = flat[at[found]] == key[found]
    hit = at[found]
    if hit.size:
        # Leads on one site meet the same entry; += adds it once, as the
        # indexed update is buffered.
        near[slot[ax.size + meets[found]], j[found]] += outflow[hit]
        rest = np.ones(flat.size, dtype=bool)
        rest[hit] = False
        flat, outflow = flat[rest], outflow[rest]
    keep = np.any(near != 0, axis=1)
    kept = int(np.count_nonzero(keep))

    # The rest of the outflow lands on sites of its own, nonzero and
    # distinct, in bank order after them.  Each row holds 0 + a for its one
    # amplitude a, as every amplitude is added to a zero row; a + 0 has
    # the same bits.
    sites = np.empty((kept + flat.size, 2), dtype=np.int64)
    amps = np.zeros((kept + flat.size, 4), dtype=complex)
    sites[:kept, 0], sites[:kept, 1] = near_x[first[keep]], near_y[first[keep]]
    amps[:kept] = near[keep]
    col = flat % width
    flight = np.subtract(t - 1, flat // width, out=flat)
    for dim, exit_at in enumerate((exit_x, exit_y)):
        np.multiply(steps[exit_j, dim][col], flight, out=sites[kept:, dim])
        sites[kept:, dim] += exit_at[col]
    del flat, flight
    outflow += 0
    amps[kept:][np.arange(col.size), exit_j[col]] = outflow
    return WalkState._adopt(sites, amps)


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
