"""Elastic coin fields: permutation coins, classical trajectories, quantization.

A coin that maps each basis chirality to a single basis chirality times a
phase scatters probability without splitting it, so the walk transports one
classical particle along a deterministic trajectory: apply the site's
permutation to the incoming chirality, then step.  The trajectory map is
injective, hence every non-escaping trajectory is a cycle through its start,
and a closed orbit of period N carries exactly N eigenfunctions of the walk
whose eigenphases solve the quantization condition

    N * lambda + sum of coin phases along the orbit = 0  (mod 2 pi).

These eigenfunctions are supported on the orbit alone, which makes elastic
fields the exactly solvable reference class for the spectral machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .lattice import (
    CHIRALITIES,
    STEPS,
    CoinField,
    Site,
    WalkState,
    ray_meets_box,
)
from .spectral import TWO_PI

_IDENTITY_PERM = (0, 1, 2, 3)
_ZERO_PHASES = (0.0, 0.0, 0.0, 0.0)


class PermutationCoin:
    """Site-dependent permutation-with-phases coin, identity outside the box.

    At an overridden site x the coin column for incoming chirality j is
    e^{i alpha_j(x)} times the basis vector of sigma_x(j).
    """

    __slots__ = ("box_radius", "_perms", "_phases")

    def __init__(
        self,
        box_radius: int,
        perms: Mapping[Site, Sequence[int]],
        phases: Optional[Mapping[Site, Sequence[float]]] = None,
    ):
        self.box_radius = int(box_radius)
        self._perms: Dict[Site, Tuple[int, ...]] = {}
        self._phases: Dict[Site, Tuple[float, ...]] = {}
        phases = phases or {}
        unknown = set(phases) - set(perms)
        if unknown:
            raise ValueError(f"phases given for sites without a permutation: {sorted(unknown)}")
        for site, perm in perms.items():
            x = (int(site[0]), int(site[1]))
            if max(abs(x[0]), abs(x[1])) > self.box_radius:
                raise ValueError(f"override site {x} outside box of radius {self.box_radius}")
            p = tuple(int(v) for v in perm)
            if sorted(p) != [0, 1, 2, 3]:
                raise ValueError(f"{perm!r} at {x} is not a permutation of the four chiralities")
            self._perms[x] = p
            a = phases.get(site, _ZERO_PHASES)
            if len(a) != 4:
                raise ValueError(f"need four phases at {x}, got {len(a)}")
            self._phases[x] = tuple(float(v) for v in a)

    def sigma(self, site: Site) -> Tuple[int, ...]:
        return self._perms.get(tuple(site), _IDENTITY_PERM)

    def alpha(self, site: Site) -> Tuple[float, ...]:
        return self._phases.get(tuple(site), _ZERO_PHASES)

    def override_sites(self) -> Tuple[Site, ...]:
        return tuple(sorted(self._perms))

    def to_coin_field(self) -> CoinField:
        overrides = {}
        for site, perm in self._perms.items():
            m = np.zeros((4, 4), dtype=complex)
            a = self._phases[site]
            for j in CHIRALITIES:
                m[perm[j], j] = np.exp(1j * a[j])
            overrides[site] = m
        return CoinField(self.box_radius, overrides)

    def __repr__(self) -> str:
        return f"PermutationCoin(box_radius={self.box_radius}, overrides={len(self._perms)})"


def random_permutation_coin(box_radius: int, seed: int) -> PermutationCoin:
    """Seeded elastic field with a random permutation and four random phases per site."""
    rng = np.random.default_rng(seed)
    perms = {}
    phases = {}
    for x in range(-box_radius, box_radius + 1):
        for y in range(-box_radius, box_radius + 1):
            perms[(x, y)] = tuple(int(v) for v in rng.permutation(4))
            phases[(x, y)] = tuple(float(v) for v in rng.uniform(0.0, TWO_PI, size=4))
    return PermutationCoin(box_radius, perms, phases)


@dataclass(frozen=True)
class ClosedOrbit:
    """A periodic classical trajectory of an elastic field.

    states holds the (site, chirality) sequence over one period; phases[t]
    is the coin phase collected when leaving states[t].
    """

    states: Tuple[Tuple[Site, int], ...]
    phases: Tuple[float, ...]

    @property
    def period(self) -> int:
        return len(self.states)

    @property
    def total_phase(self) -> float:
        return float(sum(self.phases))

    def key(self) -> frozenset:
        return frozenset(self.states)

    def sites(self) -> Tuple[Site, ...]:
        return tuple(q for q, _ in self.states)


@dataclass(frozen=True)
class Escaped:
    """A trajectory that left on a ray which never meets the coin box."""

    start: Tuple[Site, int]
    exit_state: Tuple[Site, int]
    steps: int


def trace_trajectory(coin: PermutationCoin, y: Site, j: int) -> Union[ClosedOrbit, Escaped]:
    """Follow the classical trajectory from (y, j) to closure or escape.

    The trajectory map (q, p) -> (q + step(sigma_q(p)), sigma_q(p)) is
    injective, so a non-escaping path cannot enter a cycle anywhere but at
    its own start; and escape is decided exactly, the moment the forward ray
    from the current state misses the coin box.
    """
    start = ((int(y[0]), int(y[1])), int(j))
    q, p = start
    states: List[Tuple[Site, int]] = []
    phases: List[float] = []
    # Any bounded excursion lives in the box dilated by one plus the inbound
    # segment of the start ray, so this cap is never hit for valid inputs.
    cap = 8 * (2 * coin.box_radius + 3) ** 2 + abs(q[0]) + abs(q[1]) + 16
    for step_count in range(cap):
        if not ray_meets_box(q, p, coin.box_radius):
            return Escaped(start=start, exit_state=(q, p), steps=step_count)
        states.append((q, p))
        phases.append(coin.alpha(q)[p])
        p = coin.sigma(q)[p]
        q = (q[0] + STEPS[p][0], q[1] + STEPS[p][1])
        if (q, p) == start:
            return ClosedOrbit(states=tuple(states), phases=tuple(phases))
    raise RuntimeError(f"trajectory from {start} neither closed nor escaped within {cap} steps")


def qc_spectrum(orbit: ClosedOrbit) -> np.ndarray:
    """The period-many eigenphases quantized by the orbit, sorted in [0, 2 pi).

    lambda_k = (2 pi k - total coin phase) / period for k = 0 .. period - 1.
    """
    n = orbit.period
    ks = np.arange(n)
    lams = (TWO_PI * ks - orbit.total_phase) / n
    return np.sort(lams % TWO_PI)


def _qc_residual(orbit: ClosedOrbit, lam: float) -> float:
    z = orbit.period * lam + orbit.total_phase
    return abs((z + np.pi) % TWO_PI - np.pi)


def build_orbit_eigenfunction(orbit: ClosedOrbit, lam: float) -> WalkState:
    """The walk eigenfunction with eigenvalue e^{-i lambda} carried by the orbit.

    Amplitudes advance by e^{i lambda} times the local coin phase from one
    orbit state to the next, so the closure of the product is exactly the
    quantization condition; a lambda violating it beyond 1e-10 is rejected.
    """
    if _qc_residual(orbit, lam) > 1e-10:
        raise ValueError(
            f"lambda = {lam} violates the quantization condition of a period "
            f"{orbit.period} orbit (residual {_qc_residual(orbit, lam):.3e})"
        )
    values = [1.0 + 0.0j]
    for phase in orbit.phases[:-1]:
        values.append(values[-1] * np.exp(1j * (lam + phase)))
    return WalkState.from_entries(*zip(*orbit.states), values)


@dataclass(frozen=True)
class TrappingReport:
    """All distinct closed orbits of an elastic field."""

    orbits: Tuple[ClosedOrbit, ...]
    non_trapping: bool

    def spectrum(self) -> np.ndarray:
        """Union of the quantized eigenphases over all orbits, with repeats."""
        if not self.orbits:
            return np.array([], dtype=float)
        return np.sort(np.concatenate([qc_spectrum(o) for o in self.orbits]))


def classify_trapping(coin: PermutationCoin) -> TrappingReport:
    """Find every closed orbit by exhausting starts in the dilated box.

    Any closed orbit must visit a non-identity coin (free motion is a pure
    translation), hence it meets the box, hence it passes through a state
    whose site lies in the box dilated by one; tracing from all those states
    therefore finds every orbit.
    """
    r = coin.box_radius + 1
    seen = set()
    orbits: List[ClosedOrbit] = []
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            for j in CHIRALITIES:
                result = trace_trajectory(coin, (x, y), j)
                if isinstance(result, ClosedOrbit):
                    key = result.key()
                    if key not in seen:
                        seen.add(key)
                        orbits.append(result)
    return TrappingReport(orbits=tuple(orbits), non_trapping=not orbits)
