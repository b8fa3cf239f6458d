"""Complex lattice translations and outgoing (resonant) states.

The translation T(theta) multiplies each chirality component by a phase tied
to the coordinate it moves along: left movers pick up e^{i theta x1}, right
movers e^{-i theta x1}, down movers e^{i theta x2}, up movers e^{-i theta x2}.
For real theta this is unitary; for complex theta it dampens every outgoing
ray at the same geometric rate, which is what turns a resonant state with
exponentially growing tails into a square-summable eigenfunction of the
conjugated walk T(theta) U T(-theta).

An OutgoingState stores such a generalized eigenfunction in finite terms: a
core on the perturbation box dilated by one, plus one exponential tail
coefficient per transverse offset along each of the four outgoing ray
bundles.  verify_outgoing rebuilds the state analytically on any requested
window and measures how well the walk equation holds there, so no truncation
enters the check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from .lattice import (CHIRALITIES, STEP_AXIS, STEP_SIGN, WalkOperator, WalkState, _coin_field_of,
                      apply_walk)


def translation_weight(theta: complex, site, chirality: int) -> complex:
    """The diagonal weight of T(theta) on one (site, chirality) amplitude.

    It is e^{-i theta s x}, with x the coordinate the chirality moves along
    and s the sign of its step.
    """
    return complex(np.exp(1j * theta * -STEP_SIGN[chirality] * site[STEP_AXIS[chirality]]))


def translation_weights(theta: complex, sites, chiralities) -> np.ndarray:
    """translation_weight for each (site, chirality), to the bit; sites' last axis is (x1, x2)."""
    j, sites = np.asarray(chiralities), np.asarray(sites)
    along = np.where(np.array(STEP_AXIS)[j] == 0, sites[..., 0], sites[..., 1])
    return np.exp(1j * theta * -np.array(STEP_SIGN)[j] * along)


def _product(a, b) -> np.ndarray:
    """a * b rounded as complex scalars multiply; numpy's array multiply may fuse a multiply-add."""
    a, b = np.asarray(a), np.asarray(b)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def apply_T_theta(theta: complex, u: WalkState) -> WalkState:
    """Apply the complex translation T(theta) componentwise."""
    weights = translation_weights(theta, u._sites[:, None, :], CHIRALITIES)
    return WalkState._of_rows(u._sites, _product(weights, u._amps))


def apply_U_theta(op: WalkOperator, theta: complex, u: WalkState) -> WalkState:
    """One step of the translated walk T(theta) U T(-theta)."""
    return apply_T_theta(theta, apply_walk(op, apply_T_theta(-theta, u)))


class OutgoingState:
    """Generalized eigenfunction Uu = e^{-i kappa} u with purely outgoing tails.

    Parameters
    ----------
    kappa:
        Complex quasi-energy with Im kappa < 0; the eigenvalue of the walk
        on this state is e^{-i kappa}.
    box_radius:
        Radius M0 of the coin perturbation box the state belongs to.
    core:
        The restriction of u to the dilated box max(|x1|, |x2|) <= M0 + 1.
    tail_left, tail_right, tail_down, tail_up:
        Coefficient maps, transverse offset -> complex amplitude, each
        supported in [-M0, M0].  Outside the dilated box the state is

            u_left(x)  = tail_left[x2]  * e^{-i kappa x1}   (x1 < -(M0+1)),
            u_right(x) = tail_right[x2] * e^{+i kappa x1}   (x1 >  M0+1),
            u_down(x)  = tail_down[x1]  * e^{-i kappa x2}   (x2 < -(M0+1)),
            u_up(x)    = tail_up[x1]    * e^{+i kappa x2}   (x2 >  M0+1),

        and every other component vanishes there.
    """

    __slots__ = ("kappa", "box_radius", "core", "tails")

    def __init__(
        self,
        kappa: complex,
        box_radius: int,
        core: WalkState,
        tail_left: Mapping[int, complex] | None = None,
        tail_right: Mapping[int, complex] | None = None,
        tail_down: Mapping[int, complex] | None = None,
        tail_up: Mapping[int, complex] | None = None,
    ):
        kappa = complex(kappa)
        if kappa.imag >= 0:
            raise ValueError(
                f"outgoing states require Im kappa < 0, got Im kappa = {kappa.imag}"
            )
        self.kappa = kappa
        self.box_radius = int(box_radius)
        r1 = self.box_radius + 1
        for site in core.sites():
            if max(abs(site[0]), abs(site[1])) > r1:
                raise ValueError(f"core site {site} outside dilated box of radius {r1}")
        self.core = core
        tails = []
        for name, raw in (
            ("tail_left", tail_left),
            ("tail_right", tail_right),
            ("tail_down", tail_down),
            ("tail_up", tail_up),
        ):
            clean: Dict[int, complex] = {}
            for offset, a in (raw or {}).items():
                if abs(int(offset)) > self.box_radius:
                    raise ValueError(
                        f"{name} offset {offset} outside [-{self.box_radius}, {self.box_radius}]"
                    )
                if a != 0:
                    clean[int(offset)] = complex(a)
            tails.append(clean)
        self.tails = tuple(tails)  # indexed by chirality

    def is_trivial(self) -> bool:
        return len(self.core) == 0 and all(not t for t in self.tails)

    def is_summable_after(self, theta: complex) -> bool:
        """Whether T(theta) maps this state into l2.

        Along each tail the translated amplitude has constant modulus ratio
        e^{-(Im kappa - Im theta)} per lattice step, so the geometric series
        converges exactly when Im theta < Im kappa.
        """
        return complex(theta).imag < self.kappa.imag

    def sample(self, radius: int) -> WalkState:
        """Evaluate the state exactly on all sites with max(|x1|, |x2|) <= radius."""
        r1 = self.box_radius + 1
        sites, chiralities, values = [np.zeros((0, 2), dtype=np.int64)], [], [np.zeros(0)]
        for j, tail in enumerate(self.tails):
            # Past the dilated box the ray of chirality j holds tail * e^{i kappa s t}
            # at coordinate t along its axis, s the sign of its step.
            sign = STEP_SIGN[j]
            ts = np.arange(-radius, -r1) if sign < 0 else np.arange(r1 + 1, radius + 1)
            ray = np.exp(sign * 1j * self.kappa * ts)
            for offset, a in tail.items():
                across = np.full_like(ts, offset)
                sites.append(np.stack((ts, across) if STEP_AXIS[j] == 0 else (across, ts), axis=1))
                chiralities += [j] * ts.size
                values.append(_product(a, ray))
        # The tails lie outside the dilated box, so they share no site with the core.
        tails = WalkState.from_entries(np.concatenate(sites), chiralities, np.concatenate(values))
        return self.core.plus(tails)


@dataclass(frozen=True)
class OutgoingReport:
    """Result of checking an outgoing state against the walk equation."""

    residual: float
    scale: float
    window: int
    trivial: bool
    kappa: complex

    def summable_after(self, theta: complex) -> bool:
        return complex(theta).imag < self.kappa.imag


def verify_outgoing(op: WalkOperator, s: OutgoingState, window: int) -> OutgoingReport:
    """Measure max |(U u)(x) - e^{-i kappa} u(x)| over the given window.

    The state is reconstructed analytically on the window dilated by one, so
    the single application of the walk sees every inbound neighbor and the
    residual carries no truncation error.  The window must reach at least one
    site past the dilated box, where the tail formulas take over from the
    stored core.
    """
    coin = _coin_field_of(op)
    if coin.box_radius != s.box_radius:
        raise ValueError(
            f"operator box radius {coin.box_radius} != state box radius {s.box_radius}"
        )
    if window < s.box_radius + 2:
        raise ValueError(
            f"window {window} too small; need at least box_radius + 2 = {s.box_radius + 2}"
        )
    if s.is_trivial():
        return OutgoingReport(0.0, 0.0, window, True, s.kappa)

    u_ext = s.sample(window + 1)
    diff = apply_walk(op, u_ext).plus(u_ext.scaled(-np.exp(-1j * s.kappa)))
    return OutgoingReport(_window_max(diff, window), _window_max(u_ext, window), window,
                          False, s.kappa)


def _window_max(u: WalkState, window: int) -> float:
    """Largest modulus of u's components on max(|x1|, |x2|) <= window; NaN if one is NaN."""
    inside = np.all((-window <= u._sites) & (u._sites <= window), axis=1)
    return float(np.max(np.abs(u._amps[inside]), initial=0.0))
