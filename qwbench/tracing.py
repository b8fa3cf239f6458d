"""Span tracing of qwres layers from outside the package.

The tracer wraps public functions and class methods of qwres in place and
records one span per call: name, start, end, parent span and case id.
Every module attribute bound to a wrapped function is rebound, so calls
through aliases (``qwres.cli.locate_roots``, ``qwres.shape.det_value``, the
package namespace, ...) are seen as well as calls to the definition.
Calls that stay inside a module through private helpers are not seen: the
verification windings of ``locate_roots`` call ``spectral._winding``
directly, so their ``det_dlog`` spans sit directly under ``locate_roots``.

Spans live in per-thread column buffers while the traced code runs; they
are merged, summarised and written out only after it has finished.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

import qwres
from qwres import barrier, cli, elastic, lattice, shape, spectral, translation

_MODULES = (qwres, cli, spectral, shape, barrier, elastic, lattice, translation)

Measure = Optional[Callable[[tuple, dict, object], float]]


def _count(args, kwargs, out) -> float:
    return float(len(out))


def _points(args, kwargs, out) -> float:
    return float(np.size(out[0] if isinstance(out, tuple) else out))


def _nonfinite(args, kwargs, out) -> float:
    return 0.0 if np.isfinite(out[1]) else 1.0


def _family_size(args, kwargs, out) -> float:
    return float(args[0].m)


def _nonzero(args, kwargs, out) -> float:
    return 0.0 if out == 0 else 1.0


def _steps(args, kwargs, out) -> float:
    return float(args[2] if len(args) > 2 else kwargs["t"])


def _samples(args, kwargs, out) -> float:
    # norm_on_loop(iu, mu0, eps, s, a, b, samples): at least 64 boundary points.
    return float(max(64, args[6] if len(args) > 6 else kwargs.get("samples", 64)))


def _dimension(args, kwargs, out) -> float:
    return float(out.dimension)


# (layer, owner, attribute, the one number recorded with each span).
LAYERS: Tuple[Tuple[str, object, str, Measure], ...] = (
    ("spectral.family_build", spectral.DeterminantFamily, "__init__", _family_size),
    ("spectral.det_dlog", spectral.DeterminantFamily, "det_dlog", _nonfinite),
    ("spectral.logdet", spectral.DeterminantFamily, "logdet", _points),
    ("spectral.ResolventPairing.build", spectral.ResolventPairing, "__init__", None),
    ("spectral.ResolventPairing.values", spectral.ResolventPairing, "values", _points),
    ("spectral.locate_roots", spectral, "locate_roots", _count),
    ("spectral.winding_number", spectral, "winding_number", _nonzero),
    ("spectral.det_value", spectral, "det_value", None),
    ("spectral.projection_element", spectral, "projection_element", None),
    ("spectral.resolvent_apply", spectral, "resolvent_apply", None),
    ("spectral.resolvent_matrix_element", spectral, "resolvent_matrix_element", None),
    ("shape.migration_scan", shape, "migration_scan", _count),
    ("shape.rebuild_family", shape, "rebuild_family", None),
    ("shape.projection_difference", shape, "projection_difference", None),
    ("shape.perturbation_identities", shape, "perturbation_identities", None),
    ("barrier.interior_spectrum", barrier, "interior_spectrum", _dimension),
    ("barrier.norm_on_loop", barrier, "norm_on_loop", _samples),
    ("elastic.classify_trapping", elastic, "classify_trapping", None),
    ("lattice.evolve", lattice, "evolve", _steps),
    ("lattice.apply_walk", lattice, "apply_walk", None),
    ("translation.apply_T_theta", translation, "apply_T_theta", None),
    ("cli.run_cli", cli, "run_cli", None),
)


class _Buffer:
    """Span columns written by one thread."""

    def __init__(self):
        self.stack: List[int] = []
        self.base = 0  # parent of spans opened with an empty stack
        self.ids = array("q")
        self.names = array("h")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.cases = array("i")
        self.values = array("d")
        self.raised = array("b")

    def record(self, sid, name, start, end, parent, case, value, raised) -> None:
        self.ids.append(sid)
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.cases.append(case)
        self.values.append(value)
        self.raised.append(raised)


COLUMNS = ("ids", "names", "starts", "ends", "parents", "cases", "values", "raised")


class Tracer:
    """Collects spans while installed; see :meth:`installed`."""

    def __init__(self):
        self.case = 0
        self.names: List[str] = []
        self._codes: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = _Buffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
            return buf

    def _current(self) -> int:
        buf = self._buffer()
        return buf.stack[-1] if buf.stack else buf.base

    def wrap(self, name: str, fn: Callable, measure: Measure = None) -> Callable:
        """``fn`` recording one span named ``name`` per call."""
        code = self._code(name)
        clock = time.perf_counter
        ids = self._ids
        buffer = self._buffer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = buffer()
            stack = buf.stack
            sid = next(ids)
            parent = stack[-1] if stack else buf.base
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                buf.record(sid, code, start, end, parent, self.case, 0.0, 1)
                raise
            end = clock()
            stack.pop()
            value = measure(args, kwargs, out) if measure is not None else 0.0
            buf.record(sid, code, start, end, parent, self.case, value, 0)
            return out

        return traced

    def run_case(self, name: str, fn: Callable[[], object]) -> object:
        """Run one benchmark case under its own root span and case id."""
        self.case += 1
        return self.wrap(name, fn)()

    def _adopted(self, parent: int, fn: Callable, *args, **kwargs):
        buf = self._buffer()
        saved, buf.base = buf.base, parent
        try:
            return fn(*args, **kwargs)
        finally:
            buf.base = saved

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every layer of LAYERS, and restore the originals on exit.

        ``shape.ThreadPoolExecutor`` is swapped for a pool that hands each
        job the span that submitted it, so spans opened in worker threads
        keep their parent.
        """
        tracer = self

        class AdoptingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer._adopted, tracer._current(), fn, *args, **kwargs)

        saved: List[Tuple[object, str, object]] = []

        def rebind(owner, attr, value) -> None:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        try:
            for name, owner, attr, measure in LAYERS:
                original = getattr(owner, attr)
                wrapped = self.wrap(name, original, measure)
                if isinstance(owner, type):
                    rebind(owner, attr, wrapped)
                    continue
                for module in _MODULES:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            rebind(module, key, wrapped)
            rebind(shape, "ThreadPoolExecutor", AdoptingPool)
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def spans(self) -> Dict[str, np.ndarray]:
        """All recorded spans as columns ordered by span id (1, 2, ...)."""
        with self._lock:
            buffers = list(self._buffers)
        cols = {
            key: np.concatenate([np.asarray(getattr(b, key)) for b in buffers])
            if buffers else np.zeros(0)
            for key in COLUMNS
        }
        order = np.argsort(cols["ids"], kind="stable")
        return {key: value[order] for key, value in cols.items()}


def self_times(spans: Dict[str, np.ndarray]) -> np.ndarray:
    """Span duration minus the part of it covered by its child spans.

    Children of one parent overlap only when they ran in worker threads,
    so the covered part is the length of the union of their intervals.
    """
    ids = spans["ids"]
    n = len(ids)
    if n and not np.array_equal(ids, np.arange(1, n + 1)):
        raise ValueError("span ids must be 1..n; a span was lost")
    starts = spans["starts"]
    ends = spans["ends"]
    covered = np.zeros(n + 1)
    order = np.lexsort((starts, spans["parents"]))
    parents = spans["parents"][order].tolist()
    s_list = starts[order].tolist()
    e_list = ends[order].tolist()
    current, lo, hi, total = 0, 0.0, 0.0, 0.0
    for p, s, e in zip(parents, s_list, e_list):
        if p != current:
            covered[current] += total + (hi - lo)
            current, lo, hi, total = p, s, e, 0.0
        elif s > hi:
            total += hi - lo
            lo, hi = s, e
        else:
            hi = max(hi, e)
    covered[current] += total + (hi - lo)
    return (ends - starts) - covered[1:]


def under(spans: Dict[str, np.ndarray], ancestor: int) -> np.ndarray:
    """Mask of spans that have a span named by code ``ancestor`` above them."""
    names = spans["names"].tolist()
    parents = spans["parents"].tolist()
    flag = [False] * (len(names) + 1)
    for i, p in enumerate(parents):
        flag[i + 1] = p > 0 and (flag[p] or names[p - 1] == ancestor)
    return np.array(flag[1:], dtype=bool)


def write_spans(path, spans: Dict[str, np.ndarray], names: List[str]) -> None:
    """Write the span columns and the name table as one ``.npz`` file."""
    np.savez_compressed(path, span_names=np.array(names), **spans)
