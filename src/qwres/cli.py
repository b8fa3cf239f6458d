"""Command-line front end for the walk toolkit.

Every subcommand resolves its configuration in three layers (built-in
defaults, then a JSON config file given with --config, then explicit
flags), validates the merged result, runs the owning module, and writes
one output document.  JSON output is an envelope holding the toolkit
version, the fully resolved configuration and the command payload; CSV
output is the bare table whose columns are fixed per command.  Repeated
runs with the same configuration produce byte-identical output, which is
why wall-clock timing is reported on stderr instead of inside the
document.

Exit codes: 0 success; 1 numerical failure, with the envelope carrying
an error object instead of a payload; 2 command-line usage errors; 3 an
unreadable or syntactically invalid JSON input file; 4 a configuration
value that is unknown, of the wrong type, out of range, or rejected by
the owning module.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .barrier import BarrierSpec, build_nonpenetrable, interior_spectrum, norm_on_loop
from .elastic import (
    ClosedOrbit,
    classify_trapping,
    qc_spectrum,
    random_permutation_coin,
    trace_trajectory,
)
from .lattice import (
    CHIRALITY_NAMES,
    CoinField,
    WalkOperator,
    WalkState,
    coin_field_from_json,
    evolve,
)
from .shape import (
    CORNER_PRESETS,
    closed_spectrum_phases,
    corner_permutation_field,
    elastic_corner_coins,
    make_corner_family,
    make_shape_family,
    migration_scan,
)
from .spectral import (
    STRIP_IM_MAX,
    STRIP_SHIFT,
    TWO_PI,
    DeterminantFamily,
    KappaRect,
    NumericalFailure,
    locate_roots,
    root_reported_at,
)

MODEL_PRESETS = (
    "free",
    "corner",
    "one-corner",
    "two-corner",
    "phase-corner",
    "barrier-trivial",
    "shape-trivial",
    "random-elastic",
)
ELASTIC_PRESETS = ("corner", "random-elastic")

_PRESET_CHOICES: Dict[str, Tuple[str, ...]] = {
    "evolve": MODEL_PRESETS,
    "trace": ELASTIC_PRESETS,
    "elastic-spec": ELASTIC_PRESETS,
    "resonances": MODEL_PRESETS,
    "barrier-spec": ("barrier-trivial",),
    "corner-scan": CORNER_PRESETS,
    "shape-scan": ("shape-trivial",),
}
_EMIT_CHOICES: Dict[str, Tuple[str, ...]] = {
    "resonances": ("json", "csv"),
    "barrier-norms": ("csv", "json"),
    "corner-scan": ("csv", "json"),
    "shape-scan": ("csv", "json"),
}

_COMMON_DEFAULTS: Dict[str, object] = {"config": None, "output": "-"}

_DEFAULTS: Dict[str, Dict[str, object]] = {
    "evolve": {
        "preset": "free",
        "coin_json": None,
        "m0": 2,
        "n0": 2,
        "M0": 1,
        "eps": 0.0,
        "seed": 0,
        "site": (0, 0),
        "chirality": "left",
        "t": 1,
    },
    "trace": {
        "preset": "corner",
        "m0": 2,
        "n0": 2,
        "M0": 2,
        "seed": 0,
        "site": (0, 0),
        "chirality": "left",
    },
    "elastic-spec": {"preset": "corner", "m0": 2, "n0": 2, "M0": 2, "seed": 0},
    "resonances": {
        "preset": None,
        "coin_json": None,
        "m0": 2,
        "n0": 2,
        "M0": 1,
        "eps": 0.0,
        "seed": 0,
        "strip_depth": None,
        "emit": "json",
    },
    "barrier-spec": {"preset": "barrier-trivial", "M0": 1, "coin_json": None},
    "barrier-norms": {
        "M0": 1,
        "mu0": 0.0,
        "eps_grid": None,
        "s": 0.5,
        "samples": 64,
        "emit": "csv",
    },
    "corner-scan": {
        "preset": "one-corner",
        "m0": 2,
        "n0": 2,
        "eps_grid": None,
        "s": 0.5,
        "threads": None,
        "emit": "csv",
    },
    "shape-scan": {
        "preset": "shape-trivial",
        "M0": 1,
        "eps_grid": None,
        "s": 0.5,
        "threads": None,
        "emit": "csv",
    },
}


class InputError(Exception):
    """A problem with the invocation itself, carrying its exit code."""

    def __init__(self, code: int, kind: str, reason: str):
        super().__init__(reason)
        self.code = code
        self.kind = kind
        self.reason = reason


def _config_error(reason: str) -> InputError:
    return InputError(4, "ConfigError", reason)


def _load_json_file(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(3, "JsonError", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(3, "JsonError", f"{path} is not valid JSON: {exc}") from exc


def _site_flag(text: str) -> Tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected I,J but got {text!r}")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected integer pair, got {text!r}") from exc


def _grid_flag(text: str) -> Tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("the grid must contain at least one value")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwres",
        description="Eigenvalues and resonances of finitely perturbed coined walks on the 2D lattice.",
        epilog=(
            "Exit codes: 0 ok, 1 numerical failure, 2 usage, 3 bad JSON input, "
            "4 bad configuration value.  A JSON config file given with --config "
            "supplies any of the listed options by their long name with '-' "
            "replaced by '_'; explicit flags override the file."
        ),
    )
    parser.add_argument("--version", action="version", version=f"qwres {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def cmd(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", default=argparse.SUPPRESS, metavar="FILE",
                       help="JSON file with defaults for the flags below")
        p.add_argument("--output", default=argparse.SUPPRESS, metavar="PATH",
                       help="output file, '-' for stdout (default: -)")
        return p

    def opt(p, name: str, **kw) -> None:
        kw.setdefault("default", argparse.SUPPRESS)
        p.add_argument(name, **kw)

    def model_opts(p, command: str, with_eps: bool) -> None:
        choices = _PRESET_CHOICES[command]
        d = _DEFAULTS[command]
        opt(p, "--preset", choices=choices,
            help=f"built-in model (default: {d.get('preset')})")
        if "coin_json" in d:
            opt(p, "--coin-json", metavar="FILE", dest="coin_json",
                help="coin field document overriding any preset")
        if "m0" in d:
            opt(p, "--m0", type=int, help=f"corner rectangle width (default: {d['m0']})")
        if "n0" in d:
            opt(p, "--n0", type=int, help=f"corner rectangle height (default: {d['n0']})")
        if "M0" in d:
            opt(p, "--M0", type=int, dest="M0",
                help=f"box radius for barrier, shape and random models (default: {d['M0']})")
        if with_eps:
            opt(p, "--eps", type=float,
                help=f"perturbation strength for the eps families (default: {d['eps']})")
        if "seed" in d:
            opt(p, "--seed", type=int,
                help=f"seed for the random-elastic model (default: {d['seed']})")

    p = cmd("evolve", "run a delta state forward and emit the final state")
    model_opts(p, "evolve", with_eps=True)
    opt(p, "--site", type=_site_flag, metavar="I,J", help="initial site (default: 0,0)")
    opt(p, "--chirality", choices=CHIRALITY_NAMES, help="initial chirality (default: left)")
    opt(p, "--t", type=int, help="number of steps (default: 1)")

    p = cmd("trace", "follow one classical trajectory of an elastic field")
    model_opts(p, "trace", with_eps=False)
    opt(p, "--site", type=_site_flag, metavar="I,J", help="start site (default: 0,0)")
    opt(p, "--chirality", choices=CHIRALITY_NAMES, help="start chirality (default: left)")

    p = cmd("elastic-spec", "classify all closed orbits and quantize their spectrum")
    model_opts(p, "elastic-spec", with_eps=False)

    p = cmd("resonances", "locate determinant zeros in the spectral strip")
    model_opts(p, "resonances", with_eps=True)
    opt(p, "--strip-depth", type=float, dest="strip_depth",
        help="scan Im kappa down to -DEPTH (default: the standard strip, depth 2)")
    opt(p, "--emit", choices=_EMIT_CHOICES["resonances"],
        help="output format (default: json)")

    p = cmd("barrier-spec", "interior spectrum of a non-penetrable barrier")
    model_opts(p, "barrier-spec", with_eps=False)

    p = cmd("barrier-norms", "interior resolvent norm on shrinking loops")
    opt(p, "--M0", type=int, dest="M0", help="barrier box radius (default: 1)")
    opt(p, "--mu0", type=float, help="loop center phase (default: 0.0)")
    opt(p, "--eps-grid", type=_grid_flag, dest="eps_grid", metavar="E1,E2,...",
        help="perturbation strengths, required")
    opt(p, "--s", type=float, help="loop scale exponent (default: 0.5)")
    opt(p, "--samples", type=int, help="boundary samples per loop, at least 64 (default: 64)")
    opt(p, "--emit", choices=_EMIT_CHOICES["barrier-norms"],
        help="output format (default: csv)")

    for name, label in (("corner-scan", "corner family"), ("shape-scan", "shape family")):
        p = cmd(name, f"track root migration of the {label} over an eps grid")
        d = _DEFAULTS[name]
        opt(p, "--preset", choices=_PRESET_CHOICES[name],
            help=f"family preset (default: {d['preset']})")
        if name == "corner-scan":
            opt(p, "--m0", type=int, help=f"rectangle width (default: {d['m0']})")
            opt(p, "--n0", type=int, help=f"rectangle height (default: {d['n0']})")
        else:
            opt(p, "--M0", type=int, dest="M0", help=f"barrier box radius (default: {d['M0']})")
        opt(p, "--eps-grid", type=_grid_flag, dest="eps_grid", metavar="E1,E2,...",
            help="perturbation strengths, required")
        opt(p, "--s", type=float,
            help="loop scale exponent; values above 0.5 warn (default: 0.5)")
        opt(p, "--threads", type=int,
            help="worker threads (default: env QWRES_THREADS, else 1)")
        opt(p, "--emit", choices=_EMIT_CHOICES[name],
            help="output format; root_re is reported in the frame of its loop center "
                 "(default: csv)")

    return parser


def _require_int(cfg: Dict[str, object], key: str, minimum: int) -> None:
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise _config_error(f"{key} must be an integer, got {v!r}")
    if v < minimum:
        raise _config_error(f"{key} must be at least {minimum}, got {v}")


def _require_float(cfg: Dict[str, object], key: str, low: float, high: float) -> None:
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise _config_error(f"{key} must be a number, got {v!r}")
    v = float(v)
    if not math.isfinite(v) or not (low <= v <= high):
        raise _config_error(f"{key} must lie in [{low}, {high}], got {v}")
    cfg[key] = v


def _validate(cfg: Dict[str, object]) -> None:
    cmd = str(cfg["command"])
    if not isinstance(cfg["output"], str) or not cfg["output"]:
        raise _config_error(f"output must be a path or '-', got {cfg['output']!r}")
    for key in ("config", "coin_json"):
        if key in cfg and cfg[key] is not None and not isinstance(cfg[key], str):
            raise _config_error(f"{key} must be a path, got {cfg[key]!r}")
    if "preset" in cfg and cfg["preset"] is not None:
        if cfg["preset"] not in _PRESET_CHOICES[cmd]:
            raise _config_error(
                f"preset for {cmd} must be one of {', '.join(_PRESET_CHOICES[cmd])}; "
                f"got {cfg['preset']!r}"
            )
    for key, minimum in (("m0", 1), ("n0", 1), ("M0", 1), ("t", 0), ("seed", 0),
                         ("samples", 64)):
        if key in cfg:
            _require_int(cfg, key, minimum)
    if "eps" in cfg:
        _require_float(cfg, "eps", 0.0, 1.0)
    if "s" in cfg:
        _require_float(cfg, "s", 1e-9, 4.0)
    if "mu0" in cfg:
        _require_float(cfg, "mu0", -1e6, 1e6)
    if "strip_depth" in cfg and cfg["strip_depth"] is not None:
        _require_float(cfg, "strip_depth", 1e-6, 64.0)
    if "eps_grid" in cfg:
        grid = cfg["eps_grid"]
        if grid is None:
            raise _config_error("eps_grid is required; pass --eps-grid or set it in the config file")
        if isinstance(grid, (int, float, str, bool)) or not grid:
            raise _config_error(f"eps_grid must be a non-empty list of floats, got {grid!r}")
        values = []
        for v in grid:
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0.0 < float(v) <= 1.0:
                raise _config_error(f"eps_grid entries must lie in (0, 1], got {v!r}")
            values.append(float(v))
        cfg["eps_grid"] = tuple(values)
    if "site" in cfg:
        site = cfg["site"]
        if (isinstance(site, (list, tuple)) and len(site) == 2
                and all(isinstance(c, int) and not isinstance(c, bool) for c in site)):
            cfg["site"] = (int(site[0]), int(site[1]))
        else:
            raise _config_error(f"site must be an integer pair, got {site!r}")
    if "chirality" in cfg and cfg["chirality"] not in CHIRALITY_NAMES:
        raise _config_error(
            f"chirality must be one of {', '.join(CHIRALITY_NAMES)}, got {cfg['chirality']!r}"
        )
    if "emit" in cfg and cfg["emit"] not in _EMIT_CHOICES[cmd]:
        raise _config_error(
            f"emit for {cmd} must be one of {', '.join(_EMIT_CHOICES[cmd])}; got {cfg['emit']!r}"
        )
    if "threads" in cfg:
        threads = cfg["threads"]
        if threads is None:
            raw = os.environ.get("QWRES_THREADS", "").strip()
            if raw:
                try:
                    threads = int(raw)
                except ValueError:
                    raise _config_error(f"QWRES_THREADS must be an integer, got {raw!r}") from None
            else:
                threads = 1
        if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
            raise _config_error(f"threads must be a positive integer, got {threads!r}")
        cfg["threads"] = threads
    if cmd == "resonances" and cfg["preset"] is None and cfg["coin_json"] is None:
        raise _config_error("no model source: give --preset or --coin-json")


def _resolve_config(ns: argparse.Namespace) -> Dict[str, object]:
    cmd = ns.command
    explicit = {k: v for k, v in vars(ns).items() if k != "command"}
    merged: Dict[str, object] = {**_COMMON_DEFAULTS, **_DEFAULTS[cmd]}
    path = explicit.get("config", None)
    if path is not None:
        doc = _load_json_file(path)
        if not isinstance(doc, dict):
            raise _config_error(f"{path} must hold a JSON object of options")
        for key, value in doc.items():
            if key == "command":
                if value != cmd:
                    raise _config_error(
                        f"config file names command {value!r} but {cmd!r} was invoked"
                    )
                continue
            if key not in merged:
                raise _config_error(f"unknown config key {key!r} for {cmd}")
            merged[key] = value
    merged.update(explicit)
    merged["command"] = cmd
    _validate(merged)
    return merged


def _model_coin_field(cfg: Dict[str, object]) -> CoinField:
    path = cfg.get("coin_json")
    if path:
        return coin_field_from_json(_load_json_file(path))
    preset = cfg.get("preset")
    if preset is None:
        raise _config_error("no model source: give --preset or --coin-json")
    if preset == "free":
        return CoinField(0, {})
    if preset == "corner":
        if cfg.get("eps", 0.0) != 0.0:
            raise _config_error(
                "the corner preset is the closed model; use one-corner, two-corner "
                "or phase-corner for eps > 0"
            )
        return CoinField(max(cfg["m0"], cfg["n0"]), elastic_corner_coins(cfg["m0"], cfg["n0"]))
    if preset in CORNER_PRESETS:
        return make_corner_family(cfg["m0"], cfg["n0"], cfg["eps"], preset).coin
    if preset == "barrier-trivial":
        return build_nonpenetrable(BarrierSpec(cfg["M0"])).coin
    if preset == "shape-trivial":
        return make_shape_family(BarrierSpec(cfg["M0"]), cfg["eps"]).coin
    if preset == "random-elastic":
        return random_permutation_coin(cfg["M0"], cfg["seed"]).to_coin_field()
    raise _config_error(f"preset {preset!r} does not name a coin model")


def _elastic_model(cfg: Dict[str, object]):
    if cfg["preset"] == "corner":
        return corner_permutation_field(cfg["m0"], cfg["n0"])
    return random_permutation_coin(cfg["M0"], cfg["seed"])


def _c(z: complex) -> Dict[str, float]:
    return {"re": float(z.real), "im": float(z.imag)}


def _root_obj(root) -> Dict[str, object]:
    return {
        "kappa": _c(root.kappa),
        "kind": root.kind,
        "multiplicity": int(root.multiplicity),
        "residual": float(root.residual),
        "w": _c(cmath.exp(-1j * root.kappa)),
    }


def _orbit_obj(orbit: ClosedOrbit) -> Dict[str, object]:
    return {
        "period": orbit.period,
        "total_phase": orbit.total_phase,
        "sites": [list(q) for q in orbit.sites()],
        "chiralities": [CHIRALITY_NAMES[p] for _, p in orbit.states],
        "phases": list(orbit.phases),
    }


def _run_evolve(cfg):
    coin = _model_coin_field(cfg)
    op = WalkOperator(coin)
    u0 = WalkState.delta(cfg["site"], CHIRALITY_NAMES.index(cfg["chirality"]))
    ut = evolve(op, u0, cfg["t"])
    state = []
    for site in sorted(ut.sites()):
        vec = ut.amplitude(site)
        state.append({"x": list(site), "amp": [[float(a.real), float(a.imag)] for a in vec]})
    payload = {
        "t": cfg["t"],
        "norm": float(ut.norm()),
        "support": len(state),
        "state": state,
    }
    return payload, None


def _run_trace(cfg):
    coin = _elastic_model(cfg)
    result = trace_trajectory(coin, cfg["site"], CHIRALITY_NAMES.index(cfg["chirality"]))
    start = {"x": list(cfg["site"]), "chirality": cfg["chirality"]}
    if isinstance(result, ClosedOrbit):
        payload = {"start": start, "closed": True, "orbit": _orbit_obj(result),
                   "spectrum": [float(p) for p in qc_spectrum(result)]}
    else:
        site, p = result.exit_state
        payload = {"start": start, "closed": False, "steps": result.steps,
                   "exit": {"x": list(site), "chirality": CHIRALITY_NAMES[p]}}
    return payload, None


def _cluster_phases(entries: List[Tuple[float, int]], tol: float = 1e-9):
    """Group (phase, orbit id) pairs into clusters of equal phase."""
    entries = sorted(entries)
    clusters: List[List[Tuple[float, int]]] = []
    for item in entries:
        if clusters and item[0] - clusters[-1][-1][0] <= tol:
            clusters[-1].append(item)
        else:
            clusters.append([item])
    if len(clusters) > 1 and (TWO_PI - clusters[-1][-1][0]) + clusters[0][0][0] <= tol:
        clusters[0] = clusters.pop() + clusters[0]
    return clusters


def _run_elastic_spec(cfg):
    coin = _elastic_model(cfg)
    report = classify_trapping(coin)
    orbits = []
    entries: List[Tuple[float, int]] = []
    for oid, orbit in enumerate(report.orbits):
        obj = _orbit_obj(orbit)
        obj["id"] = oid
        orbits.append(obj)
        entries.extend((float(p), oid) for p in qc_spectrum(orbit))
    spectrum = []
    for cluster in _cluster_phases(entries):
        phase = cluster[0][0] % TWO_PI
        spectrum.append({
            "phase": phase,
            "multiplicity": len(cluster),
            "orbits": sorted({oid for _, oid in cluster}),
        })
    spectrum.sort(key=lambda item: item["phase"])
    payload = {"orbits": orbits, "spectrum": spectrum,
               "non_trapping": report.non_trapping}
    return payload, None


def _run_resonances(cfg):
    fam = DeterminantFamily(_model_coin_field(cfg))
    if cfg["strip_depth"] is None:
        region = None
    else:
        region = KappaRect(STRIP_SHIFT, STRIP_SHIFT + TWO_PI, -cfg["strip_depth"], STRIP_IM_MAX)
    roots = [
        root_reported_at(r, fam, complex(r.kappa.real % TWO_PI, r.kappa.imag))
        for r in locate_roots(fam, region=region)
    ]
    roots = sorted(roots, key=lambda r: (r.kappa.real, r.kappa.imag))
    payload = {
        "roots": [_root_obj(r) for r in roots],
        "winding_total": int(sum(r.multiplicity for r in roots)),
    }
    rows: List[Sequence[object]] = [
        ("kappa_re", "kappa_im", "w_re", "w_im", "multiplicity", "kind", "residual")
    ]
    for r in roots:
        w = cmath.exp(-1j * r.kappa)
        rows.append((r.kappa.real, r.kappa.imag, w.real, w.imag,
                     int(r.multiplicity), r.kind, float(r.residual)))
    return payload, rows


def _barrier_interior(cfg):
    path = cfg.get("coin_json")
    if path:
        field = coin_field_from_json(_load_json_file(path))
        return interior_spectrum(cfg["M0"], field.overrides)
    return interior_spectrum(cfg["M0"])


def _run_barrier_spec(cfg):
    iu = _barrier_interior(cfg)
    payload = {
        "N": iu.dimension,
        "eigenphases": [float(p) for p in iu.eigenphases],
        "leakage": float(iu.leakage),
    }
    return payload, None


def _run_barrier_norms(cfg):
    iu = interior_spectrum(cfg["M0"])
    rows: List[Sequence[object]] = [("eps", "s", "max_norm")]
    records = []
    for eps in cfg["eps_grid"]:
        value = norm_on_loop(iu, cfg["mu0"], eps, s=cfg["s"], samples=cfg["samples"])
        rows.append((eps, cfg["s"], float(value)))
        records.append({"eps": eps, "s": cfg["s"], "max_norm": float(value)})
    return {"rows": records}, rows


def _scan_output(fam, cfg):
    centers = [float(p) for p in closed_spectrum_phases(fam)]
    scan = migration_scan(fam, cfg["eps_grid"], centers, s=cfg["s"], threads=cfg["threads"])
    rows: List[Sequence[object]] = [
        ("eps", "mu0", "count", "root_re", "root_im", "w_abs", "dist_to_mu0")
    ]
    records = []
    for row in scan:
        records.append({
            "eps": row.eps,
            "mu0": row.mu0,
            "count": int(row.count),
            "roots": [_root_obj(r) for r in row.roots],
        })
        for root in row.roots:
            dist = math.hypot(root.kappa.real - row.mu0, root.kappa.imag)
            rows.append((row.eps, row.mu0, int(row.count), root.kappa.real,
                         root.kappa.imag, math.exp(root.kappa.imag), dist))
    return {"rows": records}, rows


def _run_corner_scan(cfg):
    fam = make_corner_family(cfg["m0"], cfg["n0"], cfg["eps_grid"][0], cfg["preset"])
    return _scan_output(fam, cfg)


def _run_shape_scan(cfg):
    fam = make_shape_family(BarrierSpec(cfg["M0"]), cfg["eps_grid"][0])
    return _scan_output(fam, cfg)


_DISPATCH = {
    "evolve": _run_evolve,
    "trace": _run_trace,
    "elastic-spec": _run_elastic_spec,
    "resonances": _run_resonances,
    "barrier-spec": _run_barrier_spec,
    "barrier-norms": _run_barrier_norms,
    "corner-scan": _run_corner_scan,
    "shape-scan": _run_shape_scan,
}


def _json_text(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _cell(value: object) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans have no CSV representation here")
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.17g}"


def _csv_text(rows: Sequence[Sequence[object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def _echo(cfg: Dict[str, object]) -> Dict[str, object]:
    return {k: list(v) if isinstance(v, tuple) else v for k, v in cfg.items()}


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = _resolve_config(ns)
    except InputError as exc:
        sys.stderr.write(_json_text({"error": {"reason": exc.reason, "type": exc.kind}}))
        return exc.code
    if cfg.get("s") is not None and float(cfg.get("s") or 0.0) > 0.5:
        sys.stderr.write(
            f"warning: s = {cfg['s']} is outside the s <= 1/2 scaling regime; "
            "treat the output as experimental\n"
        )
    started = time.perf_counter()
    try:
        payload, rows = _DISPATCH[cfg["command"]](cfg)
    except InputError as exc:
        sys.stderr.write(_json_text({"error": {"reason": exc.reason, "type": exc.kind}}))
        return exc.code
    except ValueError as exc:
        sys.stderr.write(_json_text({"error": {"reason": str(exc), "type": "ConfigError"}}))
        return 4
    except NumericalFailure as exc:
        envelope = {
            "config": _echo(cfg),
            "error": {"reason": str(exc), "type": "NumericalFailure"},
            "version": __version__,
        }
        _write_output(cfg["output"], _json_text(envelope))
        return 1
    if cfg.get("emit", "json") == "csv":
        text = _csv_text(rows)
    else:
        envelope = {"config": _echo(cfg), "payload": payload, "version": __version__}
        text = _json_text(envelope)
    _write_output(cfg["output"], text)
    elapsed = time.perf_counter() - started
    sys.stderr.write(f"qwres {cfg['command']}: {elapsed:.3f} s\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> None:
    sys.exit(run_cli(argv))


if __name__ == "__main__":
    main()
