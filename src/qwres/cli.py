"""Command-line front end for the walk toolkit.

Every subcommand resolves its configuration in three layers (built-in
defaults, then a JSON config file given with --config, then explicit
flags), validates the merged result, runs the owning module, and writes
one output document.  Each option is declared once, in _OPTIONS (help,
check, argparse keywords), each subcommand once, in _COMMANDS (help,
runner, choices, defaults), and each model preset once, in
_MODEL_BUILDERS; the parser, the validation and the help are loops over
these tables.  JSON output is an envelope holding the toolkit
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
import re
import sys
import time
from functools import lru_cache, partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

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
    make_corner_family,
    make_shape_family,
    migration_scan,
)
from .spectral import (
    STRIP_IM_MIN,
    TWO_PI,
    DeterminantFamily,
    NumericalFailure,
    default_strip,
    fold_real,
    locate_roots,
    root_reported_at,
)

class InputError(Exception):
    """A problem with the invocation itself, carrying its exit code."""

    def __init__(self, code: int, kind: str, reason: str):
        super().__init__(reason)
        self.code = code
        self.kind = kind


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
    except UnicodeDecodeError as exc:
        raise InputError(3, "JsonError", f"{path} is not UTF-8 text: {exc}") from exc


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


# Checks of merged option values: check(command, key, value) returns the
# value to keep or raises a ConfigError naming the key.

def _integer(minimum: int, cmd: str, key: str, v: object) -> object:
    if isinstance(v, bool) or not isinstance(v, int):
        raise _config_error(f"{key} must be an integer, got {v!r}")
    if v < minimum:
        raise _config_error(f"{key} must be at least {minimum}, got {v}")
    return v


def _number(low: float, high: float, cmd: str, key: str, v: object) -> object:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise _config_error(f"{key} must be a number, got {v!r}")
    v = float(v)
    if not math.isfinite(v) or not (low <= v <= high):
        raise _config_error(f"{key} must lie in [{low}, {high}], got {v}")
    return v


def _path(cmd: str, key: str, v: object) -> object:
    if v is not None and not isinstance(v, str):
        raise _config_error(f"{key} must be a path, got {v!r}")
    return v


def _output(cmd: str, key: str, v: object) -> object:
    if not isinstance(v, str) or not v:
        raise _config_error(f"output must be a path or '-', got {v!r}")
    return v


def _listed(cmd: str, key: str, v: object) -> object:
    legal = _COMMANDS[cmd].choices[key]
    if v not in legal:
        raise _config_error(f"{key} for {cmd} must be one of {', '.join(legal)}; got {v!r}")
    return v


def _chirality(cmd: str, key: str, v: object) -> object:
    if v not in CHIRALITY_NAMES:
        raise _config_error(f"chirality must be one of {', '.join(CHIRALITY_NAMES)}, got {v!r}")
    return v


def _site(cmd: str, key: str, v: object) -> object:
    if (isinstance(v, (list, tuple)) and len(v) == 2
            and all(isinstance(c, int) and not isinstance(c, bool) for c in v)):
        return (int(v[0]), int(v[1]))
    raise _config_error(f"site must be an integer pair, got {v!r}")


def _eps_grid(cmd: str, key: str, grid: object) -> object:
    if grid is None:
        raise _config_error("eps_grid is required; pass --eps-grid or set it in the config file")
    if isinstance(grid, (int, float, str, bool)) or not grid:
        raise _config_error(f"eps_grid must be a non-empty list of floats, got {grid!r}")
    for v in grid:
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0.0 < float(v) <= 1.0:
            raise _config_error(f"eps_grid entries must lie in (0, 1], got {v!r}")
    return tuple(float(v) for v in grid)


def _threads(cmd: str, key: str, threads: object) -> object:
    if threads is None:
        raw = os.environ.get("QWRES_THREADS", "").strip()
        if not raw:
            return 1
        try:
            threads = int(raw)
        except ValueError:
            raise _config_error(f"QWRES_THREADS must be an integer, got {raw!r}") from None
    if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
        raise _config_error(f"threads must be a positive integer, got {threads!r}")
    return threads


class _Option(NamedTuple):
    """One option: its help, the check of its merged value, its argparse keywords.

    Its flag is --KEY with '_' written '-'.  The help ends in the command's
    default, or in ``unset`` when that default is None.
    """

    help: str
    check: Callable[[str, str, object], object]
    type: Optional[Callable[[str], object]] = None
    metavar: Optional[str] = None
    choices: Optional[Tuple[str, ...]] = None
    unset: str = ""


# Every option, in the order _validate checks them.  The choices of preset
# and emit are the command's own, in _COMMANDS.
_OPTIONS: Dict[str, _Option] = {
    "output": _Option("output file, '-' for stdout", _output, metavar="PATH"),
    "config": _Option("JSON file with defaults for the flags below", _path, metavar="FILE"),
    "coin_json": _Option("coin field document overriding any preset", _path, metavar="FILE"),
    "preset": _Option("built-in model",
                      lambda cmd, key, v: v if v is None else _listed(cmd, key, v), unset="none"),
    "m0": _Option("corner rectangle width", partial(_integer, 1), int),
    "n0": _Option("corner rectangle height", partial(_integer, 1), int),
    "M0": _Option("box radius of the barrier, shape and random models", partial(_integer, 1), int),
    "t": _Option("number of steps", partial(_integer, 0), int),
    "seed": _Option("seed for the random-elastic model", partial(_integer, 0), int),
    "samples": _Option("boundary samples per loop, at least 64", partial(_integer, 64), int),
    "eps": _Option("perturbation strength for the eps families", partial(_number, 0.0, 1.0), float),
    "s": _Option("loop scale exponent; values above 1/2 warn", partial(_number, 1e-9, 4.0), float),
    "mu0": _Option("loop center phase", partial(_number, -1e6, 1e6), float),
    "strip_depth": _Option("scan Im kappa down to -STRIP_DEPTH",
                           lambda cmd, key, v: v if v is None else _number(1e-6, 64.0, cmd, key, v),
                           float, unset=f"the standard strip, depth {-STRIP_IM_MIN:g}"),
    "eps_grid": _Option("perturbation strengths, required", _eps_grid, _grid_flag, "E1,E2,..."),
    "site": _Option("start site; negative coordinates as -9,1 or --site=-9,1", _site, _site_flag,
                    "I,J"),
    "chirality": _Option("start chirality", _chirality, choices=CHIRALITY_NAMES),
    "emit": _Option("output format", _listed),
    "threads": _Option("worker threads", _threads, int, unset="env QWRES_THREADS, else 1"),
}


# Model preset -> the coin field it builds from a validated configuration.
_MODEL_BUILDERS: Dict[str, Callable[[Dict[str, object]], CoinField]] = {
    "free": lambda cfg: CoinField(0, {}),
    "corner": lambda cfg: corner_permutation_field(cfg["m0"], cfg["n0"]).to_coin_field(),
    **dict.fromkeys(CORNER_PRESETS, lambda cfg: make_corner_family(
        cfg["m0"], cfg["n0"], cfg["eps"], cfg["preset"]).coin),
    "barrier-trivial": lambda cfg: build_nonpenetrable(BarrierSpec(cfg["M0"])).coin,
    "shape-trivial": lambda cfg: make_shape_family(BarrierSpec(cfg["M0"]), cfg["eps"]).coin,
    "random-elastic": lambda cfg: random_permutation_coin(cfg["M0"], cfg["seed"]).to_coin_field(),
}
MODEL_PRESETS = tuple(_MODEL_BUILDERS)
ELASTIC_PRESETS = ("corner", "random-elastic")
_ORBIT_PHASE_TOL = 1e-9  # orbit eigenphases closer than this are one phase


def _model_coin_field(cfg: Dict[str, object]) -> CoinField:
    path = cfg.get("coin_json")
    if path:
        return coin_field_from_json(_load_json_file(path))
    return _MODEL_BUILDERS[cfg["preset"]](cfg)


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


def _cluster_phases(entries: List[Tuple[float, int]]):
    """Group (phase, orbit id) pairs into clusters of equal phase."""
    entries = sorted(entries)
    clusters: List[List[Tuple[float, int]]] = []
    for item in entries:
        if clusters and item[0] - clusters[-1][-1][0] <= _ORBIT_PHASE_TOL:
            clusters[-1].append(item)
        else:
            clusters.append([item])
    if len(clusters) > 1 and (TWO_PI - clusters[-1][-1][0]) + clusters[0][0][0] <= _ORBIT_PHASE_TOL:
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
    fam = DeterminantFamily.of(_model_coin_field(cfg))
    region = None if cfg["strip_depth"] is None else default_strip(-cfg["strip_depth"])
    roots = [
        root_reported_at(r, fam, complex(fold_real(r.kappa.real), r.kappa.imag))
        for r in locate_roots(fam, region=region)
    ]
    roots = sorted(roots, key=lambda r: (r.kappa.real, r.kappa.imag))
    payload = {
        "roots": [_root_obj(r) for r in roots],
        "winding_total": int(sum(r.multiplicity for r in roots)),
    }
    rows: List[Sequence[object]] = [
        ("kappa_re", "kappa_im", "w_re", "w_im", "multiplicity", "kind", "residual")
    ] + [(o["kappa"]["re"], o["kappa"]["im"], o["w"]["re"], o["w"]["im"], o["multiplicity"],
          o["kind"], o["residual"]) for o in payload["roots"]]
    return payload, rows


def _run_barrier_spec(cfg):
    path = cfg.get("coin_json")
    coins = coin_field_from_json(_load_json_file(path)).overrides if path else None
    iu = interior_spectrum(cfg["M0"], coins)
    payload = {
        "N": iu.dimension,
        "eigenphases": [float(p) for p in iu.eigenphases],
        "leakage": float(iu.leakage),
    }
    return payload, None


def _run_barrier_norms(cfg):
    iu = interior_spectrum(cfg["M0"])
    rows: List[Sequence[object]] = [("eps", "s", "max_norm")]
    for eps in cfg["eps_grid"]:
        value = norm_on_loop(iu, cfg["mu0"], eps, s=cfg["s"], samples=cfg["samples"])
        rows.append((eps, cfg["s"], float(value)))
    return {"rows": [dict(zip(rows[0], row)) for row in rows[1:]]}, rows


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


class _Command(NamedTuple):
    """One subcommand: its help, its runner, its own choices and its defaults.

    The defaults name every option it takes besides config and output, and
    are echoed as the resolved configuration.
    """

    help: str
    run: Callable[[Dict[str, object]], tuple]
    choices: Dict[str, Tuple[str, ...]]
    defaults: Dict[str, object]


_COMMON_DEFAULTS: Dict[str, object] = {"config": None, "output": "-"}
_SCAN_HELP = ("track root migration of the {} family over an eps grid; "
              "root_re is reported in the frame of its loop center")

_COMMANDS: Dict[str, _Command] = {
    "evolve": _Command(
        "run a delta state forward and emit the final state", _run_evolve,
        {"preset": MODEL_PRESETS},
        {"preset": "free", "coin_json": None, "m0": 2, "n0": 2, "M0": 1, "eps": 0.0,
         "seed": 0, "site": (0, 0), "chirality": "left", "t": 1}),
    "trace": _Command(
        "follow one classical trajectory of an elastic field", _run_trace,
        {"preset": ELASTIC_PRESETS},
        {"preset": "corner", "m0": 2, "n0": 2, "M0": 2, "seed": 0, "site": (0, 0),
         "chirality": "left"}),
    "elastic-spec": _Command(
        "classify all closed orbits and quantize their spectrum", _run_elastic_spec,
        {"preset": ELASTIC_PRESETS},
        {"preset": "corner", "m0": 2, "n0": 2, "M0": 2, "seed": 0}),
    "resonances": _Command(
        "locate determinant zeros in the spectral strip", _run_resonances,
        {"preset": MODEL_PRESETS, "emit": ("json", "csv")},
        {"preset": None, "coin_json": None, "m0": 2, "n0": 2, "M0": 1, "eps": 0.0,
         "seed": 0, "strip_depth": None, "emit": "json"}),
    "barrier-spec": _Command(
        "interior spectrum of a non-penetrable barrier", _run_barrier_spec,
        {"preset": ("barrier-trivial",)},
        {"preset": "barrier-trivial", "coin_json": None, "M0": 1}),
    "barrier-norms": _Command(
        "interior resolvent norm on shrinking loops", _run_barrier_norms,
        {"emit": ("csv", "json")},
        {"M0": 1, "mu0": 0.0, "eps_grid": None, "s": 0.5, "samples": 64, "emit": "csv"}),
    "corner-scan": _Command(
        _SCAN_HELP.format("corner"),
        lambda cfg: _scan_output(make_corner_family(
            cfg["m0"], cfg["n0"], cfg["eps_grid"][0], cfg["preset"]), cfg),
        {"preset": CORNER_PRESETS, "emit": ("csv", "json")},
        {"preset": "one-corner", "m0": 2, "n0": 2, "eps_grid": None, "s": 0.5,
         "threads": None, "emit": "csv"}),
    "shape-scan": _Command(
        _SCAN_HELP.format("shape"),
        lambda cfg: _scan_output(
            make_shape_family(BarrierSpec(cfg["M0"]), cfg["eps_grid"][0]), cfg),
        {"preset": ("shape-trivial",), "emit": ("csv", "json")},
        {"preset": "shape-trivial", "M0": 1, "eps_grid": None, "s": 0.5, "threads": None,
         "emit": "csv"}),
}


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: nothing here reads the environment, and
    # parse_args leaves the parser as it was.
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
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, description=command.help)
        for key, default in {**_COMMON_DEFAULTS, **command.defaults}.items():
            option = _OPTIONS[key]
            if default is None:
                shown = option.unset
            else:
                shown = ",".join(map(str, default)) if isinstance(default, tuple) else str(default)
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=argparse.SUPPRESS,
                           type=option.type, metavar=option.metavar,
                           choices=command.choices.get(key, option.choices),
                           help=f"{option.help} (default: {shown})" if shown else option.help)
    return parser


_VALUE_FLAGS = frozenset("--" + key.replace("_", "-") for key in _OPTIONS)


def _attach_dash_values(argv: Sequence[str]) -> List[str]:
    """argv with each ``--flag -9,1`` written ``--flag=-9,1``.

    argparse takes a value that starts with '-' for an option unless it is
    a plain negative number such as -9 or -0.5, so ``--site -9,1`` and
    ``--mu0 -1e-3`` would fail with 'expected one argument'.  No flag starts
    with a minus sign and a digit or a point.  As argparse does, a flag may
    be abbreviated to a prefix of more than the two dashes.
    """
    out: List[str] = []
    for arg in argv:
        flag = out[-1] if out else ""
        if (len(flag) > 2 and any(name.startswith(flag) for name in _VALUE_FLAGS)
                and re.match(r"-[0-9.]", arg)):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _validate(cfg: Dict[str, object]) -> None:
    cmd = str(cfg["command"])
    for key, option in _OPTIONS.items():
        if key in cfg:
            cfg[key] = option.check(cmd, key, cfg[key])
    # Rules that span options; the s > 1/2 warning is in run_cli.
    # A command that takes a preset runs the model it names, or a coin document.
    if "preset" in cfg and cfg["preset"] is None and not cfg.get("coin_json"):
        sources = "--preset or --coin-json" if "coin_json" in cfg else "--preset"
        raise _config_error(f"no model source: give {sources}")
    if cfg.get("preset") == "corner" and cfg.get("eps", 0.0) != 0.0 and not cfg.get("coin_json"):
        raise _config_error(
            "the corner preset is the closed model; use one-corner, two-corner "
            "or phase-corner for eps > 0"
        )


def _resolve_config(ns: argparse.Namespace) -> Dict[str, object]:
    cmd = ns.command
    explicit = {k: v for k, v in vars(ns).items() if k != "command"}
    merged: Dict[str, object] = {**_COMMON_DEFAULTS, **_COMMANDS[cmd].defaults}
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
    ns = parser.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        cfg = _resolve_config(ns)
    except InputError as exc:
        sys.stderr.write(_json_text({"error": {"reason": str(exc), "type": exc.kind}}))
        return exc.code
    if cfg.get("s", 0.0) > 0.5:
        sys.stderr.write(
            f"warning: s = {cfg['s']} is outside the s <= 1/2 scaling regime; "
            "treat the output as experimental\n"
        )
    started = time.perf_counter()
    try:
        payload, rows = _COMMANDS[cfg["command"]].run(cfg)
    except InputError as exc:
        sys.stderr.write(_json_text({"error": {"reason": str(exc), "type": exc.kind}}))
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
