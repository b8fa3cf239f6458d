#!/usr/bin/env python3
"""Run one seeded qwres benchmark workload and print its metrics.

    python3 qwbench/run.py --workload strip-roots --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the workload's case set runs with tracing off, again
and again while another pass fits in ``--seconds``, and the end-to-end
metrics are printed.  With ``--trace 1`` the case set runs once untraced
and once traced, the three-path determinant evaluation cross-check and
the deep-zero probe (a known program failure) run, the per-layer metrics
are printed and the spans are written to ``qwbench/out/``.  Every case
output is checked against an independent reference outside the timed
interval.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it start with ``#`` and record the environment and each case.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("strip-roots", "winding-sweep", "migration")
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Set-up is measured in this process and in this many fresh ones, half of
# them before the timed passes and half after, so that the median samples
# the machine at more than one moment.
SETUP_CHILDREN = 12
# Fixed grid of the evaluation cross-check: one-corner 2x2 at eps = 0.2.
EVAL_GRID = (48, 12)
EVAL_REPEATS = 3
EVAL_DRIFT_TOL = 1e-10


def pin_environment() -> None:
    """One BLAS/OpenMP thread, and the CLI's default thread count."""
    if "numpy" in sys.modules:
        raise RuntimeError("thread variables must be set before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("QWRES_THREADS", None)


def setup(workload: str, seed: int, workdir: str):
    """Import numpy, scipy and qwres and build the seeded case set."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import qwres  # noqa: F401
    import workloads

    cases = workloads.WORKLOADS[workload](seed, workdir)
    return cases, time.perf_counter() - start


def run_case(case, tracer=None):
    """(seconds, output, error) of one case; a raising case is an error."""
    start = time.perf_counter()
    try:
        out = case.run() if tracer is None else tracer.run_case(case.label, case.run)
        error = None
    except Exception as exc:  # a failing case is counted, the run goes on
        out, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, out, error


def check_case(case, out, error):
    """Why the case missed its reference, or None if it passed."""
    if error is None:
        try:
            case.check(out)
        except Exception as exc:  # CheckFailed, or a malformed output
            error = f"{type(exc).__name__}: {exc}"
    return error


def run_pass(cases, tracer=None):
    """Run every case once; returns (wall time, per-case times, outputs)."""
    start = time.perf_counter()
    results = [run_case(case, tracer) for case in cases]
    return (time.perf_counter() - start, [r[0] for r in results],
            [r[1:] for r in results])


def check_pass(cases, outputs):
    """(label, reason) for every case whose output misses its reference."""
    reasons = [(case.label, check_case(case, *result)) for case, result in zip(cases, outputs)]
    return [(label, reason) for label, reason in reasons if reason is not None]


def timed_pass(cases):
    """Run and check every case once, keeping one output alive at a time.

    Returns (wall time, per-case times, failures).
    """
    start = time.perf_counter()
    times, failures = [], []
    for case in cases:
        seconds, out, error = run_case(case)
        reason = check_case(case, out, error)
        del out  # else it stays alive while the next case runs
        times.append(seconds)
        if reason is not None:
            failures.append((case.label, reason))
    return time.perf_counter() - start, times, failures


def setup_in_children(workload: str, seed: int, count: int):
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def eval_crosscheck():
    """Tabulate |D| on a fixed grid by three paths, as scripts/bench_determinant.py.

    rebuild: det_value per point, a new DeterminantFamily each time; loop:
    det_dlog point by point; batch: one logdet call.  Returns the median
    points per second of each path and the largest log|D| disagreement.
    """
    import numpy as np

    from qwres import DeterminantFamily, det_value, make_corner_family

    coin = make_corner_family(2, 2, 0.2, "one-corner").coin
    fam = DeterminantFamily(coin)
    res = np.linspace(0.0, 2.0 * np.pi, EVAL_GRID[0], endpoint=False)
    ims = np.linspace(-1.5, -1e-3, EVAL_GRID[1])
    grid = (res[:, None] + 1j * ims[None, :]).ravel()
    paths = {
        "logdet": lambda: fam.logdet(grid)[0],
        "det_dlog": lambda: np.log(np.abs([fam.det_dlog(z)[0] for z in grid])),
        "det_value": lambda: np.log(np.abs([det_value(coin, z)[0] for z in grid])),
    }
    rates, values = {}, {}
    for name, path in paths.items():
        times = []
        for _ in range(EVAL_REPEATS):
            start = time.perf_counter()
            values[name] = path()
            times.append(time.perf_counter() - start)
        rates[name] = grid.size / statistics.median(times)
    drift = max(float(np.max(np.abs(values[name] - values["logdet"])))
                for name in ("det_dlog", "det_value"))
    return rates, drift


def layer_metrics(spans, names):
    """Per-layer counts and times from the spans of one traced pass."""
    import numpy as np

    import tracing

    code = {name: i for i, name in enumerate(names)}
    durations = spans["ends"] - spans["starts"]
    own = tracing.self_times(spans)

    def mask(layer):
        return spans["names"] == code.get(layer, -1)

    metrics = {}
    for layer, *_ in tracing.LAYERS:
        metrics[f"{layer}.calls"] = (int(mask(layer).sum()), "count")
    for name, layer, reduce in (
        ("spectral.det_dlog.nonfinite", "spectral.det_dlog", np.sum),
        ("spectral.locate_roots.roots", "spectral.locate_roots", np.sum),
        ("spectral.logdet.points", "spectral.logdet", np.sum),
        ("spectral.winding_number.nonzero", "spectral.winding_number", np.sum),
        ("spectral.family_build.m_max", "spectral.family_build", np.max),
        ("spectral.ResolventPairing.values.points", "spectral.ResolventPairing.values", np.sum),
        ("shape.migration_scan.loops", "shape.migration_scan", np.sum),
        ("barrier.interior_spectrum.dim_max", "barrier.interior_spectrum", np.max),
        ("barrier.norm_on_loop.samples", "barrier.norm_on_loop", np.sum),
        ("lattice.evolve.steps", "lattice.evolve", np.sum),
    ):
        values = spans["values"][mask(layer)]
        metrics[name] = (int(reduce(values)) if values.size else 0, "count")
    metrics["spectral.winding_number.failures"] = (
        int(spans["raised"][mask("spectral.winding_number")].sum()), "count")

    dlog = mask("spectral.det_dlog")
    roots = metrics["spectral.locate_roots.roots"][0]
    in_scan = int((dlog & tracing.under(spans, code.get("spectral.locate_roots", -1))).sum())
    metrics["spectral.locate_roots.det_dlog_per_root"] = (in_scan / roots if roots else 0.0, "1")

    dlog_s = float(durations[dlog].sum())
    metrics["spectral.det_dlog.s"] = (dlog_s, "s")
    metrics["spectral.det_dlog.us_per_call"] = (1e6 * dlog_s / max(1, int(dlog.sum())), "us")
    metrics["spectral.family_build.s"] = (float(durations[mask("spectral.family_build")].sum()), "s")
    metrics["spectral.winding_number.self_s"] = (float(own[mask("spectral.winding_number")].sum()), "s")
    metrics["cli.run_cli.self_s"] = (float(own[mask("cli.run_cli")].sum()), "s")
    return metrics


def git_commit():
    """The checked-out commit, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(workload: str, seed: int, seconds: int, trace: int):
    import numpy as np
    import scipy
    import workloads

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "commit": git_commit(),
    }


def report_failures(failures) -> None:
    for label, reason in failures:
        print(f"# FAIL {label}: {reason}")
        print(f"FAIL {label}: {reason}", file=sys.stderr)


def timed(cases, args, setup_s):
    passes, walls, failures = [], [], []
    worst = 0  # most failures in one pass
    setups = [setup_s] + setup_in_children(args.workload, args.seed, SETUP_CHILDREN // 2)
    while not passes or sum(passes) + max(passes) <= args.seconds:
        wall, times, failed = timed_pass(cases)
        passes.append(wall)
        walls.append(times)
        failures.extend(failed)
        worst = max(worst, len(failed))
    attempted = len(passes) * len(cases)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += setup_in_children(args.workload, args.seed, SETUP_CHILDREN - SETUP_CHILDREN // 2)
    for case, times in zip(cases, zip(*walls)):
        print(f"# case median {statistics.median(times):10.4f} s  {case.label}")
    print(f"# {len(passes)} passes of {len(cases)} cases, wall s {passes}; "
          f"setup samples {setups}")
    report_failures(failures)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "solve_s": (statistics.median(passes), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "pass_ratio": (1.0 - worst / len(cases), "1"),
    }
    # Not gated: with a handful of cases lasting seconds each, the median case
    # moves by 20-35% between runs on a shared 2-vCPU machine (README.md).
    case_times = [t for times in walls for t in times]
    print(f"# case_p50_s {statistics.median(case_times)!r} s over {len(case_times)} cases; "
          f"fail_ratio {len(failures) / attempted} (unit 1)")
    return attempted, failures, metrics


def traced(cases, args, workdir):
    import tracing
    import workloads

    untraced_solve, _, plain = run_pass(cases)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced_solve, times, outputs = run_pass(cases, tracer)
    failures = check_pass(cases, plain) + check_pass(cases, outputs)
    attempted = 2 * len(cases) + 1
    rates, drift = eval_crosscheck()
    print(f"# eval cross-check: max |log|D|| drift between paths {drift:.2e}")
    if not drift <= EVAL_DRIFT_TOL:
        failures.append(("eval cross-check", f"log|D| drift {drift:.2e} > {EVAL_DRIFT_TOL:.0e}"))
    for case, t in zip(cases, times):
        print(f"# traced case {t:10.4f} s  {case.label}")
    # Known program failure, kept in view but outside the workload's cases:
    # a refusal is counted in a per-layer metric, a wrong answer as a failure.
    refused = 0
    try:
        refused = int(workloads.deep_zero_probe(workdir)())
    except Exception as exc:  # CheckFailed, or a malformed output
        failures.append(("deep-zero probe", f"{type(exc).__name__}: {exc}"))
    print(f"# deep-zero probe: full-strip scan of random r1 field "
          f"{workloads.DEEP_ZERO_FIELD_SEED} {'refused (NumericalFailure)' if refused else 'answered'}")
    report_failures(failures)

    spans = tracer.spans()
    metrics = layer_metrics(spans, tracer.names)
    for name, rate in rates.items():
        metrics[f"spectral.eval.{name}_pts_per_s"] = (rate, "1/s")
    metrics["trace.overhead"] = (traced_solve / untraced_solve, "1")
    metrics["trace.spans"] = (len(spans["ids"]), "count")
    metrics["probe.deep_zero.refused"] = (refused, "count")
    path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tracing.write_spans(path, spans, tracer.names)
    print(f"# solve_s untraced {untraced_solve:.4f} traced {traced_solve:.4f}; "
          f"{len(spans['ids'])} spans written to {path.relative_to(ROOT)}")
    return attempted, failures, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25,
                        help="time budget of the timed passes (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only set up and print the set-up seconds (used for repeats)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qwres" / "__init__.py").is_file():
        print(f"error: no qwres sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_environment()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        cases, setup_s = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(repr(setup_s))
            return 0
        print("# env " + json.dumps(environment(args.workload, args.seed, args.seconds, args.trace)))
        if args.trace:
            attempted, failures, metrics = traced(cases, args, workdir)
        else:
            attempted, failures, metrics = timed(cases, args, setup_s)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
