"""The benchmark's tracer on a CLI-driven strip case, and its random-field reference.

Run with ``PYTHONPATH=src python -m pytest qwbench``.
"""

import math

import pytest

import run
import tracing
import workloads
from workloads import Cli

from qwres import KappaRect, cli, random_coin_field, spectral, winding_number

STRIP_CASE = ["resonances", "--preset", "two-corner", "--m0", "1", "--n0", "1", "--eps", "0.3"]


def _traced_strip_case(workdir) -> tracing.Tracer:
    case = Cli(str(workdir)).command(STRIP_CASE)
    tracer = tracing.Tracer()
    with tracer.installed():
        rc, _, _ = tracer.run_case("strip", case)
    assert rc == 0
    return tracer


def _counts(tracer: tracing.Tracer) -> dict:
    metrics = run.layer_metrics(tracer.spans(), tracer.names)
    return {name: value for name, (value, unit) in metrics.items() if unit == "count"}


def test_cli_strip_case_records_scan_spans(tmp_path):
    tracer = _traced_strip_case(tmp_path)
    spans = tracer.spans()
    seen = {tracer.names[code] for code in set(spans["names"].tolist())}
    assert {"cli.run_cli", "spectral.locate_roots", "spectral.winding_number",
            "spectral.det_dlog"} <= seen
    # Every span but the case's own hangs below the case span (id 1).
    assert spans["parents"][0] == 0 and all(spans["parents"][1:] >= 1)
    assert not hasattr(cli.run_cli, "__wrapped__")
    assert not hasattr(spectral.DeterminantFamily.det_dlog, "__wrapped__")


def test_counts_repeat_exactly_across_traced_runs(tmp_path):
    first = _counts(_traced_strip_case(tmp_path))
    second = _counts(_traced_strip_case(tmp_path))
    assert first["spectral.det_dlog.calls"] > 0
    assert first == second


@pytest.mark.parametrize("field_seed,depth", [
    (workloads.DEEP_ZERO_FIELD_SEED, workloads.STRIP_DEPTH),
    (workloads.RANDOM_FIELD_SEED, workloads.RANDOM_FIELD_DEPTH),
])
def test_companion_reference_counts_the_strip_zeros(field_seed, depth):
    """The random-field reference finds as many zeros as the argument principle."""
    coin = random_coin_field(1, field_seed)
    strip = KappaRect(0.0, 2.0 * math.pi, -depth, workloads.STRIP_IM_MAX)
    assert len(workloads.companion_kappas(coin, depth)) == winding_number(coin, strip)
