"""End-to-end tests of the command-line front end.

Each test drives run_cli directly with an argv list and inspects the
captured output, which keeps the suite fast; one subprocess test checks
that module execution works outside the test harness too.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qwres import cli
from qwres.cli import MODEL_PRESETS, run_cli
from qwres.lattice import CoinField, coin_field_to_json, random_coin_field
from qwres.shape import elastic_corner_coins, make_corner_family, make_shape_family
from qwres.barrier import BarrierSpec, build_nonpenetrable
from qwres.spectral import det_value

TWO_PI = 2.0 * math.pi


def run_json(capsys, argv):
    code = run_cli(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def run_csv(capsys, argv):
    code = run_cli(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    lines = captured.out.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestExitCodes:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["resonances", "--no-such-flag"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_missing_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli([])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_malformed_config_json_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "conf.json"
        bad.write_text("{not json", encoding="utf-8")
        assert run_cli(["resonances", "--preset", "free", "--config", str(bad)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "JsonError"

    @pytest.mark.parametrize("flag", ["--config", "--coin-json"])
    def test_config_file_not_utf8_exits_3(self, tmp_path, capsys, flag):
        bad = tmp_path / "doc.json"
        bad.write_bytes(bytes([0xFF, 0xFE, 0x7B, 0x7D]))
        assert run_cli(["barrier-spec", flag, str(bad)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "JsonError"
        assert "UTF-8" in err["reason"]

    def test_missing_config_file_exits_3(self, capsys):
        assert run_cli(["resonances", "--preset", "free", "--config", "/no/such/file.json"]) == 3
        capsys.readouterr()

    def test_unknown_config_key_exits_4(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
        assert run_cli(["resonances", "--preset", "free", "--config", str(conf)]) == 4
        err = json.loads(capsys.readouterr().err)
        assert "bogus" in err["error"]["reason"]

    def test_m0_zero_exits_4(self, capsys):
        assert run_cli(["resonances", "--preset", "corner", "--m0", "0"]) == 4
        capsys.readouterr()

    def test_eps_out_of_range_exits_4(self, capsys):
        assert run_cli(["resonances", "--preset", "one-corner", "--eps", "1.5"]) == 4
        capsys.readouterr()

    def test_corner_preset_rejects_positive_eps(self, capsys):
        assert run_cli(["resonances", "--preset", "corner", "--eps", "0.2"]) == 4
        err = json.loads(capsys.readouterr().err)
        assert "one-corner" in err["error"]["reason"]

    def test_barrier_samples_below_64_exit_4(self, capsys):
        # norm_on_loop samples at least 64 points; a smaller count would be ignored.
        assert run_cli(["barrier-norms", "--eps-grid", "0.16", "--samples", "16"]) == 4
        capsys.readouterr()

    def test_resonances_without_model_exits_4(self, capsys):
        assert run_cli(["resonances"]) == 4
        capsys.readouterr()

    def test_config_command_mismatch_exits_4(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"command": "trace"}), encoding="utf-8")
        assert run_cli(["resonances", "--preset", "free", "--config", str(conf)]) == 4
        capsys.readouterr()

    def test_numerical_failure_exits_1_with_diagnostic(self, capsys):
        # mu0 = 0.3 is no interior eigenphase, but the loop swallows one.
        code = run_cli(["barrier-norms", "--eps-grid", "0.16", "--mu0", "0.3"])
        captured = capsys.readouterr()
        assert code == 1
        envelope = json.loads(captured.out)
        assert envelope["error"]["type"] == "NumericalFailure"
        assert "eigenphase" in envelope["error"]["reason"]
        assert envelope["config"]["mu0"] == 0.3

    def test_success_exits_0(self, capsys):
        assert run_cli(["resonances", "--preset", "free"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["resonances", "--preset", "corner", "--m0", "1", "--n0", "1"],
        ["barrier-norms", "--eps-grid", "0.16", "--mu0", "0.3"],  # a numerical failure
    ], ids=["success", "numerical-failure"])
    def test_output_path_that_cannot_be_written_exits_4(self, tmp_path, capsys, argv):
        target = tmp_path / "missing" / "out.json"
        assert run_cli(argv + ["--output", str(target)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": {
            "reason": f"cannot write {target}: No such file or directory", "type": "ConfigError"}}
        assert not target.parent.exists()


# One bad value per option, each given through --config: (command, extra
# flags that make the rest of the run valid, option, bad value, expected
# words in the reason).
BAD_CONFIG_VALUES = [
    ("resonances", ["--preset", "free"], "m0", 1.5, "m0"),
    ("resonances", ["--preset", "free"], "m0", True, "m0"),
    ("resonances", ["--preset", "free"], "eps", "x", "eps"),
    ("resonances", ["--preset", "free"], "strip_depth", 100, "strip_depth"),
    ("resonances", [], "preset", "nope", "preset"),
    ("resonances", ["--preset", "free"], "emit", "xml", "emit"),
    ("resonances", ["--preset", "free"], "emit", None, "emit"),
    ("barrier-spec", [], "output", "", "output"),
    ("evolve", [], "coin_json", 3, "coin_json"),
    ("evolve", [], "site", [1], "site"),
    ("evolve", [], "chirality", "sideways", "chirality"),
    ("evolve", [], "t", -1, "t must"),
    ("elastic-spec", [], "seed", -1, "seed"),
    ("barrier-norms", [], "eps_grid", 0.1, "eps_grid"),
    ("barrier-norms", [], "eps_grid", [0.1, 2], "eps_grid"),
    ("barrier-norms", [], "eps_grid", None, "eps_grid"),
    ("barrier-norms", ["--eps-grid", "0.16"], "mu0", 1e7, "mu0"),
    ("corner-scan", ["--eps-grid", "0.1"], "threads", 0, "threads"),
    ("corner-scan", ["--eps-grid", "0.1"], "s", 0, "s must"),
    ("evolve", [], "preset", None, "no model source"),
    ("trace", [], "preset", None, "no model source"),
    ("elastic-spec", [], "preset", None, "no model source"),
    ("barrier-spec", [], "preset", None, "no model source"),
    ("corner-scan", ["--eps-grid", "0.1"], "preset", None, "no model source"),
    ("shape-scan", ["--eps-grid", "0.1"], "preset", None, "no model source"),
]


@pytest.mark.parametrize(
    "command, extra, key, value, words", BAD_CONFIG_VALUES,
    ids=[f"{c[0]}-{c[2]}={json.dumps(c[3])}" for c in BAD_CONFIG_VALUES])
def test_bad_config_value_exits_4_naming_the_option(tmp_path, capsys, command, extra,
                                                    key, value, words):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({key: value}), encoding="utf-8")
    assert run_cli([command, "--config", str(conf)] + extra) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["type"] == "ConfigError"
    assert words in err["reason"]


def test_config_file_holding_a_list_exits_4(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps([1, 2]), encoding="utf-8")
    assert run_cli(["barrier-spec", "--config", str(conf)]) == 4
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError"
    assert "JSON object" in err["reason"]


# Every flag each subcommand accepts; each is also a config key, with '-'
# replaced by '_'.
COMMAND_FLAGS = {
    "evolve": ["--preset", "--coin-json", "--m0", "--n0", "--M0", "--eps", "--seed",
               "--site", "--chirality", "--t"],
    "trace": ["--preset", "--m0", "--n0", "--M0", "--seed", "--site", "--chirality"],
    "elastic-spec": ["--preset", "--m0", "--n0", "--M0", "--seed"],
    "resonances": ["--preset", "--coin-json", "--m0", "--n0", "--M0", "--eps", "--seed",
                   "--strip-depth", "--emit"],
    "barrier-spec": ["--preset", "--coin-json", "--M0"],
    "barrier-norms": ["--M0", "--mu0", "--eps-grid", "--s", "--samples", "--emit"],
    "corner-scan": ["--preset", "--m0", "--n0", "--eps-grid", "--s", "--threads", "--emit"],
    "shape-scan": ["--preset", "--M0", "--eps-grid", "--s", "--threads", "--emit"],
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_subcommand_help_names_every_flag(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ["--config", "--output"] + COMMAND_FLAGS[command]:
        assert flag + " " in text, flag


def test_help_shows_defaults_and_choices(capsys):
    with pytest.raises(SystemExit):
        run_cli(["corner-scan", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for shown in ("{one-corner,two-corner,phase-corner}", "(default: one-corner)",
                  "{csv,json}", "(default: csv)", "(default: 0.5)", "(default: 2)",
                  "(default: env QWRES_THREADS, else 1)", "(default: -)"):
        assert shown in text, shown
    with pytest.raises(SystemExit):
        run_cli(["evolve", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for shown in ("(default: free)", "(default: 0,0)", "(default: left)", "(default: 0.0)",
                  "{left,right,down,up}", "(default: 1)"):
        assert shown in text, shown


@pytest.mark.parametrize("argv", [["evolve", "--site", "1"], ["evolve", "--site", "a,b"],
                                  ["corner-scan", "--eps-grid", "x"],
                                  ["corner-scan", "--eps-grid", ","]])
def test_malformed_flag_value_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert f"argument {argv[1]}:" in capsys.readouterr().err


@pytest.mark.parametrize("command, rest", [("evolve", ["--t", "3"]),
                                           ("trace", ["--preset", "corner"])])
def test_negative_site_may_follow_its_flag(capsys, command, rest):
    spaced = run_json(capsys, [command, "--site", "-9,1"] + rest)
    joined = run_json(capsys, [command, "--site=-9,1"] + rest)
    abbreviated = run_json(capsys, [command, "--sit", "-9,1"] + rest)
    assert spaced == joined == abbreviated
    assert spaced["config"]["site"] == [-9, 1]


def test_negative_number_values_may_follow_their_flags(capsys):
    # -1e-3 is no plain negative number to argparse.  Another eigenphase lies
    # in the loop around it, so both runs end in the same failure envelope.
    outs = []
    for flag in (["--mu0", "-1e-3"], ["--mu0=-1e-3"]):
        assert run_cli(["barrier-norms", "--eps-grid", "0.16"] + flag) == 1
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["config"]["mu0"] == -1e-3


@pytest.mark.parametrize("argv, message", [
    (["evolve", "--site", "--t", "3"], "argument --site: expected one argument"),
    (["evolve", "--site", "-9,x"], "argument --site: expected integer pair, got '-9,x'"),
    (["evolve", "--t", "3", "-9,1"], "unrecognized arguments: -9,1"),
])
def test_dash_values_keep_their_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("preset", MODEL_PRESETS)
def test_every_model_preset_evolves_through_the_cli(capsys, preset):
    doc = run_json(capsys, ["evolve", "--preset", preset, "--t", "1"])
    assert doc["config"]["preset"] == preset
    assert doc["payload"]["norm"] == pytest.approx(1.0, abs=1e-12)


def test_barrier_spec_reads_a_barrier_coin_document(tmp_path, capsys):
    doc_path = tmp_path / "coin.json"
    coin = build_nonpenetrable(BarrierSpec(1)).coin
    doc_path.write_text(json.dumps(coin_field_to_json(coin)), encoding="utf-8")
    doc = run_json(capsys, ["barrier-spec", "--coin-json", str(doc_path)])
    assert doc["payload"]["N"] == 24


class TestConfigMerging:
    def test_file_supplies_values_and_flags_override(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"m0": 1, "n0": 1}), encoding="utf-8")
        doc = run_json(capsys, ["trace", "--config", str(conf)])
        assert doc["payload"]["orbit"]["period"] == 4
        doc = run_json(capsys, ["trace", "--config", str(conf), "--m0", "2"])
        assert doc["config"]["m0"] == 2
        assert doc["config"]["n0"] == 1
        assert doc["payload"]["orbit"]["period"] == 6

    def test_envelope_echoes_resolved_config(self, capsys):
        doc = run_json(capsys, ["elastic-spec", "--m0", "1", "--n0", "2"])
        cfg = doc["config"]
        assert cfg["command"] == "elastic-spec"
        assert cfg["preset"] == "corner"
        assert (cfg["m0"], cfg["n0"]) == (1, 2)
        assert doc["version"]

    def test_threads_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("QWRES_THREADS", "3")
        doc = run_json(capsys, ["corner-scan", "--m0", "1", "--n0", "1",
                                "--eps-grid", "0.1", "--emit", "json"])
        assert doc["config"]["threads"] == 3

    def test_bad_threads_env_exits_4(self, capsys, monkeypatch):
        monkeypatch.setenv("QWRES_THREADS", "many")
        assert run_cli(["corner-scan", "--m0", "1", "--n0", "1",
                        "--eps-grid", "0.1"]) == 4
        capsys.readouterr()

    def test_output_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        assert run_cli(["barrier-spec", "--output", str(target)]) == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(target.read_text(encoding="utf-8"))
        assert doc["payload"]["N"] == 24


class TestDeterminism:
    def test_json_output_is_byte_identical(self, capsys):
        argv = ["resonances", "--preset", "corner", "--m0", "1", "--n0", "1"]
        assert run_cli(argv) == 0
        first = capsys.readouterr().out
        assert run_cli(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_csv_output_is_byte_identical_across_thread_counts(self, capsys):
        base = ["corner-scan", "--m0", "1", "--n0", "1", "--eps-grid", "0.1,0.2"]
        assert run_cli(base + ["--threads", "1"]) == 0
        serial = capsys.readouterr().out
        assert run_cli(base + ["--threads", "2"]) == 0
        threaded = capsys.readouterr().out
        assert serial == threaded

    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        # A usage error, an environment read and two runs share one parser.
        cli._build_parser.cache_clear()
        with pytest.raises(SystemExit):
            run_cli(["resonances", "--no-such-flag"])
        monkeypatch.setenv("QWRES_THREADS", "2")
        argv = ["corner-scan", "--m0", "1", "--n0", "1", "--eps-grid", "0.1", "--emit", "json"]
        assert run_cli(argv) == 0
        threaded = capsys.readouterr().out
        monkeypatch.delenv("QWRES_THREADS")
        assert run_cli(argv) == 0
        assert json.loads(capsys.readouterr().out)["config"]["threads"] == 1
        assert json.loads(threaded)["config"]["threads"] == 2
        assert cli._build_parser.cache_info().misses == 1

    def test_timing_goes_to_stderr_not_stdout(self, capsys):
        assert run_cli(["barrier-spec"]) == 0
        captured = capsys.readouterr()
        assert "s\n" in captured.err
        assert " s" not in captured.out


class TestEvolveCommand:
    def test_free_walk_translates_delta(self, capsys):
        doc = run_json(capsys, ["evolve", "--preset", "free", "--t", "5",
                                "--chirality", "right"])
        payload = doc["payload"]
        assert payload["support"] == 1
        assert payload["state"][0]["x"] == [5, 0]
        assert payload["norm"] == pytest.approx(1.0, abs=1e-12)

    def test_corner_model_preserves_norm(self, capsys):
        doc = run_json(capsys, ["evolve", "--preset", "corner", "--m0", "1",
                                "--n0", "1", "--t", "64"])
        assert doc["payload"]["norm"] == pytest.approx(1.0, abs=1e-10)

    def test_coin_json_model_source(self, tmp_path, capsys):
        doc_path = tmp_path / "coin.json"
        doc_path.write_text(json.dumps(coin_field_to_json(random_coin_field(1, seed=3))),
                            encoding="utf-8")
        doc = run_json(capsys, ["evolve", "--coin-json", str(doc_path), "--t", "7"])
        assert doc["payload"]["norm"] == pytest.approx(1.0, abs=1e-10)

    def test_coin_json_with_bad_schema_exits_4(self, tmp_path, capsys):
        doc_path = tmp_path / "coin.json"
        doc_path.write_text(json.dumps({"M0": 1, "coins": [], "extra": True}),
                            encoding="utf-8")
        assert run_cli(["evolve", "--coin-json", str(doc_path)]) == 4
        capsys.readouterr()

    def test_coin_json_with_a_malformed_cell_exits_4(self, tmp_path, capsys):
        doc = coin_field_to_json(CoinField(1, {(0, 0): np.eye(4)}))
        doc["coins"][0]["m"][0][0] = [1.0, 0.0, 7.0]
        doc_path = tmp_path / "coin.json"
        doc_path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(["evolve", "--t", "2", "--coin-json", str(doc_path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "ConfigError"
        assert "[1.0, 0.0, 7.0] is not a pair of numbers" in err["reason"]

    @pytest.mark.parametrize("command", [["evolve", "--t", "2"], ["resonances"]])
    def test_coin_json_with_a_nan_entry_exits_4(self, tmp_path, capsys, command):
        doc = coin_field_to_json(CoinField(1, {(0, 0): np.eye(4)}))
        doc["coins"][0]["m"][0][0] = [float("nan"), 0.0]
        doc_path = tmp_path / "coin.json"
        doc_path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(command + ["--coin-json", str(doc_path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "ConfigError"
        assert "not unitary" in err["reason"]


class TestTraceAndElasticSpec:
    def test_trace_boundary_start_closes(self, capsys):
        doc = run_json(capsys, ["trace", "--m0", "2", "--n0", "2"])
        payload = doc["payload"]
        assert payload["closed"] is True
        orbit = payload["orbit"]
        assert orbit["period"] == 8
        assert orbit["total_phase"] == 0.0
        assert len(orbit["sites"]) == 8
        assert payload["spectrum"] == pytest.approx([k * math.pi / 4 for k in range(8)])

    def test_trace_far_start_escapes(self, capsys):
        doc = run_json(capsys, ["trace", "--site", "5,5", "--chirality", "left"])
        payload = doc["payload"]
        assert payload["closed"] is False
        assert payload["steps"] == 0
        assert payload["exit"]["chirality"] == "left"

    def test_corner_spectrum_has_two_orbits_per_phase(self, capsys):
        doc = run_json(capsys, ["elastic-spec", "--m0", "2", "--n0", "2"])
        payload = doc["payload"]
        assert len(payload["orbits"]) == 2
        assert payload["non_trapping"] is False
        spectrum = payload["spectrum"]
        assert len(spectrum) == 8
        for k, item in enumerate(spectrum):
            assert item["phase"] == pytest.approx(k * math.pi / 4, abs=1e-12)
            assert item["multiplicity"] == 2
            assert item["orbits"] == [0, 1]

    def test_random_elastic_is_seed_stable(self, capsys):
        argv = ["elastic-spec", "--preset", "random-elastic", "--M0", "1",
                "--seed", "11"]
        first = run_json(capsys, argv)
        second = run_json(capsys, argv)
        assert first == second


class TestResonancesCommand:
    def test_free_preset_has_no_roots(self, capsys):
        doc = run_json(capsys, ["resonances", "--preset", "free"])
        assert doc["payload"]["roots"] == []
        assert doc["payload"]["winding_total"] == 0

    def test_closed_corner_eigenvalues(self, capsys):
        doc = run_json(capsys, ["resonances", "--preset", "corner",
                                "--m0", "1", "--n0", "1", "--eps", "0"])
        roots = doc["payload"]["roots"]
        assert doc["payload"]["winding_total"] == 8
        assert [r["multiplicity"] for r in roots] == [2, 2, 2, 2]
        assert all(r["kind"] == "eigenvalue" for r in roots)
        for k, r in enumerate(roots):
            assert r["kappa"]["re"] == pytest.approx(k * math.pi / 2, abs=1e-8)
            assert r["kappa"]["im"] == 0.0
            w = complex(r["w"]["re"], r["w"]["im"])
            assert abs(w) == pytest.approx(1.0, abs=1e-12)

    def test_emitted_roots_bound_the_determinant_on_reload(self, capsys):
        doc = run_json(capsys, ["resonances", "--preset", "one-corner",
                                "--m0", "1", "--n0", "1", "--eps", "0.4"])
        coin = make_corner_family(1, 1, 0.4, "one-corner").coin
        assert doc["payload"]["roots"]
        for r in doc["payload"]["roots"]:
            kappa = complex(r["kappa"]["re"], r["kappa"]["im"])
            assert abs(det_value(coin, kappa)[0]) <= r["residual"]

    def test_csv_emission_round_trips(self, capsys):
        header, rows = run_csv(capsys, ["resonances", "--preset", "corner",
                                        "--m0", "1", "--n0", "1", "--emit", "csv"])
        assert header == ["kappa_re", "kappa_im", "w_re", "w_im",
                          "multiplicity", "kind", "residual"]
        assert len(rows) == 4
        coin = CoinField(1, elastic_corner_coins(1, 1))
        for row in rows:
            kappa = complex(float(row[0]), float(row[1]))
            assert abs(det_value(coin, kappa)[0]) <= float(row[6])
            assert row[5] == "eigenvalue"

    def test_strip_depth_region_flag(self, capsys):
        doc = run_json(capsys, ["resonances", "--preset", "one-corner", "--m0", "1",
                                "--n0", "1", "--eps", "0.4", "--strip-depth", "0.5"])
        roots = doc["payload"]["roots"]
        assert roots
        assert all(-0.5 <= r["kappa"]["im"] <= 0.0 for r in roots)
        assert all(0.0 <= r["kappa"]["re"] < TWO_PI for r in roots)

    @pytest.mark.parametrize("m0,n0", [(1, 1), (2, 2), (1, 2), (3, 2)])
    def test_strip_depth_folds_like_the_default_strip(self, capsys, m0, n0):
        # The axis eigenvalue sits a rounding error below 0, inside the
        # strip's frame [-pi/32, 2 pi - pi/32); folding it into [0, 2 pi)
        # must not leave it at 2 pi.
        argv = ["resonances", "--preset", "phase-corner", "--m0", str(m0), "--n0", str(n0),
                "--eps", "0.2", "--emit", "csv"]
        _, default = run_csv(capsys, argv)
        _, deep = run_csv(capsys, argv + ["--strip-depth", "2"])
        assert all(0.0 <= float(row[0]) < TWO_PI for row in default + deep)
        assert [row[:6] for row in deep] == [row[:6] for row in default]
        assert all(float(row[6]) <= 1e-8 for row in deep)


class TestBarrierCommands:
    def test_barrier_spec_payload(self, capsys):
        doc = run_json(capsys, ["barrier-spec", "--M0", "1"])
        payload = doc["payload"]
        assert payload["N"] == 24
        assert payload["leakage"] <= 1e-12
        phases = np.asarray(payload["eigenphases"])
        assert len(phases) == 24
        expected = {0.0: 10, math.pi / 2: 2, math.pi: 10, 3 * math.pi / 2: 2}
        for phase, mult in expected.items():
            assert int(np.sum(np.abs(phases - phase) < 1e-9)) == mult

    def test_barrier_norms_grow_as_eps_shrinks(self, capsys):
        header, rows = run_csv(capsys, ["barrier-norms", "--eps-grid", "0.16,0.04"])
        assert header == ["eps", "s", "max_norm"]
        assert [float(r[0]) for r in rows] == [0.16, 0.04]
        assert all(float(r[1]) == 0.5 for r in rows)
        norms = [float(r[2]) for r in rows]
        assert norms[1] > norms[0] > 1.0


class TestScanCommands:
    def test_corner_scan_row_shape(self, capsys):
        header, rows = run_csv(capsys, ["corner-scan", "--m0", "1", "--n0", "1",
                                        "--eps-grid", "0.1,0.2"])
        assert header == ["eps", "mu0", "count", "root_re", "root_im",
                          "w_abs", "dist_to_mu0"]
        # 4 loop centers, one eigenvalue and one resonance row in each.
        assert len(rows) == 16
        for row in rows:
            assert row[2] == "2"
            assert float(row[6]) <= math.sqrt(float(row[0]))
        by_eps = {}
        for row in rows:
            by_eps.setdefault(row[0], []).append(float(row[5]))
        for eps, moduli in by_eps.items():
            ones = sum(1 for m in moduli if abs(m - 1.0) <= 1e-12)
            small = sum(1 for m in moduli if m < 1.0 - 1e-6)
            assert ones == 4 and small == 4

    def test_csv_floats_use_17_significant_digits(self, capsys):
        _, rows = run_csv(capsys, ["corner-scan", "--m0", "1", "--n0", "1",
                                   "--eps-grid", "0.1"])
        assert rows[0][0] == f"{0.1:.17g}"
        for row in rows:
            for cell in (row[0], row[1], row[3], row[4], row[5], row[6]):
                assert float(cell) == float(f"{float(cell):.17g}")

    def test_shape_scan_counts_match_interior_multiplicities(self, capsys):
        header, rows = run_csv(capsys, ["shape-scan", "--eps-grid", "0.2"])
        counts = {}
        for row in rows:
            counts[round(float(row[1]), 9)] = int(row[2])
        assert counts == {
            0.0: 10,
            round(math.pi / 2, 9): 2,
            round(math.pi, 9): 10,
            round(3 * math.pi / 2, 9): 2,
        }

    def test_scan_json_emission_nests_roots(self, capsys):
        doc = run_json(capsys, ["corner-scan", "--m0", "1", "--n0", "1",
                                "--eps-grid", "0.1", "--emit", "json"])
        recs = doc["payload"]["rows"]
        assert len(recs) == 4
        for rec in recs:
            assert rec["count"] == 2
            assert len(rec["roots"]) == 2
            kinds = sorted(r["kind"] for r in rec["roots"])
            assert kinds == ["eigenvalue", "resonance"]

    def test_overlapping_loops_exit_4(self, capsys):
        # Centers sit pi/4 apart for the 2 by 2 rectangle, and at eps = 0.7
        # two half widths of 0.5 eps^0.5 cover more than that gap.
        assert run_cli(["corner-scan", "--m0", "2", "--n0", "2",
                        "--eps-grid", "0.7"]) == 4
        err = json.loads(capsys.readouterr().err)
        assert "overlap" in err["error"]["reason"]

    def test_large_s_warns_on_stderr(self, capsys):
        code = run_cli(["shape-scan", "--eps-grid", "0.1", "--s", "0.9"])
        captured = capsys.readouterr()
        assert code == 0
        assert "warning" in captured.err
        assert "experimental" in captured.err

    def test_s_at_half_does_not_warn(self, capsys):
        code = run_cli(["corner-scan", "--m0", "1", "--n0", "1",
                        "--eps-grid", "0.1", "--s", "0.5"])
        captured = capsys.readouterr()
        assert code == 0
        assert "warning" not in captured.err


class TestModuleExecution:
    def test_python_dash_m_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "qwres.cli", "resonances", "--preset", "free"],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["payload"]["winding_total"] == 0
        assert "resonances" in result.stderr

    def test_resonances_does_not_import_scipy(self):
        # SciPy is imported only where a Schur form is taken, and importing
        # it takes most of a command's start-up time.
        script = (
            "import io, json, sys, contextlib\n"
            "from qwres.cli import run_cli\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
            "    code = run_cli(['resonances', '--preset', 'one-corner', '--m0', '2', '--n0', '2',"
            " '--eps', '0.2'])\n"
            "print(json.dumps([code, len(json.loads(out.getvalue())['payload']['roots']),"
            " sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
        )
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        code, roots, scipy_modules = json.loads(result.stdout)
        assert code == 0 and roots > 0
        assert scipy_modules == []
