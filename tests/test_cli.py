import json
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from fibwalk.cli import build_parser, load_config, main
from fibwalk.dynamics import BASIS_AVERAGE, mcd_series
from fibwalk.sequence import CoinAngles, cut_project_word, standard_word
from fibwalk.walk import Timeframe, WalkConfig

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_word_subcommand_prints_the_word(capsys):
    code, out, _ = run(capsys, "word", "--order", "5")
    assert code == 0
    assert out.strip() == "ABAABABA"


def test_word_length_mode_prints_the_cut_and_project_word(tmp_path, capsys):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    code, out, _ = run(capsys, "word", "--length", "8", "--phason", "0.25",
                       "--output", str(first))
    assert code == 0
    assert out.strip() == "AABABAAB" == cut_project_word(8, 0.25).letters
    code, again, _ = run(capsys, "word", "--config", str(first) + ".meta.json",
                         "--output", str(second))
    assert code == 0 and again == out
    assert first.read_bytes() == second.read_bytes()


def test_word_requires_exactly_one_size(capsys):
    code, _, err = run(capsys, "word")
    assert code == 1 and "exactly one" in err
    code, _, err = run(capsys, "word", "--order", "3", "--length", "5")
    assert code == 1


def test_winding_summary(tmp_path, capsys):
    out_path = tmp_path / "w.json"
    code, out, _ = run(
        capsys, "winding", "--theta-a", "1.5707963", "--theta-b", "0",
        "--termination", "ABA", "--n", "233", "--output", str(out_path),
    )
    assert code == 0
    assert out.startswith("W=2")
    doc = json.loads(out_path.read_text())
    assert doc["rows"][0][0] == 2


def test_mcd_ballistic_value(tmp_path, capsys):
    out_path = tmp_path / "mcd.csv"
    code, out, _ = run(
        capsys, "mcd", "--theta-a", "0", "--theta-b", "0",
        "--n", "64", "--steps", "31", "--output", str(out_path),
    )
    assert code == 0
    assert "mcd_avg=-32" in out
    lines = out_path.read_text().splitlines()
    assert lines[0] == "t,mcd"
    assert lines[1] == "0,0"
    assert lines[2] == "1,-2"


@pytest.mark.parametrize("flag, value, field", [
    ("--timeframe", "symmetrized", {"timeframe": Timeframe.SYMMETRIZED}),
    ("--phase-left", "3.141592653589793", {"boundary_phase_left": -1.0}),
    ("--phase-right", "-3.141592653589793", {"boundary_phase_right": -1.0}),
])
def test_mcd_walk_flags_reach_the_walk(flag, value, field, tmp_path, capsys):
    out_path = tmp_path / "mcd.csv"
    code, _, _ = run(
        capsys, "mcd", "--theta-a", "1.1", "--theta-b", "0.4", "--n", "34", "--steps", "12",
        flag, value, "--output", str(out_path),
    )
    assert code == 0
    rows = out_path.read_text().splitlines()[1:]
    cfg = WalkConfig(34, CoinAngles(1.1, 0.4), standard_word(34), **field)
    expected = mcd_series(cfg, 12, BASIS_AVERAGE)
    assert [float(row.split(",")[1]) for row in rows] == expected.tolist()
    sidecar = json.loads(Path(str(out_path) + ".meta.json").read_text())
    assert sidecar[flag[2:].replace("-", "_")] == (float(value) if "phase" in flag else value)


@pytest.mark.parametrize("flags, phase", [
    (["--phase-left", "3.141592653589793"], -1.0), (["--phase-left", "-3.141592653589793"], -1.0),
    (["--phase-left", "6.283185307179586"], 1.0), (["--degrees", "--phase-left", "180"], -1.0),
], ids=["pi", "minus-pi", "two-pi", "180-degrees"])
def test_a_phase_of_pi_is_exactly_real(flags, phase, tmp_path, capsys, monkeypatch):
    seen = []

    def record(config, **kwargs):
        seen.append(config)
        raise ValueError("stop after the configuration")

    monkeypatch.setattr("fibwalk.cli.quasienergies", record)
    run(capsys, "spectrum", "--theta-a", "1.1", "--theta-b", "0.4", "--n", "13",
        *flags, "--output", str(tmp_path / "s.csv"))
    (config,) = seen
    assert config.boundary_phase_left == phase
    assert np.imag(config.boundary_phase_left) == 0.0
    assert config.boundary_phase_right == 1.0


@pytest.mark.parametrize("command", [
    ["spectrum", "--n", "34"], ["mcd", "--n", "34", "--steps", "12"],
], ids=["spectrum", "mcd"])
def test_a_phase_off_the_multiples_of_pi_exits_one_without_files(command, tmp_path, capsys):
    out_path = tmp_path / "o.csv"
    code, out, err = run(capsys, *command, "--theta-a", "1.1", "--theta-b", "0.4",
                         "--phase-left", "0.3", "--output", str(out_path))
    assert code == 1 and out == ""
    assert "phase_left must be a multiple of pi, got 0.3" in err
    assert list(tmp_path.iterdir()) == []


def test_mcd_rejects_boundary_contamination(tmp_path, capsys):
    code, _, err = run(
        capsys, "mcd", "--theta-a", "0", "--theta-b", "0",
        "--n", "64", "--steps", "40", "--output", str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert "steps < n/2" in err


def test_mcd_rejects_empty_window(tmp_path, capsys):
    out_path = tmp_path / "x.csv"
    code, out, err = run(
        capsys, "mcd", "--theta-a", "0", "--theta-b", "0",
        "--n", "64", "--steps", "0", "--output", str(out_path),
    )
    assert code == 1 and out == ""
    assert "steps must be >= 1" in err
    assert not out_path.exists()
    assert not Path(str(out_path) + ".meta.json").exists()


def test_mcd_map_rejects_empty_window_before_any_cell(tmp_path, capsys, monkeypatch):
    def no_blocks(*args, **kwargs):
        raise AssertionError("cells evaluated despite an invalid window")

    monkeypatch.setattr("fibwalk.sweep._run_blocks", no_blocks)
    out_path = tmp_path / "m.csv"
    code, _, err = run(
        capsys, "mcd-map", "--resolution", "2", "--n", "64", "--steps", "0",
        "--workers", "2", "--output", str(out_path),
    )
    assert code == 1
    assert "steps must be >= 1" in err
    assert not out_path.exists()


def test_a_broken_worker_pool_is_a_computation_error(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise BrokenProcessPool("A child process terminated abruptly")

    monkeypatch.setattr("fibwalk.sweep._run_blocks", broken)
    out_path = tmp_path / "m.csv"
    code, out, err = run(
        capsys, "mcd-map", "--resolution", "2", "--n", "64", "--steps", "8",
        "--workers", "2", "--output", str(out_path),
    )
    assert code == 2 and out == ""
    assert err.startswith("computation error: ") and len(err.splitlines()) == 1
    assert not out_path.exists()


def test_no_reflection_is_a_computation_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "winding", "--theta-a", "1.5707963267948966", "--theta-b",
        "1.5707963267948966", "--n", "34", "--output", str(tmp_path / "w.json"),
    )
    assert code == 2
    assert "computation error" in err


def test_pole_on_contour_is_a_computation_error(tmp_path, capsys):
    # cos(1e-7) sits within 1e-14 of 1 and the masked tail aligns at z = i
    code, _, err = run(
        capsys, "winding", "--theta-a", "1e-7", "--theta-b", "0",
        "--termination", "AAB", "--n", "89", "--output", str(tmp_path / "w.json"),
    )
    assert code == 2
    assert "denominator vanished" in err


NAN_CASES = {
    "phase-left-nan": ["spectrum", "--theta-a", "1.0", "--theta-b", "0.4", "--n", "34",
                       "--phase-left", "nan"],
    "phase-right-inf": ["spectrum", "--theta-a", "1.0", "--theta-b", "0.4", "--n", "34",
                        "--phase-right", "inf"],
    "min-gap-width-nan": ["spectrum", "--theta-a", "1.0", "--theta-b", "0.4", "--n", "34",
                          "--min-gap-width", "nan"],
    # the flagship cell, whose zero and pi modes a NaN window would call unpinned
    "pin-tolerance-nan": ["spectrum", "--theta-a", "1.5707963267948966", "--theta-b", "0",
                          "--n", "34", "--pin-tolerance", "nan"],
    "label-tolerance-negative": ["spectrum", "--theta-a", "1.5707963267948966", "--theta-b",
                                 "0", "--n", "34", "--label-tolerance", "-1"],
    "word-phason-inf": ["word", "--length", "5", "--phason", "inf"],
    "word-phason-nan": ["word", "--length", "5", "--phason", "nan"],
    # the transparent cell: the default min_modulus exits 2 here
    "min-modulus-nan": ["winding", "--theta-a", "1.5707963267948966", "--theta-b",
                        "1.5707963267948966", "--n", "34", "--min-modulus", "nan"],
    # a ring above half the point budget would leave refinement no room
    "samples-above-half-the-budget": ["winding", "--theta-a", "1.0", "--theta-b", "0.4",
                                      "--n", "34", "--samples", "1048578"],
}


@pytest.mark.parametrize("case", list(NAN_CASES))
def test_nan_parameters_exit_one_without_output(case, tmp_path, capsys):
    out_path = tmp_path / "out.csv"
    code, out, err = run(capsys, *NAN_CASES[case], "--output", str(out_path))
    assert code == 1 and out == ""
    assert "must" in err
    assert list(tmp_path.iterdir()) == []


def test_invalid_flag_exits_one(capsys):
    code, _, err = run(capsys, "winding", "--no-such-flag", "1")
    assert code == 1
    assert "usage" in err


def test_spectrum_run_and_edge_modes(tmp_path, capsys):
    out_path = tmp_path / "s.csv"
    code, out, _ = run(
        capsys, "spectrum", "--theta-a", "1.5707963267948966", "--theta-b", "0",
        "--n", "89", "--output", str(out_path),
        "--gaps-output", str(tmp_path / "g.csv"),
    )
    assert code == 0
    assert "zero=1" in out and "pi=1" in out
    header = out_path.read_text().splitlines()[0]
    assert header == "theta_a,theta_b,energy,boundary_weight,pinning"
    assert (tmp_path / "g.csv").read_text().splitlines()[0] == "lower,upper,width,ids,p,q"


def test_degrees_switch(tmp_path, capsys):
    rad = tmp_path / "rad.json"
    deg = tmp_path / "deg.json"
    base = ["winding", "--termination", "ABA", "--n", "89"]
    code1, out1, _ = run(capsys, *base, "--theta-a", "90", "--theta-b", "0",
                         "--degrees", "--output", str(deg))
    code2, out2, _ = run(capsys, *base, "--theta-a", str(np.pi / 2), "--theta-b", "0",
                         "--output", str(rad))
    assert code1 == code2 == 0
    assert deg.read_text().replace(str(deg), str(rad)) == rad.read_text()


def test_config_file_defaults_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"theta_a": 1.5707963, "theta_b": 0.0, "n": 233}))
    out_path = tmp_path / "w.json"
    code, out, _ = run(capsys, "winding", "--config", str(cfg),
                       "--n", "89", "--output", str(out_path))
    assert code == 0
    sidecar = json.loads((tmp_path / "w.json.meta.json").read_text())
    assert sidecar["n"] == 89  # flag overrides file
    assert sidecar["termination"] == "standard"  # default filled in


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"theta_a": 1.0, "theta_b": 0.0, "bogus": 3}))
    code, _, err = run(capsys, "winding", "--config", str(cfg))
    assert code == 1
    assert "unknown key 'bogus'" in err


def test_config_rejects_boundary_contamination(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"theta_a": 0.0, "theta_b": 0.0, "n": 64, "steps": 64}))
    code, _, err = run(capsys, "mcd", "--config", str(cfg),
                       "--output", str(tmp_path / "m.csv"))
    assert code == 1
    assert "steps < n/2" in err


@pytest.mark.parametrize("key,value", [
    ("theta_a", "west"), ("n", True), ("n", 2.0), ("degrees", 1), ("termination", 3),
    ("format", "xml"),
])
def test_config_type_checking(key, value, tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"theta_a": 1.0, "theta_b": 0.0, key: value}))
    code, out, err = run(capsys, "winding", "--config", str(cfg),
                         "--output", str(tmp_path / "w.json"))
    assert code == 1 and out == ""
    assert f"config key '{key}'" in err
    assert list(tmp_path.iterdir()) == [cfg]


def test_config_accepts_an_int_for_a_float_key(tmp_path, capsys):
    outputs = []
    for theta_a in (1, 1.0):
        cfg = tmp_path / f"c_{theta_a!r}.json"
        cfg.write_text(json.dumps({"theta_a": theta_a, "theta_b": 0.4, "n": 55}))
        out_path = tmp_path / "w.json"
        code, _, _ = run(capsys, "winding", "--config", str(cfg), "--output", str(out_path))
        assert code == 0
        outputs.append((out_path.read_bytes(), Path(str(out_path) + ".meta.json").read_bytes()))
    assert outputs[0] == outputs[1]


def test_config_int_beyond_the_float_range_exits_one_without_output(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"theta_a": 10 ** 400, "theta_b": 0.4, "n": 55}))
    code, out, err = run(capsys, "winding", "--config", str(cfg),
                         "--output", str(tmp_path / "w.json"))
    assert code == 1 and out == ""
    assert "config key 'theta_a'" in err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("config, argv, message", [
    ("{theta_a: 1.0}", [], "is not valid JSON"),
    ("[1.0, 0.4]", [], "must hold a flat JSON object"),
    (None, ["--theta-b", "0.4"], "missing required parameter --theta-a"),
], ids=["config-not-json", "config-list", "missing-theta-a"])
def test_unusable_inputs_exit_one_without_output(config, argv, message, tmp_path, capsys):
    if config is not None:
        (tmp_path / "c.json").write_text(config)
        argv = ["--config", str(tmp_path / "c.json")]
    out_path = tmp_path / "w.json"
    code, out, err = run(capsys, "winding", *argv, "--output", str(out_path))
    assert code == 1 and out == ""
    assert message in err
    assert not out_path.exists()
    assert not Path(str(out_path) + ".meta.json").exists()


def test_no_subcommand_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys)
    assert code == 1 and out == ""
    assert "a subcommand is required" in err
    assert list(tmp_path.iterdir()) == []


def test_missing_config_file(capsys):
    code, _, err = run(capsys, "winding", "--config", "/nonexistent.json")
    assert code == 1
    assert "not found" in err


@pytest.mark.parametrize("case", ["config-directory", "output-directory-missing",
                                  "gaps-output-directory-missing", "sidecar-is-a-directory"])
def test_unusable_files_exit_one_naming_the_path(case, tmp_path, capsys):
    cell = ["--theta-a", "1.0", "--theta-b", "0.4", "--n", "34"]
    missing = str(tmp_path / "missing" / "out.csv")
    written = tmp_path / "s.csv"
    sidecar = tmp_path / "s.csv.meta.json"
    argv, path = {
        "config-directory": (["winding", "--config", str(tmp_path)], str(tmp_path)),
        "output-directory-missing": (["winding", *cell, "--output", missing], missing),
        "gaps-output-directory-missing": (
            ["spectrum", *cell, "--output", str(written), "--gaps-output", missing], missing),
        "sidecar-is-a-directory": (["winding", *cell, "--output", str(written)], str(sidecar)),
    }[case]
    if case == "sidecar-is-a-directory":
        sidecar.mkdir()
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert path in err and len(err.splitlines()) == 1 and "Traceback" not in err
    assert not written.exists()  # a failed call leaves none of its outputs


ROUND_TRIP_ARGS = {
    "word": ["--order", "6", "--termination", "AAB"],
    "spectrum": ["--theta-a", "1.1", "--theta-b", "0.4", "--n", "34",
                 "--phase-left", "3.141592653589793"],
    "mcd": ["--degrees", "--theta-a", "90", "--theta-b", "0", "--n", "89", "--steps", "20"],
    "mcd-map": ["--resolution", "2", "--n", "34", "--steps", "8", "--workers", "1"],
    "schur-trace": ["--theta-a", "1.0", "--theta-b", "0.4", "--n", "34", "--samples", "64"],
    "winding": ["--theta-a", "1.3", "--theta-b", "0.2", "--n", "55"],
    "winding-map": ["--resolution", "3", "--theta-a-min", "1.2", "--theta-a-max", "1.9",
                    "--theta-b-min", "-0.4", "--theta-b-max", "0.4", "--n", "89"],
    "winding-average": ["--resolution", "2", "--n", "34", "--workers", "1"],
}


@pytest.mark.parametrize("command", list(ROUND_TRIP_ARGS))
def test_sidecar_round_trip_reproduces_output(command, tmp_path, capsys):
    first, second = tmp_path / "first.out", tmp_path / "second.out"
    code, _, _ = run(capsys, command, *ROUND_TRIP_ARGS[command], "--output", str(first))
    assert code == 0
    code, _, _ = run(capsys, command, "--config", str(first) + ".meta.json",
                     "--output", str(second))
    assert code == 0
    assert first.read_bytes() == second.read_bytes()
    sidecars = [json.loads(Path(str(p) + ".meta.json").read_text()) for p in (first, second)]
    assert sidecars[0] == {**sidecars[1], "output": str(first)}


def test_workers_do_not_change_bytes(tmp_path, capsys):
    args = ["winding-map", "--resolution", "4", "--n", "55"]
    one = tmp_path / "one.csv"
    many = tmp_path / "many.csv"
    assert run(capsys, *args, "--workers", "1", "--output", str(one))[0] == 0
    assert run(capsys, *args, "--workers", "8", "--output", str(many))[0] == 0
    assert one.read_bytes() == many.read_bytes()


def test_workers_below_one_exit_one_without_output(tmp_path, capsys):
    out_path = tmp_path / "w.csv"
    code, out, err = run(
        capsys, "winding-map", "--resolution", "2", "--n", "34",
        "--workers", "0", "--output", str(out_path),
    )
    assert code == 1 and out == ""
    assert "workers must be >= 1" in err
    assert not out_path.exists()
    assert not Path(str(out_path) + ".meta.json").exists()


def test_winding_average_csv_schema(tmp_path, capsys):
    out_path = tmp_path / "avg.csv"
    code, out, _ = run(
        capsys, "winding-average", "--resolution", "2", "--n", "55",
        "--theta-a-min", "1.2", "--theta-a-max", "1.9",
        "--theta-b-min", "-0.4", "--theta-b-max", "0.4",
        "--output", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "theta_a,theta_b,value,status,kind,termination"
    assert all("winding_average" in line for line in lines[1:])
    assert all("ABA+AAB+BAA+BAB" in line for line in lines[1:])


def test_empty_ensemble_exits_one_without_output(tmp_path, capsys):
    out_path = tmp_path / "avg.csv"
    code, out, err = run(
        capsys, "winding-average", "--resolution", "2", "--n", "34",
        "--ensemble", ",", "--output", str(out_path),
    )
    assert code == 1 and out == ""
    assert "at least one termination" in err
    assert not out_path.exists()
    assert not Path(str(out_path) + ".meta.json").exists()


def test_winding_average_phason_grid_alternative(tmp_path, capsys):
    code, out, _ = run(
        capsys, "winding-average", "--resolution", "2", "--n", "34",
        "--ensemble", "phason-grid:3", "--output", str(tmp_path / "avg.csv"),
    )
    assert code == 0


def test_schur_trace_csv(tmp_path, capsys):
    out_path = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys, "schur-trace", "--theta-a", "1.5707963267948966", "--theta-b", "0",
        "--termination", "ABA", "--n", "233", "--samples", "64",
        "--output", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "phi,re_f,im_f,abs_f"
    assert len(lines) == 65
    # f = z^2 on the contour: |f| = 1 everywhere
    assert all(abs(float(line.rsplit(",", 1)[1]) - 1.0) < 1e-12 for line in lines[1:])


def test_version_flag(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("fibwalk ")


def _module_main(*argv):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    return subprocess.run([sys.executable, "-m", "fibwalk", *argv], env=env,
                          capture_output=True, text=True)


def test_package_entry_point_passes_the_exit_code_on():
    version = _module_main("--version")
    assert version.returncode == 0
    assert version.stdout == "fibwalk 0.1.0 (output format 1)\n"
    bare = _module_main()
    assert bare.returncode == 1
    assert "a subcommand is required" in bare.stderr


def test_help_golden_files(capsys):
    parser, subs = build_parser()
    golden = {"main": parser.format_help()}
    golden.update({name: sub.format_help() for name, sub in subs.items()})
    for name, text in golden.items():
        expected = (DATA / f"help_{name.replace('-', '_')}.txt").read_text()
        assert text == expected, f"help text drifted for {name}"


def test_load_config_guards_command(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"command": "winding", "theta_a": 1.0}))
    with pytest.raises(ValueError):
        load_config(str(cfg), "spectrum")
