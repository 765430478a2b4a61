"""Command-line interface: artifacts, determinism, exit codes, config."""

import json
import pathlib
import re
import shlex

import numpy as np
import pytest

from defectlattice.cli import main
from defectlattice.eme import (
    Field,
    RickerParams,
    TransverseGrid,
    read_field,
    ricker_profile,
    solve_modes,
    write_field,
)
from defectlattice.textio import write_csv
from helpers import read_csv

SUBCOMMANDS = [
    "closed-form",
    "propagate",
    "finite-size",
    "eme-simulate",
    "eme-reconstruct",
    "eme-fit",
    "compare",
    "preset",
]


@pytest.mark.parametrize("cmd", SUBCOMMANDS)
def test_help_exists(cmd, capsys):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["closed-form", "--nonsense", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--preset", "A2", "--delta", "1.05"],  # unique prefix of --delta-n
        ["closed-form", "--delta", "1", "--tau", "2"],  # unique prefix of --tau-max
    ],
    ids=["compare-delta", "closed-form-tau"],
)
def test_flag_prefix_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "x.out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_domain_error_exits_1(tmp_path, capsys):
    # -1 and 1e160 (2 delta^2 overflows) are invalid; at 0.99 the closed form
    # cancels past its 1e-8 accuracy.  The tau axis and the onset threshold
    # are checked before anything is computed or written.
    out = tmp_path / "x.csv"
    cases = [(["closed-form", "--delta", delta], "error:") for delta in ("-1", "1e160", "0.99")]
    for tau_max in ("0", "-1", "nan", "inf"):
        for cmd in (["closed-form"], ["propagate", "--sites", "10"], ["finite-size", "--sites", "10"]):
            cases.append(([*cmd, "--delta", "1", "--tau-max", tau_max],
                          f"tau_max must be finite and > 0, got {float(tau_max)}"))
    for threshold in ("0", "-1", "nan"):
        cases.append((["finite-size", "--sites", "10", "--delta", "1", "--threshold", threshold],
                       f"threshold must be finite and > 0, got {float(threshold)}"))
    for argv, message in cases:
        rc = main([*argv, "--out", str(out)])
        assert rc == 1, argv
        assert message in capsys.readouterr().err, argv
        assert not out.exists(), argv


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compare", "--preset", "A2", "--steps", "5", "--step", "0"], "dx must be finite and > 0"),
        (["eme-simulate", "--preset", "A1", "--step", "nan"], "dx must be finite and > 0"),
        (["eme-simulate", "--preset", "A1", "--margin", "nan"], "width must be finite and > 0"),
        (["eme-simulate", "--preset", "A1", "--margin", "-5"], "height must be finite and > 0"),
        (["eme-simulate", "--preset", "A1", "--step", "1e-320"], "width/dx must be finite, got inf"),
    ],
    ids=["zero-step", "nan-step", "nan-margin", "negative-margin", "overflowing-step"],
)
def test_invalid_grid_step_exits_1(tmp_path, capsys, argv, message):
    out = tmp_path / "out.txt"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--delta-n", "inf", "delta_n must be finite and > 0, got inf"),
        ("--sigma-x", "nan", "sigma_x must be finite and > 0, got nan"),
        ("--n0", "-1", "n0 must be finite and > 0, got -1.0"),
        ("--wavelength", "inf", "wavelength must be finite and > 0, got inf"),
        ("--wavelength", "0", "wavelength must be finite and > 0, got 0.0"),
    ],
)
def test_invalid_optical_input_exits_1(tmp_path, capsys, flag, value, message):
    # rejected before any mode solve, with no numpy warning (an error here)
    out, cal = tmp_path / "sim.csv", tmp_path / "cal.json"
    argv = ["eme-simulate", "--preset", "A2", flag, value, "--calibration-out", str(cal)]
    assert main([*argv, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists() and not cal.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["closed-form", "--delta", "1", "--out", "DIR"],
        ["eme-fit", "--mode-file", "DIR", "--out", "fit.json"],
        ["closed-form", "--config", "DIR", "--delta", "1", "--out", "c0.csv"],
    ],
    ids=["out-dir", "mode-file-dir", "config-dir"],
)
def test_os_error_exits_1(tmp_path, monkeypatch, capsys, argv):
    # a directory where a file is expected is an error line, not a traceback
    monkeypatch.chdir(tmp_path)
    (tmp_path / "DIR").mkdir()
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["DIR"]


@pytest.mark.parametrize("steps", ["1", "0", "abc"])
def test_steps_below_two_exits_2(tmp_path, capsys, steps):
    out = tmp_path / "q.csv"
    with pytest.raises(SystemExit) as exc:
        main(["closed-form", "--delta", "1", "--out", str(out), "--steps", steps])
    assert exc.value.code == 2
    assert "--steps" in capsys.readouterr().err
    assert not out.exists()


def test_uncoupled_guides_exit_1(tmp_path, capsys):
    # at dn = 1.05 the guides are so tight that the fitted coupling rounds
    # to 0; coarse transverse step keeps the mode solves small
    out = tmp_path / "r.json"
    rc = main(["compare", "--preset", "A2", "--delta-n", "1.05", "--step", "2",
               "--steps", "11", "--out", str(out)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_closed_form_csv(tmp_path):
    out = tmp_path / "c0.csv"
    svg = tmp_path / "c0.svg"
    rc = main([
        "closed-form", "--delta", "1.0", "--tau-max", "4", "--steps", "400",
        "--out", str(out), "--svg", str(svg),
    ])
    assert rc == 0
    assert svg.read_text().startswith("<svg")
    header, rows = read_csv(str(out))
    assert header == ["tau", "re_c0", "im_c0", "prob", "gamma_eff"]
    assert len(rows) == 400
    assert rows[0][0] == 0.0
    assert rows[0][3] == 1.0  # prob at tau = 0
    assert rows[0][4] is None  # gamma_eff missing at tau = 0


def test_closed_form_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["closed-form", "--delta", "0.474", "--steps", "50"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_round_trip_bit_exact(tmp_path):
    path = tmp_path / "vals.csv"
    rng = np.random.default_rng(3)
    rows = [(float(x), float(y)) for x, y in rng.normal(size=(20, 2)) * np.pi]
    write_csv(str(path), ["a", "b"], rows)
    _, back = read_csv(str(path))
    assert [tuple(r) for r in back] == rows


def test_csv_bytes(tmp_path):
    # nan is an empty field; +-0.0 keep their sign; numpy floats format as floats
    path = tmp_path / "vals.csv"
    write_csv(str(path), ["a", "b", "c"],
              [(np.nan, 0.0, -0.0), (1 / 3, np.float64(-0.0), np.float64(1e300))])
    assert path.read_bytes() == b"a,b,c\n,0,-0\n0.33333333333333331,-0,1.0000000000000001e+300\n"


def test_propagate_csv(tmp_path):
    out = tmp_path / "p.csv"
    rc = main(["propagate", "--sites", "4", "--delta", "2.0", "--steps", "30",
               "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(str(out))
    assert header == ["tau", "prob_site_0", "prob_site_1", "prob_site_2", "prob_site_3"]
    assert rows[0][1] == pytest.approx(1.0, abs=1e-12)
    for row in rows:
        assert sum(row[1:]) == pytest.approx(1.0, abs=1e-10)


def test_finite_size_csv_and_svg(tmp_path):
    out = tmp_path / "dn.csv"
    svg = tmp_path / "dn.svg"
    rc = main(["finite-size", "--sites", "10", "--ref-sites", "600", "--delta", "1.0",
               "--tau-max", "4", "--out", str(out), "--svg", str(svg)])
    assert rc == 0
    header, rows = read_csv(str(out))
    assert header == ["tau", "d_n", "c_n"]
    assert len(rows) == 400
    assert rows[0][1] == 0.0
    assert rows[0][2] is None  # C_N undefined at tau = 0
    text = svg.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert "tau = beta z" in text


@pytest.mark.parametrize(
    "argv",
    [
        ["--delta", "0.1", "--steps", "2", "--tau-max", "0.001"],
        ["--ref-sites", "10", "--delta", "4.17"],
    ],
    ids=["tiny-tau", "same-chain"],
)
def test_finite_size_chart_error_writes_nothing(tmp_path, capsys, argv):
    # D_N and C_N have no positive value for the log chart; the chart is
    # drawn before the table, so neither file is left behind
    out, svg = tmp_path / "w.csv", tmp_path / "w.svg"
    rc = main(["finite-size", "--sites", "10", *argv, "--out", str(out), "--svg", str(svg)])
    assert rc == 1
    assert "nothing to plot" in capsys.readouterr().err
    assert not out.exists() and not svg.exists()


def test_finite_size_onset_printed(tmp_path, capsys):
    rc = main(["finite-size", "--sites", "10", "--delta", "1.0", "--tau-max", "4",
               "--threshold", "1e-6", "--out", str(tmp_path / "d.csv")])
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    assert 2.0 < float(printed) < 3.0  # onset of the N=10 deviation


@pytest.mark.parametrize("flags", [[], ["--coherent"]], ids=["printed", "coherent"])
def test_eme_simulate_cli(tmp_path, flags):
    # coarsened transverse step keeps this an execution test, not a physics one
    out = tmp_path / "eme.csv"
    cal = tmp_path / "cal.json"
    rc = main(["eme-simulate", "--preset", "A2", "--steps", "5", "--tau-max", "2",
               "--step", "0.8", "--out", str(out), "--calibration-out", str(cal), *flags])
    assert rc == 0
    header, rows = read_csv(str(out))
    assert header[:2] == ["tau", "z_cm"]
    assert len(header) == 12 and len(rows) == 5
    for row in rows:
        assert sum(row[2:]) == pytest.approx(1.0, abs=1e-12)
    payload = json.loads(cal.read_text())
    assert payload["mode_count"] == 10
    assert payload["delta_fit"] == pytest.approx(1.0, abs=1e-6)  # uniform gaps


def test_eme_simulate_tau_max_beyond_preset(tmp_path):
    # A2's preset range ends at tau = 4; eme-simulate uses the range asked for
    out = tmp_path / "e.csv"
    rc = main(["eme-simulate", "--preset", "A2", "--tau-max", "10", "--steps", "3",
               "--step", "2", "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(str(out))
    assert [row[0] for row in rows] == [0.0, 5.0, 10.0]


def test_preset_json(capsys):
    rc = main(["preset", "A3", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["d0_um"] == 19.6
    assert payload["d_um"] == 27.1
    assert payload["beta0_per_cm"] == 0.800
    assert payload["beta_per_cm"] == 0.192
    assert payload["delta"] == 4.17


def test_preset_plain(capsys):
    assert main(["preset", "A3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "delta=4.17" in lines and "n_sites=10" in lines


def test_compare_without_eme(tmp_path):
    out = tmp_path / "report.json"
    svg = tmp_path / "report.svg"
    rc = main(["compare", "--preset", "A2", "--steps", "101", "--skip-eme",
               "--out", str(out), "--svg", str(svg)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["models"]["eme"] is None
    assert payload["rms"]["closed_form_vs_coupled_mode"]["site0"] < 1e-3
    assert svg.read_text().startswith("<svg")


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"delta": 1.0, "steps": 25}))
    out = tmp_path / "out.csv"
    rc = main(["closed-form", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(str(out))
    assert len(rows) == 25
    # flags override config
    out2 = tmp_path / "out2.csv"
    rc = main(["closed-form", "--config", str(cfg), "--steps", "10", "--out", str(out2)])
    assert rc == 0
    _, rows2 = read_csv(str(out2))
    assert len(rows2) == 10


@pytest.mark.parametrize(
    "argv, cfg",
    [
        (["closed-form", "--out", "x.csv"], {"delta": 1.0, "bogus": 3}),
        (["closed-form", "--out", "x.csv"], {"delta": "abc"}),
        (["closed-form", "--out", "x.csv"], {"delta": 1.0, "mode": "bogus"}),
        (["closed-form", "--out", "x.csv"], {"delta": 1.0, "config": "x.json"}),
        (["preset", "A3"], {"label": "A2"}),  # label is positional only
        # prefixes of --delta-n and --tau-max: config keys are never abbreviations
        (["compare", "--out", "x.csv"], {"preset": "A2", "delta": 1.05}),
        (["closed-form", "--out", "x.csv"], {"delta": 1.0, "tau": 2}),
        (["closed-form", "--out", "x.csv"], {"delta": 1.0, "steps": 1}),
        # false adds no flag, but the key must still name an option
        (["closed-form", "--out", "x.csv"], {"delta": 1.0, "bogus": False}),
        (["closed-form", "--out", "x.csv"], [{"delta": 1.0}]),
    ],
    ids=["unknown-key", "bad-type", "bad-choice", "config-key", "label-key",
         "prefix-key", "prefix-key-unique", "steps-below-2", "unknown-key-false",
         "not-an-object"],
)
def test_config_unknown_key_exits_2(tmp_path, monkeypatch, argv, cfg):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", "cfg.json"])
    assert exc.value.code == 2
    assert not (tmp_path / "x.csv").exists()


def test_config_switch_and_required_options(tmp_path):
    # a switch set to true and the required options, all from the config
    out = tmp_path / "report.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "A2", "skip-eme": True, "steps": 11, "out": str(out)}))
    assert main(["compare", "--config", str(cfg)]) == 0
    payload = json.loads(out.read_text())
    assert payload["models"]["eme"] is None
    assert len(payload["tau"]) == 11


def test_config_integral_number_for_int_option(tmp_path):
    # JSON numbers 25.0 and 2e1 are integral, so they set integer options
    out = tmp_path / "out.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"delta": 1.0, "steps": 25.0}))
    assert main(["closed-form", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(read_csv(str(out))[1]) == 25
    cfg.write_text('{"sites": 2e1, "delta": 0.5, "steps": 5}')
    assert main(["propagate", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(read_csv(str(out))[0]) == 21


def test_failed_write_leaves_no_files(tmp_path):
    def rows():
        yield (1.0, 2.0)
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError):
        write_csv(str(tmp_path / "a.csv"), ["a", "b"], rows())
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def mode_file(tmp_path_factory):
    # compact synthetic single-guide mode image for the reconstruction CLI
    grid = TransverseGrid.centered(60.0, 60.0, 0.5, 0.5)
    params = RickerParams(3e-3, 4.0, 4.0, 1.457)
    ms = solve_modes(ricker_profile(params, grid), 0.633, 1, check_edges=False)
    path = tmp_path_factory.mktemp("modes") / "mode.txt"
    write_field(str(path), ms.modes[0])
    return str(path)


def test_eme_reconstruct_cli(mode_file, tmp_path):
    out = tmp_path / "index.txt"
    rc = main(["eme-reconstruct", "--mode-file", mode_file, "--out", str(out)])
    assert rc == 0
    rec = read_field(str(out))
    peak = np.nanmax(rec.values)
    assert peak == pytest.approx(1.457 + 3e-3, abs=3e-4)


def test_eme_reconstruct_reports_negative_radicand(mode_file, tmp_path, capsys):
    # an n_eff far below the guide's leaves points whose radicand is negative
    out = tmp_path / "index.txt"
    argv = ["eme-reconstruct", "--mode-file", mode_file, "--n-eff", "0.01", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == "negative radicand at 412 points (masked)\n"
    assert out.exists()


def test_eme_fit_cli(mode_file, tmp_path):
    out = tmp_path / "fit.json"
    rc = main(["eme-fit", "--mode-file", mode_file, "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["delta_n"] == pytest.approx(3e-3, rel=0.05)
    assert payload["sigma_x"] == pytest.approx(4.0, rel=0.05)
    assert payload["fidelity"] > 0.99


@pytest.mark.parametrize("wavelength", ["0", "inf", "nan"])
def test_eme_fit_invalid_wavelength_exits_1(mode_file, tmp_path, capsys, wavelength):
    out = tmp_path / "fit.json"
    argv = ["eme-fit", "--mode-file", str(mode_file), "--wavelength", wavelength]
    assert main([*argv, "--out", str(out)]) == 1
    assert f"wavelength must be finite and > 0, got {float(wavelength)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("eme-reconstruct", ["--n-eff", "nan"], "n_eff must be finite and > 0, got nan"),
        ("eme-reconstruct", ["--n-eff", "-1"], "n_eff must be finite and > 0, got -1.0"),
        ("eme-reconstruct", ["--n0", "nan"], "n0 must be finite and > 0, got nan"),
        ("eme-fit", ["--n0", "nan"], "n0 must be finite and > 0, got nan"),
        ("eme-fit", ["--n0", "inf"], "n0 must be finite and > 0, got inf"),
        ("eme-fit", ["--n0", "0"], "n0 must be finite and > 0, got 0.0"),
    ],
    ids=["reconstruct-n-eff-nan", "reconstruct-n-eff-negative", "reconstruct-n0-nan",
         "fit-n0-nan", "fit-n0-inf", "fit-n0-zero"],
)
def test_eme_invalid_index_exits_1(mode_file, tmp_path, capsys, command, flags, message):
    out = tmp_path / "out.txt"
    assert main([command, "--mode-file", mode_file, *flags, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("x0", ["nan", "inf"])
@pytest.mark.parametrize("command", ["eme-reconstruct", "eme-fit"])
def test_eme_non_finite_origin_exits_1(mode_file, tmp_path, capsys, command, x0):
    bad = tmp_path / "mode.txt"
    bad.write_text(re.sub(r"x0=\S+", f"x0={x0}", pathlib.Path(mode_file).read_text(), count=1))
    out = tmp_path / "out.txt"
    assert main([command, "--mode-file", str(bad), "--out", str(out)]) == 1
    assert f"{bad}: x0 must be finite, got {float(x0)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, name", [("eme-reconstruct", "mode"), ("eme-fit", "measured_mode")])
def test_eme_nan_pixel_exits_1(mode_file, tmp_path, capsys, command, name):
    # named before normalizing, which refuses a NaN without naming the pixel
    mode = read_field(mode_file)
    values = mode.values.copy()
    values[60, 40] = np.nan
    bad = tmp_path / "mode.txt"
    write_field(str(bad), Field(mode.grid, values))
    out = tmp_path / "out.txt"
    assert main([command, "--mode-file", str(bad), "--out", str(out)]) == 1
    assert f"{name}[60, 40] must be finite and >= 0, got nan" in capsys.readouterr().err
    assert not out.exists()


def _readme_cli_lines():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


def test_readme_cli_lines_exit_0(tmp_path, monkeypatch, capsys):
    # the desk-guide mode image that the eme-reconstruct and eme-fit lines read
    monkeypatch.chdir(tmp_path)
    grid = TransverseGrid.centered(72.0, 72.0, 1.0, 1.0)
    ms = solve_modes(ricker_profile(RickerParams(3e-3, 4.0, 4.0, 1.457), grid), 0.633, 1,
                     check_edges=False)
    write_field("mode.txt", ms.modes[0])
    lines = _readme_cli_lines()
    assert len(lines) >= 9
    for argv in lines:
        assert argv[0] == "defectlattice"
        assert main(argv[1:]) == 0, " ".join(argv)
