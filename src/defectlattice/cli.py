"""Command-line front end.

Subcommands: closed-form, propagate, finite-size, eme-simulate,
eme-reconstruct, eme-fit, compare, preset.  Each accepts --config FILE, a
JSON object whose keys are full long option names (``-`` or ``_``).  The
keys are read as flags placed ahead of the command line's own, so a config
value is type- and choice-checked like a flag and an explicit flag wins;
``true`` sets a switch, ``false`` and ``null`` leave an option at its
default.  Flags, like keys, must name their option in full.  Exit codes: 0
on success, 1 on domain errors, 2 on usage errors (unknown keys, flag
prefixes and bad values included).

Units on the wire: tau = beta*z is dimensionless, couplings are 1/cm,
transverse lengths and wavelengths are um, propagation distances cm.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import errors
from .experiments import (
    DEFAULT_EME_CONFIG,
    EmeConfig,
    compare_models,
    preset,
    preset_labels,
    run_eme,
)
from .finitesize import DEFAULT_N_REF, deviation, onset_time
from .lattice import (
    LatticeSpec,
    TimeGrid,
    build_hamiltonian,
    effective_decay_rate,
    initial_state,
    propagate,
    site_probabilities,
)
from .survival import c0_closed_form
from .eme.grid import read_field, write_field, Field
from .eme.reconstruct import DEFAULT_FLOOR, fit_ricker, implied_n_eff, reconstruct_index
from .svgplot import line_chart
from .textio import atomic_write, write_csv

# ValueError covers the toolkit's invalid-input exceptions and a malformed
# --config file, OSError a file that cannot be read or written (missing, a
# directory, no permission); option values are checked by argparse before
# any command runs
_DOMAIN_ERRORS = (
    ValueError,
    errors.SeriesDivergenceError,
    errors.QuadratureError,
    errors.EigensolverError,
    errors.SigmaExtractionError,
    errors.FitFailureError,
    OSError,
)

_TAU_LABEL = "tau = beta z"


def _write_json(path: str, payload: dict) -> None:
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _steps(text: str) -> int:
    """``--steps`` value: an integer >= 2, the fewest points a tau grid takes."""
    try:
        steps = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if steps < 2:
        raise argparse.ArgumentTypeError(f"must be >= 2, got {steps}")
    return steps


# ---------------------------------------------------------------- commands

def _write_table(args, columns: dict, series=(), y_label="", title="", log_y=False):
    """Write ``columns`` (CSV header -> values, ``tau`` first) to ``--out``.
    Before that, if ``--svg`` was given, chart ``series`` there: (legend,
    column header) pairs over tau.  A chart that cannot be drawn thus fails
    the command before any file is written."""
    if series and args.svg:
        lines = [(name, columns["tau"], columns[key]) for name, key in series]
        line_chart(args.svg, lines, _TAU_LABEL, y_label, title, log_y)
    write_csv(args.out, list(columns), zip(*columns.values()))


def _cmd_closed_form(args):
    grid = TimeGrid.uniform(args.tau_max, args.steps)
    c0 = np.array([c0_closed_form(args.delta, t, mode=args.mode) for t in grid.tau])
    prob = np.abs(c0) ** 2
    columns = {
        "tau": grid.tau,
        "re_c0": c0.real,
        "im_c0": c0.imag,
        "prob": prob,
        "gamma_eff": effective_decay_rate(prob, grid),
    }
    _write_table(args, columns, [("|c0|^2", "prob")], "survival probability",
                 f"closed form, delta={args.delta}")
    return 0


def _cmd_propagate(args):
    # the time axis is always the dimensionless tau = beta*z, so only the
    # site count and the coupling ratio enter
    spec = LatticeSpec(n_sites=args.sites, delta=args.delta)
    grid = TimeGrid.uniform(args.tau_max, args.steps)
    trace = propagate(build_hamiltonian(spec), initial_state(spec.n_sites), grid)
    probs = site_probabilities(trace)
    columns = {"tau": grid.tau, **{f"prob_site_{i}": p for i, p in enumerate(probs.T)}}
    _write_table(args, columns, [("site 0", "prob_site_0")], "site probability",
                 f"N={spec.n_sites}, delta={spec.delta}")
    return 0


def _cmd_finite_size(args):
    grid = TimeGrid.uniform(args.tau_max, args.steps)
    ser = deviation(args.delta, args.sites, grid, args.ref_sites)
    # the onset first, so that a bad threshold fails before any file is written
    onset = None if args.threshold is None else onset_time(ser, args.threshold)
    columns = {"tau": grid.tau, "d_n": ser.d_values, "c_n": ser.c_values}
    _write_table(args, columns, [("D_N", "d_n"), ("C_N", "c_n")], "deviation",
                 f"N={args.sites} vs {args.ref_sites}, delta={args.delta}", log_y=True)
    if args.threshold is not None:
        print("" if onset is None else format(onset, ".17g"))
    return 0


def _eme_config_from(args) -> EmeConfig:
    return EmeConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(EmeConfig)})


def _cmd_eme_simulate(args):
    exp = preset(args.preset)
    grid = TimeGrid.uniform(args.tau_max, args.steps)
    run = run_eme(exp, grid, _eme_config_from(args), coherent=args.coherent)
    sites = {f"c2_site_{i}": p for i, p in enumerate(run.site_probs.T)}
    _write_table(args, {"tau": grid.tau, "z_cm": grid.tau / run.beta_fit, **sites})
    if args.calibration_out:
        _write_json(args.calibration_out, {"preset": exp.label, **run.calibration()})
    return 0


def _cmd_eme_reconstruct(args):
    mode = read_field(args.mode_file).normalized()
    n_eff = implied_n_eff(mode, args.wavelength, args.n0) if args.n_eff is None else args.n_eff
    rec = reconstruct_index(mode, n_eff, args.wavelength, args.floor)
    write_field(args.out, Field(rec.grid, rec.n))
    if rec.negative_count:
        print(f"negative radicand at {rec.negative_count} points (masked)", file=sys.stderr)
    return 0


def _cmd_eme_fit(args):
    mode = read_field(args.mode_file)
    params, fidelity = fit_ricker(mode, args.wavelength, args.n0, args.floor)
    _write_json(
        args.out,
        {
            "delta_n": params.delta_n,
            "sigma_x": params.sigma_x,
            "sigma_y": params.sigma_y,
            "n0": params.n0,
            "fidelity": fidelity,
        },
    )
    return 0


def _cmd_compare(args):
    exp = preset(args.preset)
    grid = TimeGrid.uniform(exp.tau_max, args.steps)
    report = compare_models(exp, grid, _eme_config_from(args), include_eme=not args.skip_eme)
    if args.svg:
        series = [
            ("closed form", report.tau, report.closed_form_prob0),
            ("coupled mode", report.tau, report.coupled_probs[:, 0]),
        ]
        if report.eme is not None:
            series.append(("EME", report.tau, report.eme.site_probs[:, 0]))
        line_chart(args.svg, series, _TAU_LABEL, "survival probability |c0|^2",
                   f"preset {exp.label}")
    _write_json(args.out, report.to_json_dict())
    return 0


def _cmd_preset(args):
    exp = preset(args.label)
    payload = {
        "label": exp.label,
        "d0_um": exp.d0,
        "d_um": exp.d,
        "beta0_per_cm": exp.beta0,
        "beta_per_cm": exp.beta,
        "delta": exp.delta,
        "n_sites": exp.n_sites,
        "tau_max": exp.tau_max,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for k, v in payload.items():
            print(f"{k}={v}")
    return 0


# ---------------------------------------------------------------- wiring

def _add_tau_axis(p: argparse.ArgumentParser, steps: int):
    p.add_argument("--tau-max", type=float, default=4.0)
    p.add_argument("--steps", type=_steps, default=steps)


def _add_eme_options(p: argparse.ArgumentParser):
    for f in dataclasses.fields(EmeConfig):
        default = getattr(DEFAULT_EME_CONFIG, f.name)
        p.add_argument(f"--{f.name.replace('_', '-')}", type=float, default=default)


def _add_mode_image(p: argparse.ArgumentParser):
    p.add_argument("--mode-file", required=True)
    p.add_argument("--wavelength", type=float, default=DEFAULT_EME_CONFIG.wavelength)
    p.add_argument("--n0", type=float, default=DEFAULT_EME_CONFIG.n0)
    p.add_argument("--floor", type=float, default=DEFAULT_FLOOR)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defectlattice",
        description="Boundary-defect lattice dynamics and EME optics toolkit",
        epilog="Every command also takes --config FILE, JSON option values that flags override.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every subcommand takes full option names only: a unique prefix would
    # silently set another option (`compare --delta 1.05` sets --delta-n)

    p = sub.add_parser("closed-form", help="survival amplitude c0(tau) to CSV", allow_abbrev=False)
    p.add_argument("--delta", type=float, required=True)
    _add_tau_axis(p, steps=400)
    p.add_argument("--mode", choices=["reconciled", "printed"], default="reconciled")
    p.add_argument("--out", required=True)
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_closed_form)

    p = sub.add_parser("propagate", help="finite-chain site probabilities to CSV", allow_abbrev=False)
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    _add_tau_axis(p, steps=400)
    p.add_argument("--out", required=True)
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("finite-size", help="deviation D_N and C_N to CSV", allow_abbrev=False)
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--ref-sites", type=int, default=DEFAULT_N_REF)
    p.add_argument("--delta", type=float, required=True)
    _add_tau_axis(p, steps=400)
    p.add_argument("--threshold", type=float, help="print onset time for this D_N threshold")
    p.add_argument("--out", required=True)
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_finite_size)

    p = sub.add_parser("eme-simulate", help="EME per-guide intensity traces to CSV", allow_abbrev=False)
    p.add_argument("--preset", choices=list(preset_labels()), required=True)
    _add_tau_axis(p, steps=40)
    p.add_argument("--coherent", action="store_true")
    p.add_argument("--calibration-out")
    _add_eme_options(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eme_simulate)

    p = sub.add_parser("eme-reconstruct", help="invert a mode image to an index map", allow_abbrev=False)
    _add_mode_image(p)
    p.add_argument("--n-eff", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eme_reconstruct)

    p = sub.add_parser("eme-fit", help="fit guide parameters to a mode image", allow_abbrev=False)
    _add_mode_image(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eme_fit)

    p = sub.add_parser("compare", help="three-way model comparison report (JSON)", allow_abbrev=False)
    p.add_argument("--preset", choices=list(preset_labels()), required=True)
    p.add_argument("--steps", type=_steps, default=401)
    p.add_argument("--skip-eme", action="store_true")
    _add_eme_options(p)
    p.add_argument("--out", required=True)
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("preset", help="print a Table-style array preset", allow_abbrev=False)
    p.add_argument("label", choices=list(preset_labels()))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_preset)

    return parser


def _flag_value(value) -> str:
    # an integral JSON number (400.0, 1e2) must still parse as an int option
    return str(int(value)) if isinstance(value, float) and value.is_integer() else str(value)


def _with_config(argv):
    """(argv with --config FILE's keys as flags right after the subcommand, so
    argparse's last-occurrence rule lets the user's flags win; the keys).
    ``true`` is a bare switch, ``false``/``null`` add nothing, other values
    become ``--key=value`` (so a value starting with ``-`` stays a value)."""
    # without abbreviations a prefix of --config fails as unrecognized
    pre = argparse.ArgumentParser(prog="defectlattice", add_help=False, allow_abbrev=False)
    pre.add_argument("--config", metavar="FILE")
    known, rest = pre.parse_known_args(argv)
    if known.config is None:
        return rest, []
    with open(known.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        pre.error("--config must contain a JSON object")
    flags = [
        f"--{key.replace('_', '-')}" + ("" if value is True else f"={_flag_value(value)}")
        for key, value in cfg.items()
        if value is not False and value is not None
    ]
    return rest[:1] + flags + rest[1:], list(cfg)


def main(argv=None) -> int:
    try:
        argv, keys = _with_config(argv)
        parser = build_parser()
        args = parser.parse_args(argv)
        # a key set to false or null adds no flag for argparse to reject
        unknown = [k for k in keys if k.replace("-", "_") not in vars(args)]
        if unknown:
            parser.error(f"unrecognized --config keys: {' '.join(unknown)}")
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
