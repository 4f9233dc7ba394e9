"""Command-line front end.

Every analysis is a subcommand writing a deterministic primary output
(CSV by default, JSON on request) plus a flat JSON sidecar holding the
effective parameters; the sidecar can be fed back through --config to
reproduce the primary output byte for byte.  Explicit flags override
config-file values, which override the built-in defaults.

Exit codes: 0 success, 1 validation error, 2 computation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, output, schur, sweep
from .dynamics import check_mcd_window, mcd_series, series_average
from .errors import ComputationError
from .sequence import (
    CoinAngles,
    apply_termination,
    cut_project_word,
    generate_word,
    parse_termination,
    phason_ensemble,
    word_for_termination,
)
from .spectrum import (
    DEFAULT_LABEL_TOLERANCE,
    DEFAULT_MIN_GAP_WIDTH,
    DEFAULT_PIN_TOLERANCE,
    DEFAULT_Q_MAX,
    DEFAULT_WEIGHT_THRESHOLD,
    classify_edge_modes,
    find_gaps,
    gap_labels,
    quasienergies,
)
from .walk import Timeframe, WalkConfig

SIDECAR_SUFFIX = ".meta.json"
_META_KEYS = ("command", "tool_version", "determinism")
_DETERMINISM_NOTE = "seed-free; outputs are a pure function of the parameters"


class _CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(f"{self.format_usage()}error: {message}")


def _fmt_help(prog):
    return argparse.HelpFormatter(prog, width=96)


@dataclass(frozen=True)
class P:
    """One subcommand parameter: CLI flag, config key, and sidecar entry."""

    key: str
    type: type
    default: object
    help: str
    required: bool = False
    choices: tuple | None = None


def _angle_params():
    return [
        P("theta_a", float, None, "coin angle for letter A, radians", required=True),
        P("theta_b", float, None, "coin angle for letter B, radians", required=True),
    ]


def _grid_params():
    return [
        P("theta_a_min", float, -np.pi, "grid lower edge in theta_a (default: -pi)"),
        P("theta_a_max", float, np.pi, "grid upper edge in theta_a (default: pi)"),
        P("theta_b_min", float, -np.pi, "grid lower edge in theta_b (default: -pi)"),
        P("theta_b_max", float, np.pi, "grid upper edge in theta_b (default: pi)"),
        P("resolution", int, 101, "cells per axis; cells are sampled at their centers (default: 101)"),
        P("workers", int, None, "parallel worker processes (default: machine parallelism)"),
    ]


def _termination_param():
    return P(
        "termination", str, "standard",
        "surface termination: 'standard', a 1-3 letter A/B prefix, or 'phason:<x>' (default: standard)",
    )


def _contour_params(samples_default):
    return [
        P("steps_per_site", int, 2,
          "powers of z per recursion step; 2 reproduces the even-winding convention, "
          "1 is the literal single-power recursion (default: 2)"),
        P("samples", int, samples_default,
          f"initial contour resolution (default: {samples_default})"),
        P("min_modulus", float, schur.DEFAULT_MIN_MODULUS,
          "|f| floor below which the winding is treated as ill-defined "
          f"(default: {schur.DEFAULT_MIN_MODULUS})"),
        P("max_refine_depth", int, schur.DEFAULT_MAX_REFINE_DEPTH,
          f"adaptive contour bisection depth limit (default: {schur.DEFAULT_MAX_REFINE_DEPTH})"),
    ]


def _common_params(default_output, default_format):
    return [
        P("degrees", bool, False, "interpret all angle inputs as degrees"),
        P("output", str, default_output, f"primary output path (default: {default_output})"),
        P("format", str, default_format,
          f"primary output format (default: {default_format})", choices=("csv", "json")),
    ]


_SUBCOMMANDS: dict[str, list[P]] = {
    "word": [
        P("order", int, None, "substitution order, 1..30; exclusive with --length"),
        P("length", int, None, "cut-and-project word length; exclusive with --order"),
        P("phason", float, 0.0, "phason offset for --length mode (default: 0)"),
        _termination_param(),
        *_common_params(None, "json"),
    ],
    "spectrum": [
        *_angle_params(),
        P("n", int, 233, "lattice sites (default: 233)"),
        _termination_param(),
        P("phase_left", float, 0.0, "left reflection phase angle chi, alpha_L = exp(i chi) (default: 0)"),
        P("phase_right", float, 0.0, "right reflection phase angle (default: 0)"),
        P("timeframe", str, "plain", "walk timeframe (default: plain)",
          choices=("plain", "symmetrized")),
        P("min_gap_width", float, DEFAULT_MIN_GAP_WIDTH,
          f"smallest reported spectral gap, radians (default: {DEFAULT_MIN_GAP_WIDTH})"),
        P("edge_sites", int, None, "sites per edge for boundary weights (default: max(5, N/50))"),
        P("weight_threshold", float, DEFAULT_WEIGHT_THRESHOLD,
          f"boundary weight needed to call a state an edge mode (default: {DEFAULT_WEIGHT_THRESHOLD})"),
        P("pin_tolerance", float, DEFAULT_PIN_TOLERANCE,
          f"|E| window for 0/pi pinning (default: {DEFAULT_PIN_TOLERANCE})"),
        P("q_max", int, DEFAULT_Q_MAX, f"gap-label search range |q| <= q_max (default: {DEFAULT_Q_MAX})"),
        P("label_tolerance", float, DEFAULT_LABEL_TOLERANCE,
          f"ids mismatch allowed for a gap label (default: {DEFAULT_LABEL_TOLERANCE})"),
        P("gaps_output", str, None, "optional CSV path for the gap list"),
        *_common_params("spectrum.csv", "csv"),
    ],
    "mcd": [
        *_angle_params(),
        P("n", int, 2584, "lattice sites (default: 2584)"),
        P("steps", int, 1000, "time window T; must stay below N/2 (default: 1000)"),
        P("coin_policy", str, "basis-average",
          "initial coin: 'basis-average' runs |L> and |R> and averages (default: basis-average)",
          choices=("basis-average", "L", "R")),
        P("convention", str, "mean", "time average: plain mean over t=1..T or cesaro (default: mean)",
          choices=("mean", "cesaro")),
        _termination_param(),
        *_common_params("mcd.csv", "csv"),
    ],
    "mcd-map": [
        *_grid_params(),
        P("n", int, 610, "lattice sites (default: 610)"),
        P("steps", int, 250, "time window T; must stay below N/2 (default: 250)"),
        P("coin_policy", str, "basis-average",
          "initial coin policy (default: basis-average)", choices=("basis-average", "L", "R")),
        P("convention", str, "mean", "time average convention (default: mean)",
          choices=("mean", "cesaro")),
        _termination_param(),
        *_common_params("mcd_map.csv", "csv"),
    ],
    "schur-trace": [
        *_angle_params(),
        P("n", int, 233, "recursion cutoff: sites entering the Schur function (default: 233)"),
        _termination_param(),
        *_contour_params(schur.DEFAULT_SAMPLES),
        *_common_params("schur_trace.csv", "csv"),
    ],
    "winding": [
        *_angle_params(),
        P("n", int, 233, "recursion cutoff (default: 233)"),
        _termination_param(),
        *_contour_params(schur.DEFAULT_SAMPLES),
        *_common_params("winding.json", "json"),
    ],
    "winding-map": [
        *_grid_params(),
        P("n", int, 233, "recursion cutoff (default: 233)"),
        _termination_param(),
        *_contour_params(schur.SWEEP_SAMPLES),
        *_common_params("winding_map.csv", "csv"),
    ],
    "winding-average": [
        *_grid_params(),
        P("n", int, 233, "recursion cutoff (default: 233)"),
        P("ensemble", str, "ABA,AAB,BAA,BAB",
          "comma-separated terminations, or 'phason-grid:<k>' for a uniform phason grid "
          "(default: ABA,AAB,BAA,BAB)"),
        *_contour_params(schur.SWEEP_SAMPLES),
        *_common_params("winding_average.csv", "csv"),
    ],
}

_RESULT_KEYS: dict[str, tuple[str, ...]] = {
    "word": ("word",),
    "spectrum": ("n_gaps", "n_edge_modes", "max_residual"),
    "mcd": ("mcd_avg",),
    "mcd-map": ("n_ok", "n_ambiguous", "n_error"),
    "schur-trace": ("f_plus_one_re", "f_plus_one_im", "f_minus_one_re", "f_minus_one_im"),
    "winding": ("winding", "raw_phase_sum", "min_abs_f", "refine_depth_used", "ambiguous"),
    "winding-map": ("n_ok", "n_ambiguous", "n_error"),
    "winding-average": ("n_ok", "n_ambiguous", "n_error"),
}

_ANGLE_KEYS = (
    "theta_a", "theta_b", "theta_a_min", "theta_a_max",
    "theta_b_min", "theta_b_max", "phase_left", "phase_right",
)


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(
        prog="fibwalk",
        formatter_class=_fmt_help,
        description="Quasiperiodic quantum-walk diagnostics: spectra, edge modes, "
                    "mean chiral displacement, and boundary Schur windings.",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"fibwalk {__version__} (output format 1)",
    )
    subs = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")
    sub_map = {}
    descriptions = {
        "word": "Print (and optionally save) a Fibonacci letter word.",
        "spectrum": "Quasienergy spectrum with gap and edge-mode analysis; one CSV row per eigenstate.",
        "mcd": "Mean chiral displacement time series and long-time average.",
        "mcd-map": "MCD long-time average over a (theta_a, theta_b) grid.",
        "schur-trace": "Boundary Schur function sampled along the unit circle.",
        "winding": "Schur winding number at one parameter point.",
        "winding-map": "Schur winding number over a (theta_a, theta_b) grid for one termination.",
        "winding-average": "Ensemble-averaged Schur winding number over a grid.",
    }
    for name, params in _SUBCOMMANDS.items():
        sub = subs.add_parser(
            name, formatter_class=_fmt_help, description=descriptions[name], add_help=True
        )
        sub.add_argument("--config", default=None, metavar="PATH",
                         help="flat JSON file with parameter values; flags override it")
        for p in params:
            flag = "--" + p.key.replace("_", "-")
            if p.type is bool:
                sub.add_argument(flag, action="store_true", default=None, help=p.help)
            else:
                sub.add_argument(flag, type=p.type, default=None, help=p.help,
                                 choices=p.choices)
        sub_map[name] = sub
    return parser, sub_map


def load_config(path: str, command: str) -> dict:
    """Read and validate a flat key-value config document for a subcommand."""
    file = Path(path)
    if not file.exists():
        raise _CliError(f"config file not found: {path}")
    try:
        doc = json.loads(file.read_text())
    except json.JSONDecodeError as exc:
        raise _CliError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise _CliError(f"config file {path} must hold a flat JSON object")
    registry = {p.key: p for p in _SUBCOMMANDS[command]}
    ignored = set(_META_KEYS) | set(_RESULT_KEYS[command])
    values = {}
    for key, value in doc.items():
        if key == "command":
            if value != command:
                raise _CliError(
                    f"config file {path} was written for '{value}', not '{command}'"
                )
            continue
        if key in ignored:
            continue
        if key not in registry:
            raise _CliError(f"config file {path} has unknown key '{key}'")
        if value is None:
            continue
        p = registry[key]
        if p.type is float and isinstance(value, (int, float)) and not isinstance(value, bool):
            values[key] = float(value)
        elif p.type is int and isinstance(value, int) and not isinstance(value, bool):
            values[key] = int(value)
        elif p.type is bool and isinstance(value, bool):
            values[key] = value
        elif p.type is str and isinstance(value, str):
            values[key] = value
        else:
            raise _CliError(
                f"config key '{key}' must be of type {p.type.__name__}, "
                f"got {value!r}"
            )
        if p.choices and values.get(key) is not None and values[key] not in p.choices:
            raise _CliError(f"config key '{key}' must be one of {p.choices}, got {value!r}")
    return values


def _effective_params(command: str, args: argparse.Namespace) -> dict:
    params = {p.key: p.default for p in _SUBCOMMANDS[command]}
    if args.config:
        params.update(load_config(args.config, command))
    for p in _SUBCOMMANDS[command]:
        flag_value = getattr(args, p.key, None)
        if flag_value is not None:
            params[p.key] = flag_value
    if params.get("degrees"):
        for key in _ANGLE_KEYS:
            if params.get(key) is not None:
                params[key] = float(np.deg2rad(params[key]))
        params["degrees"] = False  # sidecar and outputs are canonical radians
    for p in _SUBCOMMANDS[command]:
        if p.required and params.get(p.key) is None:
            raise _CliError(f"missing required parameter --{p.key.replace('_', '-')}")
    return params


def _write_sidecar(command: str, params: dict, results: dict) -> None:
    if not params.get("output"):
        return
    doc = {
        "command": command,
        "tool_version": __version__,
        "determinism": _DETERMINISM_NOTE,
        **{k: v for k, v in params.items()},
        **results,
    }
    output.write_json(str(params["output"]) + SIDECAR_SUFFIX, doc)


def _walk_config(params: dict) -> WalkConfig:
    term = parse_termination(params["termination"])
    word = word_for_termination(params["n"], term)
    return WalkConfig(
        n_sites=params["n"],
        coins=CoinAngles(params["theta_a"], params["theta_b"]),
        word=word,
        boundary_phase_left=complex(np.exp(1j * params.get("phase_left", 0.0))),
        boundary_phase_right=complex(np.exp(1j * params.get("phase_right", 0.0))),
        timeframe=Timeframe(params.get("timeframe", "plain")),
    )


def _run_word(params: dict) -> tuple[str, dict]:
    if (params["order"] is None) == (params["length"] is None):
        raise _CliError("word needs exactly one of --order or --length")
    if params["order"] is not None:
        word = generate_word(params["order"])
    else:
        word = cut_project_word(params["length"], params["phason"])
    word = apply_termination(word, parse_termination(params["termination"]))
    if params["output"]:
        output.write_table(params["output"], ["word"], [[word.letters]], params["format"])
    return word.letters, {"word": word.letters}


def _run_spectrum(params: dict) -> tuple[str, dict]:
    config = _walk_config(params)
    spec = quasienergies(config, edge_sites=params["edge_sites"])
    gaps = find_gaps(spec, params["min_gap_width"])
    labels = gap_labels(gaps, params["q_max"], params["label_tolerance"])
    modes = classify_edge_modes(
        spec, gaps,
        edge_sites=params["edge_sites"],
        weight_threshold=params["weight_threshold"],
        pin_tolerance=params["pin_tolerance"],
    )
    header, rows = output.spectrum_rows(spec, modes)
    output.write_table(params["output"], header, rows, params["format"])
    if params["gaps_output"]:
        gap_rows = [
            [g.lower, g.upper, g.width, g.ids,
             "" if lab is None else lab[0], "" if lab is None else lab[1]]
            for g, lab in zip(gaps, labels)
        ]
        output.write_table(params["gaps_output"],
                           ["lower", "upper", "width", "ids", "p", "q"],
                           gap_rows, "csv")
    n_zero = sum(m.pinning == "zero" for m in modes)
    n_pi = sum(m.pinning == "pi" for m in modes)
    summary = (
        f"N={params['n']} states={len(spec.energies)} gaps={len(gaps)} "
        f"edge_modes={len(modes)} (zero={n_zero}, pi={n_pi}) -> {params['output']}"
    )
    results = {
        "n_gaps": len(gaps),
        "n_edge_modes": len(modes),
        "max_residual": spec.max_residual,
    }
    return summary, results


def _run_mcd(params: dict) -> tuple[str, dict]:
    check_mcd_window(params["n"], params["steps"])
    series = mcd_series(_walk_config(params), params["steps"], params["coin_policy"])
    value = series_average(series, params["convention"])
    header, rows = output.mcd_rows(series)
    output.write_table(params["output"], header, rows, params["format"])
    summary = (
        f"mcd_avg={output.fmt(value)} (N={params['n']}, T={params['steps']}) "
        f"-> {params['output']}"
    )
    return summary, {"mcd_avg": value}


def _contour(params: dict) -> dict:
    """The contour settings, as keywords of SchurParams and the winding sweeps."""
    keys = ("steps_per_site", "samples", "min_modulus", "max_refine_depth")
    return {key: params[key] for key in keys}


def _schur_params(params: dict) -> schur.SchurParams:
    term = parse_termination(params["termination"])
    return schur.reflection_params(
        params["theta_a"], params["theta_b"], params["n"], term, **_contour(params)
    )


def _run_schur_trace(params: dict) -> tuple[str, dict]:
    sp = _schur_params(params)
    phis = np.linspace(0.0, 2.0 * np.pi, params["samples"], endpoint=False)
    values = schur.schur_eval(sp, np.exp(1j * phis))
    header, rows = output.trace_rows(phis, values)
    output.write_table(params["output"], header, rows, params["format"])
    plus, minus = schur.symmetry_point_values(sp)
    summary = (
        f"samples={params['samples']} f(+1)={output.fmt(plus.real)}"
        f"{plus.imag:+.3g}i f(-1)={output.fmt(minus.real)}{minus.imag:+.3g}i "
        f"-> {params['output']}"
    )
    results = {
        "f_plus_one_re": plus.real, "f_plus_one_im": plus.imag,
        "f_minus_one_re": minus.real, "f_minus_one_im": minus.imag,
    }
    return summary, results


def _run_winding(params: dict) -> tuple[str, dict]:
    result = schur.winding_number(_schur_params(params))
    header, rows = output.winding_rows(result)
    output.write_table(params["output"], header, rows, params["format"])
    summary = (
        f"W={result.winding} raw={output.fmt(result.raw_phase_sum)} "
        f"ambiguous={str(result.ambiguous).lower()} -> {params['output']}"
    )
    results = {
        "winding": result.winding,
        "raw_phase_sum": result.raw_phase_sum,
        "min_abs_f": result.min_abs_f,
        "refine_depth_used": result.refine_depth_used,
        "ambiguous": result.ambiguous,
    }
    return summary, results


def _grid(params: dict) -> sweep.GridSpec:
    return sweep.GridSpec(
        theta_a_lo=params["theta_a_min"], theta_a_hi=params["theta_a_max"],
        theta_b_lo=params["theta_b_min"], theta_b_hi=params["theta_b_max"],
        resolution=params["resolution"],
    )


def _finish_map(diagram: sweep.PhaseDiagram, params: dict) -> tuple[str, dict]:
    header, rows = output.sweep_rows(diagram)
    output.write_table(params["output"], header, rows, params["format"])
    counts = {
        "n_ok": diagram.statuses.count(sweep.STATUS_OK),
        "n_ambiguous": diagram.statuses.count(sweep.STATUS_AMBIGUOUS),
        "n_error": diagram.statuses.count(sweep.STATUS_ERROR),
    }
    summary = (
        f"{diagram.kind} {params['resolution']}x{params['resolution']} "
        f"ok={counts['n_ok']} ambiguous={counts['n_ambiguous']} "
        f"error={counts['n_error']} -> {params['output']}"
    )
    return summary, counts


def _run_mcd_map(params: dict) -> tuple[str, dict]:
    diagram = sweep.sweep_mcd(
        _grid(params), params["n"], params["steps"],
        coin_policy=params["coin_policy"],
        termination=parse_termination(params["termination"]),
        convention=params["convention"],
        workers=params["workers"],
    )
    return _finish_map(diagram, params)


def _run_winding_map(params: dict) -> tuple[str, dict]:
    diagram = sweep.sweep_winding(
        _grid(params),
        termination=parse_termination(params["termination"]),
        n_sites=params["n"],
        workers=params["workers"],
        **_contour(params),
    )
    return _finish_map(diagram, params)


def _parse_ensemble(text: str):
    if text.lower().startswith("phason-grid:"):
        return phason_ensemble(int(text.split(":", 1)[1]))
    return tuple(parse_termination(part) for part in text.split(",") if part.strip())


def _run_winding_average(params: dict) -> tuple[str, dict]:
    diagram = sweep.sweep_winding_average(
        _grid(params),
        ensemble=_parse_ensemble(params["ensemble"]),
        n_sites=params["n"],
        workers=params["workers"],
        **_contour(params),
    )
    return _finish_map(diagram, params)


_RUNNERS = {
    "word": _run_word,
    "spectrum": _run_spectrum,
    "mcd": _run_mcd,
    "mcd-map": _run_mcd_map,
    "schur-trace": _run_schur_trace,
    "winding": _run_winding,
    "winding-map": _run_winding_map,
    "winding-average": _run_winding_average,
}


def main(argv=None) -> int:
    parser, _ = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _CliError(parser.format_usage() + "error: a subcommand is required")
        params = _effective_params(args.command, args)
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except (_CliError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 1

    try:
        summary, results = _RUNNERS[args.command](params)
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2
    except (_CliError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    _write_sidecar(args.command, params, results)
    print(summary)
    return 0


def console_main() -> None:
    sys.exit(main())
