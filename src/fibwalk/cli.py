"""Command-line front end.

Every analysis is a subcommand writing a deterministic primary output
(CSV by default, JSON on request) plus a flat JSON sidecar holding the
effective parameters; the sidecar can be fed back through --config to
reproduce the primary output byte for byte.  Explicit flags override
config-file values, which override the built-in defaults.  Each
subcommand is declared once, on its runner.

Exit codes: 0 success, 1 validation error, 2 computation error (a broken
worker pool included).  A call that fails leaves none of its output files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, output, schur, sweep
from .dynamics import BASIS_AVERAGE, check_mcd_window, mcd_series, series_average
from .errors import ComputationError
from .sequence import (
    TERMINATION_PREFIXES,
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


_ANGLES = (
    P("theta_a", float, None, "coin angle for letter A, radians", required=True),
    P("theta_b", float, None, "coin angle for letter B, radians", required=True),
)

_GRID = (
    P("theta_a_min", float, -np.pi, "grid lower edge in theta_a (default: -pi)"),
    P("theta_a_max", float, np.pi, "grid upper edge in theta_a (default: pi)"),
    P("theta_b_min", float, -np.pi, "grid lower edge in theta_b (default: -pi)"),
    P("theta_b_max", float, np.pi, "grid upper edge in theta_b (default: pi)"),
    P("resolution", int, sweep.DEFAULT_RESOLUTION,
      f"cells per axis; cells are sampled at their centers (default: {sweep.DEFAULT_RESOLUTION})"),
    P("workers", int, None, "parallel worker processes (default: machine parallelism)"),
)

_TERMINATION = P("termination", str, "standard", "surface termination: 'standard', a 1-3 "
                 "letter A/B prefix, or 'phason:<x>' (default: standard)")

_BOUNDARY = (
    P("phase_left", float, 0.0,
      "left reflection phase angle chi, a multiple of pi; alpha_L = exp(i chi) (default: 0)"),
    P("phase_right", float, 0.0, "right reflection phase angle, a multiple of pi (default: 0)"),
    P("timeframe", str, Timeframe.PLAIN.value, f"walk timeframe (default: {Timeframe.PLAIN.value})",
      choices=tuple(t.value for t in Timeframe)),
)

_CUTOFF = P("n", int, schur.DEFAULT_CUTOFF, f"recursion cutoff (default: {schur.DEFAULT_CUTOFF})")

_COIN_POLICIES = (BASIS_AVERAGE, "L", "R")


def _contour_params(samples_default):
    return (
        P("samples", int, samples_default,
          f"initial contour resolution (default: {samples_default})"),
        P("min_modulus", float, schur.DEFAULT_MIN_MODULUS,
          "|f| floor below which the winding is treated as ill-defined "
          f"(default: {schur.DEFAULT_MIN_MODULUS})"),
        P("max_refine_depth", int, schur.DEFAULT_MAX_REFINE_DEPTH,
          f"adaptive contour bisection depth limit (default: {schur.DEFAULT_MAX_REFINE_DEPTH})"),
    )


def _common_params(default_output, default_format):
    return (
        P("degrees", bool, False, "interpret all angle inputs as degrees"),
        P("output", str, default_output, f"primary output path (default: {default_output})"),
        P("format", str, default_format,
          f"primary output format (default: {default_format})", choices=("csv", "json")),
    )


@dataclass(frozen=True)
class _Command:
    """A subcommand: help description, parameters, sidecar result keys and runner."""

    description: str
    params: tuple[P, ...]
    results: tuple[str, ...]  # the keys the runner adds to the sidecar; --config skips them
    run: Callable[[dict], tuple[str, dict]]


_COMMANDS: dict[str, _Command] = {}  # in declaration order, which is the help order


def _command(name: str, description: str, results: tuple[str, ...], *params: P):
    """Declare the decorated runner as subcommand `name`."""
    def register(run):
        _COMMANDS[name] = _Command(description, params, results, run)
        return run
    return register


_MAP_RESULTS = tuple(f"n_{status}" for status in sweep.STATUSES)

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
    parser.add_argument("--version", action="version",
                        version=f"fibwalk {__version__} (output format 1)")
    subs = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")
    sub_map = {}
    for name, command in _COMMANDS.items():
        sub = subs.add_parser(name, formatter_class=_fmt_help,
                              description=command.description, add_help=True)
        sub.add_argument("--config", default=None, metavar="PATH",
                         help="flat JSON file with parameter values; flags override it")
        for p in command.params:
            flag = "--" + p.key.replace("_", "-")
            if p.type is bool:
                sub.add_argument(flag, action="store_true", default=None, help=p.help)
            else:
                sub.add_argument(flag, type=p.type, default=None, help=p.help,
                                 choices=p.choices)
        sub_map[name] = sub
    return parser, sub_map


def load_config(path: str, command: str) -> dict:
    """Read and validate a flat key-value config document for a subcommand.

    A value must have its parameter's type exactly (an int is also a float);
    it is stored converted to that type.
    """
    file = Path(path)
    if not file.exists():
        raise _CliError(f"config file not found: {path}")
    try:
        doc = json.loads(file.read_text())
    except json.JSONDecodeError as exc:
        raise _CliError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise _CliError(f"config file {path} must hold a flat JSON object")
    declared = _COMMANDS[command]
    registry = {p.key: p for p in declared.params}
    ignored = set(_META_KEYS) | set(declared.results)
    values = {}
    for key, value in doc.items():
        if key == "command":
            if value != command:
                raise _CliError(f"config file {path} was written for '{value}', "
                                f"not '{command}'")
            continue
        if key in ignored:
            continue
        if key not in registry:
            raise _CliError(f"config file {path} has unknown key '{key}'")
        if value is None:
            continue
        p = registry[key]
        if not (type(value) is p.type or (p.type is float and type(value) is int)):
            raise _CliError(f"config key '{key}' must be of type {p.type.__name__}, "
                            f"got {value!r}")
        try:
            values[key] = p.type(value)
        except OverflowError as exc:
            raise _CliError(f"config key '{key}' is out of range for "
                            f"{p.type.__name__}: {exc}") from exc
        if p.choices and values[key] not in p.choices:
            raise _CliError(f"config key '{key}' must be one of {p.choices}, got {value!r}")
    return values


def _effective_params(command: str, args: argparse.Namespace) -> dict:
    declared = _COMMANDS[command].params
    params = {p.key: p.default for p in declared}
    if args.config:
        params.update(load_config(args.config, command))
    for p in declared:
        flag_value = getattr(args, p.key, None)
        if flag_value is not None:
            params[p.key] = flag_value
    if params.get("degrees"):
        for key in _ANGLE_KEYS:
            if params.get(key) is not None:
                params[key] = float(np.deg2rad(params[key]))
        params["degrees"] = False  # sidecar and outputs are canonical radians
    for p in declared:
        if p.required and params.get(p.key) is None:
            raise _CliError(f"missing required parameter --{p.key.replace('_', '-')}")
    return params


def _write_sidecar(command: str, params: dict, results: dict) -> None:
    if not params.get("output"):
        return
    doc = {"command": command, "tool_version": __version__,
           "determinism": _DETERMINISM_NOTE, **params, **results}
    output.write_json(str(params["output"]) + SIDECAR_SUFFIX, doc)


def _boundary_phase(params: dict, key: str) -> float:
    """exp(i angle) for an angle that is a multiple of pi up to its rounding,
    exactly +-1, so --phase-left 3.141592653589793 gives -1.  Any other
    angle would break the walk's chiral symmetry and is rejected."""
    angle = params.get(key, 0.0)
    if not math.isfinite(angle):
        raise ValueError(f"{key} must be finite, got {angle!r}")
    phase = complex(np.exp(1j * angle))
    if not abs(phase.imag) <= 2.0 * np.finfo(float).eps * max(1.0, abs(angle)):
        raise ValueError(f"{key} must be a multiple of pi, got {angle!r}")
    return math.copysign(1.0, phase.real)


def _walk_config(params: dict) -> WalkConfig:
    word = word_for_termination(params["n"], parse_termination(params["termination"]))
    return WalkConfig(
        n_sites=params["n"],
        coins=CoinAngles(params["theta_a"], params["theta_b"]),
        word=word,
        boundary_phase_left=_boundary_phase(params, "phase_left"),
        boundary_phase_right=_boundary_phase(params, "phase_right"),
        timeframe=Timeframe(params.get("timeframe", Timeframe.PLAIN.value)),
    )


@_command(
    "word", "Print (and optionally save) a Fibonacci letter word.", ("word",),
    P("order", int, None, "substitution order, 1..30; exclusive with --length"),
    P("length", int, None, "cut-and-project word length; exclusive with --order"),
    P("phason", float, 0.0, "phason offset for --length mode (default: 0)"),
    _TERMINATION,
    *_common_params(None, "json"),
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


@_command(
    "spectrum",
    "Quasienergy spectrum with gap and edge-mode analysis; one CSV row per eigenstate.",
    ("n_gaps", "n_edge_modes", "max_residual"),
    *_ANGLES,
    P("n", int, 233, "lattice sites (default: 233)"),
    _TERMINATION,
    *_BOUNDARY,
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
)
def _run_spectrum(params: dict) -> tuple[str, dict]:
    config = _walk_config(params)
    spec = quasienergies(config, edge_sites=params["edge_sites"])
    gaps = find_gaps(spec, params["min_gap_width"])
    labels = gap_labels(gaps, params["q_max"], params["label_tolerance"])
    modes = classify_edge_modes(
        spec, gaps,
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
    results = {"n_gaps": len(gaps), "n_edge_modes": len(modes), "max_residual": spec.max_residual}
    return summary, results


@_command(
    "mcd", "Mean chiral displacement time series and long-time average.", ("mcd_avg",),
    *_ANGLES,
    P("n", int, 2584, "lattice sites (default: 2584)"),
    P("steps", int, 1000, "time window T; must stay below N/2 (default: 1000)"),
    P("coin_policy", str, BASIS_AVERAGE,
      f"initial coin: '{BASIS_AVERAGE}' runs |L> and |R> and averages (default: {BASIS_AVERAGE})",
      choices=_COIN_POLICIES),
    P("convention", str, "mean", "time average: plain mean over t=1..T or cesaro (default: mean)",
      choices=("mean", "cesaro")),
    _TERMINATION,
    *_BOUNDARY,
    *_common_params("mcd.csv", "csv"),
)
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


def _grid(params: dict) -> sweep.GridSpec:
    keys = ("theta_a_min", "theta_a_max", "theta_b_min", "theta_b_max", "resolution")
    return sweep.GridSpec(*(params[key] for key in keys))


def _finish_map(diagram: sweep.PhaseDiagram, params: dict) -> tuple[str, dict]:
    header, rows = output.sweep_rows(diagram)
    output.write_table(params["output"], header, rows, params["format"])
    counts = {status: diagram.statuses.count(status) for status in sweep.STATUSES}
    summary = (
        f"{diagram.kind} {params['resolution']}x{params['resolution']} "
        + " ".join(f"{status}={count}" for status, count in counts.items())
        + f" -> {params['output']}"
    )
    return summary, dict(zip(_MAP_RESULTS, counts.values()))


@_command(
    "mcd-map", "MCD long-time average over a (theta_a, theta_b) grid.", _MAP_RESULTS,
    *_GRID,
    P("n", int, 610, "lattice sites (default: 610)"),
    P("steps", int, 250, "time window T; must stay below N/2 (default: 250)"),
    P("coin_policy", str, BASIS_AVERAGE,
      f"initial coin policy (default: {BASIS_AVERAGE})", choices=_COIN_POLICIES),
    P("convention", str, "mean", "time average convention (default: mean)",
      choices=("mean", "cesaro")),
    _TERMINATION,
    *_common_params("mcd_map.csv", "csv"),
)
def _run_mcd_map(params: dict) -> tuple[str, dict]:
    diagram = sweep.sweep_mcd(
        _grid(params), params["n"], params["steps"],
        coin_policy=params["coin_policy"],
        termination=parse_termination(params["termination"]),
        convention=params["convention"],
        workers=params["workers"],
    )
    return _finish_map(diagram, params)


def _contour(params: dict) -> schur.Contour:
    """The declared contour settings; an undeclared one keeps its default."""
    return schur.Contour(**{f.name: params[f.name] for f in fields(schur.Contour)
                            if f.name in params})


def _schur_params(params: dict) -> schur.SchurParams:
    term = parse_termination(params["termination"])
    return schur.reflection_params(params["theta_a"], params["theta_b"], params["n"], term,
                                   _contour(params))


@_command(
    "schur-trace", "Boundary Schur function sampled along the unit circle.",
    ("f_plus_one_re", "f_plus_one_im", "f_minus_one_re", "f_minus_one_im"),
    *_ANGLES,
    P("n", int, schur.DEFAULT_CUTOFF,
      f"recursion cutoff: sites entering the Schur function (default: {schur.DEFAULT_CUTOFF})"),
    _TERMINATION,
    *_contour_params(schur.DEFAULT_SAMPLES)[:1],  # a trace refines nothing
    *_common_params("schur_trace.csv", "csv"),
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
    return summary, {"f_plus_one_re": plus.real, "f_plus_one_im": plus.imag,
                     "f_minus_one_re": minus.real, "f_minus_one_im": minus.imag}


@_command(
    "winding", "Schur winding number at one parameter point.", output.WINDING_COLUMNS,
    *_ANGLES,
    _CUTOFF,
    _TERMINATION,
    *_contour_params(schur.DEFAULT_SAMPLES),
    *_common_params("winding.json", "json"),
)
def _run_winding(params: dict) -> tuple[str, dict]:
    result = schur.winding_number(_schur_params(params))
    header, rows = output.winding_rows(result)
    output.write_table(params["output"], header, rows, params["format"])
    summary = (
        f"W={result.winding} raw={output.fmt(result.raw_phase_sum)} "
        f"ambiguous={str(result.ambiguous).lower()} -> {params['output']}"
    )
    return summary, asdict(result)


@_command(
    "winding-map",
    "Schur winding number over a (theta_a, theta_b) grid for one termination.",
    _MAP_RESULTS,
    *_GRID,
    _CUTOFF,
    _TERMINATION,
    *_contour_params(schur.SWEEP_SAMPLES),
    *_common_params("winding_map.csv", "csv"),
)
def _run_winding_map(params: dict) -> tuple[str, dict]:
    diagram = sweep.sweep_winding(
        _grid(params),
        termination=parse_termination(params["termination"]),
        n_sites=params["n"],
        contour=_contour(params),
        workers=params["workers"],
    )
    return _finish_map(diagram, params)


def _parse_ensemble(text: str):
    if text.lower().startswith("phason-grid:"):
        return phason_ensemble(int(text.split(":", 1)[1]))
    return tuple(parse_termination(part) for part in text.split(",") if part.strip())


_DEFAULT_ENSEMBLE = ",".join(TERMINATION_PREFIXES)


@_command(
    "winding-average", "Ensemble-averaged Schur winding number over a grid.", _MAP_RESULTS,
    *_GRID,
    _CUTOFF,
    P("ensemble", str, _DEFAULT_ENSEMBLE,
      "comma-separated terminations, or 'phason-grid:<k>' for a uniform phason grid "
      f"(default: {_DEFAULT_ENSEMBLE})"),
    *_contour_params(schur.SWEEP_SAMPLES),
    *_common_params("winding_average.csv", "csv"),
)
def _run_winding_average(params: dict) -> tuple[str, dict]:
    diagram = sweep.sweep_winding_average(
        _grid(params),
        ensemble=_parse_ensemble(params["ensemble"]),
        n_sites=params["n"],
        contour=_contour(params),
        workers=params["workers"],
    )
    return _finish_map(diagram, params)


def main(argv=None) -> int:
    parser, _ = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _CliError(parser.format_usage() + "error: a subcommand is required")
        params = _effective_params(args.command, args)
        with output.all_or_nothing():
            summary, results = _COMMANDS[args.command].run(params)
            _write_sidecar(args.command, params, results)
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except (ComputationError, BrokenProcessPool) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # _CliError, and a file that cannot be read or written
        print(str(exc), file=sys.stderr)
        return 1
    print(summary)
    return 0


def console_main() -> None:
    sys.exit(main())
