"""Command-line entry point.

One JSON configuration file drives every pipeline stage; command-line flags
override individual fields. Every value, from the file or a flag, is checked
against its RunConfig field's type hint (`_field`), and every number, also
inside `base` and `coeffs`, by one rule (`_number`). Values are stored as
given. The flags are derived from RunConfig's fields and the base forms, and
the parser is built once, at import. One table (_COMMANDS) names the fields
each command reads: its CSV header echoes those fields, so identical
configurations produce byte-identical files, and a value other than the
default in any other field is refused. Exit codes: 0 success, 2 validation
failure, 3 numerical failure or a size that does not fit in memory
(module-tagged message on stderr).
Each command imports the modules it runs, so a one-shot run loads only those.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, get_args, get_type_hints

import numpy as np

from ._format import _fmt
from .errors import NumericalError, ValidationError
from .radial_model import (Bargmann1, Bargmann2, PotentialForm, SpectralParams, ZeroForm,
                           make_spectral_params)

if TYPE_CHECKING:
    from .perturbation import Amplitude, GeometricTail

_MOD = "cli"


@dataclass
class RunConfig:
    command: str = ""
    d: int = 3
    delta: float = 0.5
    T: float = 2.0
    K: int = 16
    M: int = 256
    base: dict = field(default_factory=lambda: {"kind": "zero"})
    coeffs: dict = field(default_factory=dict)
    scales: list = field(default_factory=lambda: [1e-1, 1e-2, 1e-3, 1e-4])
    output: str | None = field(default=None, metadata={"help": "output CSV path ('-' for stdout)"})
    precision: int = field(default=256, metadata={"help": "working precision in bits"})
    tolerance: float = 1e-11  # weyl_titchmarsh._TOLERANCE, without loading weyl_titchmarsh
    n: int = field(default=10, metadata={"help": "orthonormalization table size"})

    def header_lines(self) -> list[str]:
        """The fields the command reads, in field order."""
        lines = []
        for f in dataclasses.fields(self):
            if f.name in _COMMANDS[self.command][1]:
                v = getattr(self, f.name)
                if isinstance(v, (dict, list)):
                    v = json.dumps(v, sort_keys=True, separators=(",", ":"))
                lines.append(f"{f.name} = {v}")
        return lines


_HINTS = get_type_hints(RunConfig)
# the scalar fields and their types; each is set by the flag of its name
_SCALARS = {name: kind for name, hint in _HINTS.items()
            if (kind := (get_args(hint) or (hint,))[0]) in (int, float, str)}
_FORMS = {form.kind: form for form in (ZeroForm, Bargmann1, Bargmann2)}
_WELL_KEYS = [f.name for form in _FORMS.values() for f in dataclasses.fields(form)]
_GENERATOR_KEYS = ("a", "rho")


def _number(val, what: str):
    """The one number rule, for every number of a config file or a flag: a
    finite int or float that is not a bool. json.load takes NaN and Infinity,
    argparse's float nan and inf, and a JSON int may lie past the float range."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ValidationError(f"{what} must be a number, got {val!r}", _MOD)
    if not abs(val) <= sys.float_info.max:  # NaN fails too
        raise ValidationError(f"{what} must be finite, got {val!r}", _MOD)
    return val


def _field(name: str, val):
    """Check a value for the RunConfig field name against the field's type
    hint and return it as given: an int field takes an integer, a float field
    any number, scales a list of numbers."""
    kinds = get_args(_HINTS[name]) or (_HINTS[name],)
    if val is None and type(None) in kinds:
        return val
    if float in kinds:
        return _number(val, name)
    if int in kinds:
        if type(_number(val, name)) is int:
            return val
    elif list in kinds:
        if isinstance(val, list):
            return [_number(v, name) for v in val]
    elif isinstance(val, kinds):
        return val
    raise ValidationError(f"{name} has the wrong type: {val!r}", _MOD)


def _known_keys(spec, keys: tuple[str, ...], what: str) -> None:
    """Reject a spec that is not an object, or has a key outside keys: a
    misspelled key would otherwise be ignored without a word."""
    if not isinstance(spec, dict):
        raise ValidationError(f"{what} must be an object, got {spec!r}", _MOD)
    if unknown := sorted(set(spec) - set(keys)):
        raise ValidationError(f"unknown {what} key {', '.join(map(repr, unknown))}; "
                              f"expected {' | '.join(keys)}", _MOD)


def _base_form(spec: dict) -> PotentialForm:
    kind = spec.get("kind", "zero")
    if not isinstance(kind, str) or kind not in _FORMS:
        raise ValidationError(f"unknown base kind {kind!r}; expected {' | '.join(_FORMS)}", _MOD)
    form = _FORMS[kind]
    keys = [f.name for f in dataclasses.fields(form)]
    _known_keys(spec, ("kind", *keys), f"{kind} base")
    try:
        params = {key: float(_number(spec[key], f"{kind} base parameter {key}")) for key in keys}
    except KeyError as exc:
        raise ValidationError(f"{kind} base needs parameter {exc}", _MOD)
    return form(**params)


def _coeff_spec(spec: dict) -> tuple[np.ndarray, GeometricTail | None]:
    from .perturbation import GeometricTail
    _known_keys(spec, ("values", "generator"), "coeffs")
    values = spec.get("values", [])
    if not isinstance(values, list):
        raise ValidationError(f"coefficient values must be a list, got {values!r}", _MOD)
    values = np.array([_number(v, "coefficient") for v in values], dtype=float)
    gen = spec.get("generator")
    if gen is None:
        return values, None
    _known_keys(gen, _GENERATOR_KEYS, "coefficient generator")
    try:
        ar = {key: float(_number(gen[key], f"coefficient generator {key}"))
              for key in _GENERATOR_KEYS}
    except KeyError as exc:
        raise ValidationError(f"coefficient generator needs key {exc}", _MOD)
    return values, GeometricTail(**ar)


def _amplitude(cfg: RunConfig, params: SpectralParams) -> Amplitude:
    from .perturbation import build_perturbed_amplitude
    values, tail = _coeff_spec(cfg.coeffs)
    return build_perturbed_amplitude(_base_form(cfg.base), values, params, tail)


# ---------------------------------------------------------------------------
# Command implementations: each returns the list of output lines (no header).
# ---------------------------------------------------------------------------


def _cmd_forward(cfg: RunConfig, params: SpectralParams) -> list[str]:
    from .weyl_titchmarsh import steklov_spectrum, wt_from_ode
    m, _ = wt_from_ode(_base_form(cfg.base), params.kappa, tolerance=cfg.tolerance)
    lines = ["k,kappa,sigma"]
    for k, (kappa, sigma) in enumerate(zip(params.kappa, steklov_spectrum(params, m))):
        lines.append(f"{k},{_fmt(kappa)},{_fmt(sigma)}")
    return lines


def _cmd_perturb(cfg: RunConfig, params: SpectralParams) -> list[str]:
    from .perturbation import build_perturbed_amplitude
    from .weyl_titchmarsh import steklov_spectrum, wt_from_amplitude
    amp = _amplitude(cfg, params)
    base_amp = build_perturbed_amplitude(amp.base, np.zeros(0), params)
    sig = steklov_spectrum(params, wt_from_amplitude(base_amp, params.kappa)[0])
    sig_t = steklov_spectrum(params, wt_from_amplitude(amp, params.kappa)[0])
    gap = amp.steklov_gap(params.kappa)   # exact; sig_t - sig would lose its digits
    lines = ["k,sigma,sigma_tilde,diff"]
    for k, row in enumerate(zip(sig, sig_t, gap)):
        lines.append(",".join([str(k), *map(_fmt, row)]))
    lines.append(f"# eps = {_fmt(abs(gap[0]))}")
    lines.append("# resonances: index,location")
    for i, r in enumerate(amp.resonances):
        lines.append(f"{i},{_fmt(r)}")
    lines.append("# point_masses: index,E,weight")
    for i, (E, w) in enumerate(amp.point_masses):
        lines.append(f"{i},{_fmt(E)},{_fmt(w)}")
    return lines


def _cmd_reconstruct(cfg: RunConfig, params: SpectralParams) -> list[str]:
    amp = _amplitude(cfg, params)
    from .gelfand_levitan import solve_gl
    ws = solve_gl(amp, cfg.T, cfg.M)
    lines = [f"# gl_residual = {_fmt(ws.residual)}", "x,Q"]
    for x, v in zip(ws.potential.grid, ws.potential.values):
        lines.append(f"{_fmt(x)},{_fmt(v)}")
    return lines


def _cmd_muntz(cfg: RunConfig, params: SpectralParams) -> list[str]:
    from .muntz import system_for_params
    system = system_for_params(params, cfg.n, cfg.precision)
    lines = ["m,j,C_mj"]
    table = system.float_table()
    for m in range(cfg.n + 1):
        for j in range(m + 1):
            lines.append(f"{m},{j},{_fmt(table[m, j])}")
    lines.append(f"# gram_residual = {_fmt(system.gram_residual())}")
    return lines


def _cmd_sweep(cfg: RunConfig, params: SpectralParams) -> list[str]:
    values, tail = _coeff_spec(cfg.coeffs)
    if tail is not None and values.size:
        raise ValidationError(
            "sweep family must be either a coefficient list or a generator, not both", _MOD)
    if tail is None and not values.size:
        raise ValidationError("sweep needs coefficient values or a generator", _MOD)
    base = _base_form(cfg.base)
    from .stability_harness import emit_records, fit_holder, run_sweep
    records, dropped = run_sweep(base, values, tail, cfg.scales, cfg.T, params, cfg.M)
    return emit_records(records, fit_holder(records), dropped)


def _cmd_ks_check(cfg: RunConfig, params: SpectralParams) -> list[str]:
    from .perturbation import (ks_check_normalization, ks_check_positivity,
                               ks_check_quasi_szego)
    amp = _amplitude(cfg, params)
    pos = ks_check_positivity(amp)
    qs = ks_check_quasi_szego(amp)
    norm = ks_check_normalization(amp)
    lines = ["check,metric,value"]
    lines.append(f"positivity,min_density,{_fmt(pos.min_density)}")
    lines.append(f"positivity,argmin_E,{_fmt(pos.argmin_E)}")
    lines.append(f"positivity,passed,{int(pos.passed)}")
    lines.append(f"quasi_szego,decay_exponent,{_fmt(qs.exponent)}")
    lines.append(f"quasi_szego,fit_residual,{_fmt(qs.residual)}")
    lines.append(f"normalization,maximal_exponent,{_fmt(norm.exponent)}")
    lines.append(f"normalization,increments_decreasing,{int(norm.increments_decreasing)}")
    for i, p in enumerate(norm.partial_integrals):
        lines.append(f"normalization,partial_integral_{i},{_fmt(p)}")
    return lines


# Each command's function and the RunConfig fields it reads. Every command
# reads command, d, delta, K and output: run() builds every command's spectral
# params from d, delta and K.
_COMMANDS = {command: (cmd, {"command", "d", "delta", "K", "output", *reads})
             for command, cmd, reads in (
                 ("forward", _cmd_forward, ("base", "tolerance")),
                 ("perturb", _cmd_perturb, ("base", "coeffs")),
                 ("reconstruct", _cmd_reconstruct, ("T", "M", "base", "coeffs")),
                 ("muntz", _cmd_muntz, ("n", "precision")),
                 ("sweep", _cmd_sweep, ("T", "M", "base", "coeffs", "scales")),
                 ("ks-check", _cmd_ks_check, ("base", "coeffs")))}
COMMANDS = tuple(_COMMANDS)


def run(cfg: RunConfig) -> int:
    """Validate, dispatch, and write the output file. Returns the exit status."""
    try:
        if cfg.command not in COMMANDS:
            raise ValidationError(
                f"command must be one of {', '.join(COMMANDS)}; got {cfg.command!r}",
                _MOD)
        cmd, reads = _COMMANDS[cfg.command]
        for name, default in vars(RunConfig()).items():  # every default passes the checks below
            if name not in reads and (val := getattr(cfg, name)) != default:
                raise ValidationError(f"{cfg.command} does not read {name}: got {val!r}, "
                                      f"where only its default {default!r} is accepted", _MOD)
        for name, val, lo in (("M", cfg.M, 32), ("precision", cfg.precision, 16), ("n", cfg.n, 0)):
            if val < lo:
                raise ValidationError(f"{name} must be >= {lo}, got {val}", _MOD)
        if cfg.M % 2:
            raise ValidationError(f"M must be even, got {cfg.M}", _MOD)
        if not cfg.T > 0:
            raise ValidationError(f"T must be positive, got {cfg.T}", _MOD)
        lines = cmd(cfg, make_spectral_params(cfg.d, cfg.delta, cfg.K))
    except ValidationError as exc:
        print(exc.tagged(), file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(exc.tagged(), file=sys.stderr)
        return 3
    except MemoryError:  # name the fields that size the command's arrays
        sizes = ", ".join(f"{name}={getattr(cfg, name)}"
                          for name in ("K", "M", "n", "precision") if name in reads)
        print(f"[{_MOD}] out of memory in {cfg.command} at {sizes}", file=sys.stderr)
        return 3

    text = "".join(f"# {h}\n" for h in cfg.header_lines()) + "\n".join(lines) + "\n"
    try:
        if cfg.output is None or cfg.output == "-":
            sys.stdout.write(text)
        else:
            with open(cfg.output, "w", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"[cli] cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="steklovlab",
        description="Forward and inverse Steklov pipelines for radial potentials")
    p.add_argument("command", nargs="?", choices=COMMANDS,
                   help="pipeline stage (may also come from the config file)")
    p.add_argument("--config", help="JSON configuration file")
    for f in dataclasses.fields(RunConfig):
        if f.name in _SCALARS and f.name != "command":
            p.add_argument(f"--{f.name.replace('_', '-')}", type=_SCALARS[f.name],
                           help=f.metadata.get("help"))
    p.add_argument("--base", help=" | ".join(_FORMS))
    for key in _WELL_KEYS:
        p.add_argument(f"--{key}", type=float)
    p.add_argument("--coeffs", help="comma-separated coefficient list")
    for key in _GENERATOR_KEYS:
        p.add_argument(f"--tail-{key}", type=float)
    p.add_argument("--scales", help="comma-separated sweep scales")
    return p


_PARSER = _build_parser()


def _float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise ValidationError(f"{flag} takes comma-separated numbers: {exc}", _MOD)


def build_config(argv: list[str] | None = None) -> RunConfig:
    args = _PARSER.parse_args(argv)
    cfg = RunConfig()
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read config: {exc}", _MOD)
        if not isinstance(data, dict):
            raise ValidationError("config must be a JSON object", _MOD)
        for key, val in data.items():
            if key == "workers":  # retired; saved configs still carry its one value
                if type(val) is not int or val != 1:
                    raise ValidationError(f"config key 'workers' is retired; only 1 is "
                                          f"accepted, got {val!r}", _MOD)
                continue
            if key not in _HINTS:
                raise ValidationError(f"unknown config key {key!r}", _MOD)
            setattr(cfg, key, _field(key, val))
    for name in _SCALARS:
        if (val := getattr(args, name)) is not None:
            setattr(cfg, name, _field(name, val))
    if args.base is not None:
        cfg.base = {"kind": args.base}
    for key in _WELL_KEYS:
        if (val := getattr(args, key)) is not None:
            cfg.base[key] = val
    if args.coeffs is not None:
        cfg.coeffs = {**cfg.coeffs, "values": _float_list(args.coeffs, "--coeffs")}
    tail = {key: val for key in _GENERATOR_KEYS
            if (val := getattr(args, f"tail_{key}")) is not None}
    if tail:
        gen = cfg.coeffs.get("generator") or {}
        _known_keys(gen, _GENERATOR_KEYS, "coefficient generator")
        cfg.coeffs = {**cfg.coeffs, "generator": {**gen, **tail}}
    if args.scales is not None:
        cfg.scales = _field("scales", _float_list(args.scales, "--scales"))
    return cfg


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = build_config(argv)
    except ValidationError as exc:
        print(exc.tagged(), file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
