"""Command-line entry point.

One JSON configuration file drives every pipeline stage; command-line flags
override individual fields. All outputs are CSV with a commented header that
echoes the full effective configuration, so identical configurations produce
byte-identical files. Exit codes: 0 success, 2 validation failure, 3
numerical failure (module-tagged message on stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from typing import get_args, get_type_hints

import numpy as np

from .errors import NumericalError, ValidationError
from .gelfand_levitan import gl_residual, recover_potential, solve_gl
from .muntz import system_for_params
from .perturbation import (Amplitude, GeometricTail, build_perturbed_amplitude,
                           ks_check_normalization, ks_check_positivity,
                           ks_check_quasi_szego, spectral_measure_diff)
from .radial_model import (Bargmann1, Bargmann2, PotentialForm, ZeroForm,
                           make_spectral_params, sample_potential)
from .stability_harness import (_fmt, emit_records, fit_holder, geometric_family,
                                run_sweep, scaled_coeff_family)
from .weyl_titchmarsh import OdeOptions, steklov_spectrum, wt_from_amplitude, wt_from_ode

_MOD = "cli"

COMMANDS = ("forward", "perturb", "reconstruct", "muntz", "sweep", "ks-check")


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
    output: str | None = None
    precision: int = 256
    x_max: float | None = None
    tolerance: float = 1e-10
    n: int = 10

    def header_lines(self) -> list[str]:
        lines = []
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, (dict, list)):
                v = json.dumps(v, sort_keys=True, separators=(",", ":"))
            lines.append(f"{f.name} = {v}")
        return lines


_WELLS = {"bargmann1": (Bargmann1, ("beta", "gamma")),
          "bargmann2": (Bargmann2, ("c1", "kappa1"))}


def _base_form(spec: dict) -> PotentialForm:
    kind = spec.get("kind", "zero")
    if kind == "zero":
        return ZeroForm()
    if not isinstance(kind, str) or kind not in _WELLS:
        raise ValidationError(
            f"unknown base kind {kind!r}; expected zero | bargmann1 | bargmann2", _MOD)
    well, keys = _WELLS[kind]
    try:
        params = {key: float(spec[key]) for key in keys}
    except KeyError as exc:
        raise ValidationError(f"{kind} base needs parameter {exc}", _MOD)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{kind} base parameters must be numbers: {exc}", _MOD)
    _require_finite(params, f"{kind} base parameter")
    return well(**params)


def _require_finite(named: dict, what: str) -> None:
    """Reject nan and inf, which json.load and argparse's float both take."""
    for name, val in named.items():
        if not np.all(np.isfinite(val)):
            raise ValidationError(f"{what} {name} must be finite, got {val}", _MOD)


def _coeff_spec(spec: dict) -> tuple[np.ndarray, GeometricTail | None]:
    gen = spec.get("generator")
    try:
        values = np.asarray(spec.get("values", []), dtype=float)
        ar = None if gen is None else {"a": float(gen["a"]), "rho": float(gen["rho"])}
    except KeyError as exc:
        raise ValidationError(f"coefficient generator needs key {exc}", _MOD)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"coefficients must be numbers: {exc}", _MOD)
    _require_finite({"values": values}, "coefficient")
    _require_finite(ar or {}, "coefficient generator")
    return values, None if ar is None else GeometricTail(**ar)


def _amplitude(cfg: RunConfig, params) -> Amplitude:
    values, tail = _coeff_spec(cfg.coeffs)
    return build_perturbed_amplitude(_base_form(cfg.base), values, params, tail)


# ---------------------------------------------------------------------------
# Command implementations: each returns the list of output lines (no header).
# ---------------------------------------------------------------------------


def _cmd_forward(cfg: RunConfig) -> list[str]:
    params = make_spectral_params(cfg.d, cfg.delta, cfg.K)
    form = _base_form(cfg.base)
    opts = OdeOptions(x_max=cfg.x_max, tolerance=cfg.tolerance)
    pot = sample_potential(form, x_max=opts.x_max_for(params.kappa[0]), n=256)
    spectrum = steklov_spectrum(wt_from_ode(pot, params.kappa[:cfg.K + 1], opts),
                                params, cfg.K)
    lines = ["k,kappa,sigma"]
    for k in range(cfg.K + 1):
        lines.append(f"{k},{_fmt(params.kappa[k])},{_fmt(spectrum.sigma[k])}")
    return lines


def _cmd_perturb(cfg: RunConfig) -> list[str]:
    params = make_spectral_params(cfg.d, cfg.delta, cfg.K)
    amp = _amplitude(cfg, params)
    base_amp = build_perturbed_amplitude(amp.base, np.zeros(0), params)
    kappas = params.kappa[:cfg.K + 1]
    sig = steklov_spectrum(wt_from_amplitude(base_amp, kappas), params, cfg.K)
    sig_t = steklov_spectrum(wt_from_amplitude(amp, kappas), params, cfg.K)
    diff = spectral_measure_diff(amp)
    lines = ["k,sigma,sigma_tilde,diff"]
    for k in range(cfg.K + 1):
        lines.append(f"{k},{_fmt(sig.sigma[k])},{_fmt(sig_t.sigma[k])},"
                     f"{_fmt(sig_t.sigma[k] - sig.sigma[k])}")
    lines.append(f"# eps = {_fmt(float(np.max(np.abs(sig.sigma - sig_t.sigma))))}")
    lines.append("# resonances: index,location")
    for i, r in enumerate(diff.resonances):
        lines.append(f"{i},{_fmt(r)}")
    lines.append("# point_masses: index,E,weight")
    for i, (E, w) in enumerate(diff.point_masses):
        lines.append(f"{i},{_fmt(E)},{_fmt(w)}")
    return lines


def _cmd_reconstruct(cfg: RunConfig) -> list[str]:
    params = make_spectral_params(cfg.d, cfg.delta, cfg.K)
    amp = _amplitude(cfg, params)
    ws = solve_gl(amp, cfg.T, cfg.M)
    q = recover_potential(ws)
    lines = [f"# gl_residual = {_fmt(gl_residual(ws))}", "x,Q"]
    for x, v in zip(q.grid, q.values):
        lines.append(f"{_fmt(x)},{_fmt(v)}")
    return lines


def _cmd_muntz(cfg: RunConfig) -> list[str]:
    params = make_spectral_params(cfg.d, cfg.delta, max(cfg.K, cfg.n))
    system = system_for_params(params, cfg.n, cfg.precision)
    system._guard(cfg.n)  # a level past the certified range is noise, not a table
    lines = ["m,j,C_mj"]
    table = system.float_table()
    for m in range(cfg.n + 1):
        for j in range(m + 1):
            lines.append(f"{m},{j},{_fmt(table[m, j])}")
    lines.append(f"# gram_residual = {_fmt(system.gram_residual())}")
    return lines


def _cmd_sweep(cfg: RunConfig) -> list[str]:
    params = make_spectral_params(cfg.d, cfg.delta, cfg.K)
    values, tail = _coeff_spec(cfg.coeffs)
    if tail is not None:
        if values.size:
            raise ValidationError(
                "sweep family must be either a coefficient list or a generator, "
                "not both", _MOD)
        family = geometric_family(tail.rho, tail.a)
    elif values.size:
        family = scaled_coeff_family(values)
    else:
        raise ValidationError("sweep needs coefficient values or a generator", _MOD)
    records, dropped = run_sweep(_base_form(cfg.base), family, cfg.scales, cfg.T,
                                 params, cfg.K, cfg.M)
    return emit_records(records, fit_holder(records), dropped)


def _cmd_ks_check(cfg: RunConfig) -> list[str]:
    params = make_spectral_params(cfg.d, cfg.delta, cfg.K)
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


_DISPATCH = {
    "forward": _cmd_forward,
    "perturb": _cmd_perturb,
    "reconstruct": _cmd_reconstruct,
    "muntz": _cmd_muntz,
    "sweep": _cmd_sweep,
    "ks-check": _cmd_ks_check,
}


def run(cfg: RunConfig) -> int:
    """Validate, dispatch, and write the output file. Returns the exit status."""
    try:
        if cfg.command not in COMMANDS:
            raise ValidationError(
                f"command must be one of {', '.join(COMMANDS)}; got {cfg.command!r}",
                _MOD)
        for name, val, lo in (("K", cfg.K, 1), ("M", cfg.M, 32),
                              ("precision", cfg.precision, 16), ("n", cfg.n, 0)):
            if val < lo:
                raise ValidationError(f"{name} must be >= {lo}, got {val}", _MOD)
        # json.load takes NaN and Infinity, argparse's float takes nan and inf
        numbers = [(name, getattr(cfg, name)) for name, hint in get_type_hints(RunConfig).items()
                   if float in (get_args(hint) or (hint,))]
        for name, val in numbers + [("scales", s) for s in cfg.scales]:
            if val is not None and not math.isfinite(val):
                raise ValidationError(f"{name} must be finite, got {val}", _MOD)
        if not cfg.tolerance > 0:
            raise ValidationError(f"tolerance must be positive, got {cfg.tolerance}", _MOD)
        lines = _DISPATCH[cfg.command](cfg)
    except ValidationError as exc:
        print(exc.tagged(), file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(exc.tagged(), file=sys.stderr)
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
    p.add_argument("--output", help="output CSV path ('-' for stdout)")
    p.add_argument("--precision", type=int, help="working precision in bits")
    p.add_argument("--d", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--T", type=float)
    p.add_argument("--K", type=int)
    p.add_argument("--M", type=int)
    p.add_argument("--x-max", dest="x_max", type=float)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--n", type=int, help="orthonormalization table size")
    p.add_argument("--base", help="zero | bargmann1 | bargmann2")
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--c1", type=float)
    p.add_argument("--kappa1", type=float)
    p.add_argument("--coeffs", help="comma-separated coefficient list")
    p.add_argument("--tail-a", dest="tail_a", type=float)
    p.add_argument("--tail-rho", dest="tail_rho", type=float)
    p.add_argument("--scales", help="comma-separated sweep scales")
    return p


def _json_type_ok(val, hint) -> bool:
    """Does a JSON config value fit its RunConfig field type? An int field
    takes an integer (not a bool), a float field any number, the list of
    scales only numbers."""
    kinds = get_args(hint) or (hint,)
    if val is None or isinstance(val, bool):
        return val is None and type(None) in kinds
    if float in kinds:
        return isinstance(val, (int, float))
    if list in kinds:
        return isinstance(val, list) and all(_json_type_ok(v, float) for v in val)
    return isinstance(val, kinds)


def _float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise ValidationError(f"{flag} takes comma-separated numbers: {exc}", _MOD)


def build_config(argv: list[str] | None = None) -> RunConfig:
    args = _build_parser().parse_args(argv)
    cfg = RunConfig()
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read config: {exc}", _MOD)
        if not isinstance(data, dict):
            raise ValidationError("config must be a JSON object", _MOD)
        hints = get_type_hints(RunConfig)
        for key, val in data.items():
            if key == "workers":  # retired; saved configs still carry its one value
                if type(val) is not int or val != 1:
                    raise ValidationError(f"config key 'workers' is retired; only 1 is "
                                          f"accepted, got {val!r}", _MOD)
                continue
            if key not in hints:
                raise ValidationError(f"unknown config key {key!r}", _MOD)
            if not _json_type_ok(val, hints[key]):
                raise ValidationError(f"config key {key!r} has the wrong type: {val!r}", _MOD)
            setattr(cfg, key, val)
    for name in ("command", "output", "precision", "d", "delta", "T", "K", "M",
                 "x_max", "tolerance", "n"):
        val = getattr(args, name)
        if val is not None:
            setattr(cfg, name, val)
    if args.base is not None:
        cfg.base = {"kind": args.base}
    for key, val in (("beta", args.beta), ("gamma", args.gamma),
                     ("c1", args.c1), ("kappa1", args.kappa1)):
        if val is not None:
            cfg.base[key] = val
    if args.coeffs is not None:
        cfg.coeffs = dict(cfg.coeffs)
        cfg.coeffs["values"] = _float_list(args.coeffs, "--coeffs")
    if args.tail_a is not None or args.tail_rho is not None:
        gen = dict(cfg.coeffs.get("generator") or {})
        if args.tail_a is not None:
            gen["a"] = args.tail_a
        if args.tail_rho is not None:
            gen["rho"] = args.tail_rho
        cfg.coeffs = dict(cfg.coeffs)
        cfg.coeffs["generator"] = gen
    if args.scales is not None:
        cfg.scales = _float_list(args.scales, "--scales")
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
