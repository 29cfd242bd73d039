"""Seeded workload generator and per-op output checks.

A workload is a list of CLI ops (one JSON config each) that one pass runs in
order. The seed draws the well and tail parameters; the program sees only the
generated config. Seed 0 gives the default parameters. Other seeds draw each
parameter uniformly within a small relative window around its default, inside
the admissible range: both the cost (RK4 step halvings, materialized series
terms) and the oracle error constants move with the parameters, and a window
this small keeps the seed-to-seed spread of every end-to-end metric below its
bound. holder-sweep draws from seed mod HOLDER_POINTS, because its oracle is a
stored reference computed once per parameter point at twice the resolution.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("forward-shoot", "gl-wells", "holder-sweep", "moments-diagnostics")
HOLDER_POINTS = 8
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# (default, admissible lo, admissible hi, relative window)
RANGES = {
    "beta": (1.0, 0.8, 1.25, 0.02),
    "gamma_ratio": (0.5, 0.3, 0.6, 0.02),
    "c1": (1.0, 0.5, 1.5, 0.01),
    "kappa1": (0.5, 0.4, 1.0, 0.01),
    "tail_a": (1.0, 0.5, 1.5, 0.02),
    "tail_rho": (1.0 / 9.0, 1.0 / 10.0, 1.0 / 8.0, 0.02),
    "ks_a": (1.0, 0.5, 1.5, 0.02),
    "ks_rho": (0.8, 0.6, 0.85, 0.005),
}
MUNTZ_DELTAS = (Fraction(0), Fraction(1, 2), Fraction(1))

# Acceptance figures the checks hold every op to (tests/test_acceptance.py and
# tests/test_gelfand_levitan.py), plus tolerances for the stored references.
SIGMA_TOL = 1e-8         # forward and perturb spectra against closed forms
REL_L2_TOL = 1e-3        # reconstructed Q against form.potential
Q0_TOL = 1e-4            # |Q(0) - exact| at the boundary node
GL_RESIDUAL_TOL = 1e-10  # '# gl_residual' of the discrete systems
EPS_REL_TOL = 1e-9       # sweep eps (a difference of O(1) spectra) against the series gap
QGAP_REL_TOL = 1e-6      # sweep q_gap against the stored 2M reference
GRAM_TOL = 1e-8          # muntz '# gram_residual'
MUNTZ_REL_TOL = 1e-14    # float table against sqrt of the exact rationals
KS_SZEGO = (-2.0, 0.1)   # quasi-Szego exponent and tolerance (criterion 8)
KS_NORM = (-1.0, 0.15)   # maximal-function exponent and tolerance


@dataclass
class Check:
    ok: bool = True
    err: float | None = None       # contribution to the workload's oracle_err
    figures: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def require(self, cond: bool, message: str) -> None:
        if not cond:
            self.ok = False
            self.problems.append(message)


@dataclass
class Op:
    name: str
    config: dict
    check: Callable[[str], Check]


def draw(workload: str, seed: int) -> dict:
    """The parameters a seed gives a workload; seed 0 gives the defaults."""
    if workload == "holder-sweep":
        seed %= HOLDER_POINTS
    rng = random.Random(f"{workload}:{seed}")

    def near(key):
        default, lo, hi, rel = RANGES[key]
        if seed == 0:
            return default
        return min(hi, max(lo, default * (1.0 + rel * (2.0 * rng.random() - 1.0))))

    if workload == "forward-shoot":
        beta = near("beta")
        return {"beta": beta, "gamma": near("gamma_ratio") * beta}
    if workload == "gl-wells":
        beta = near("beta")
        return {"beta": beta, "gamma": near("gamma_ratio") * beta,
                "c1": near("c1"), "kappa1": near("kappa1")}
    if workload == "holder-sweep":
        return {"point": seed, "a": near("tail_a"), "rho": near("tail_rho")}
    if workload == "moments-diagnostics":
        beta = near("beta")
        delta = MUNTZ_DELTAS[1] if seed == 0 else rng.choice(MUNTZ_DELTAS)
        return {"muntz_delta": str(delta), "beta": beta,
                "gamma": near("gamma_ratio") * beta, "a": near("ks_a"), "rho": near("ks_rho")}
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# CSV parsing and oracles.
# ---------------------------------------------------------------------------


def _parse(text: str) -> tuple[dict, list[list[str]]]:
    """'# key = value' comments and the comma-separated data rows."""
    notes, rows = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, val = line[1:].partition("=")
            if sep:
                notes[key.strip()] = val.strip()
        elif line:
            rows.append(line.split(","))
    return notes, rows


def _table(rows, header: str) -> list[list[str]]:
    """The rows after the column header `header`, up to a row of another width."""
    width = header.count(",") + 1
    out, inside = [], False
    for row in rows:
        if ",".join(row) == header:
            inside = True
        elif inside:
            if len(row) != width:
                break
            out.append(row)
    return out


def _rel_l2(values: np.ndarray, exact: np.ndarray) -> float:
    """Relative L2 error by composite Simpson on a uniform grid."""
    w = np.ones(values.size)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return math.sqrt(w @ (values - exact) ** 2) / math.sqrt(w @ exact**2)


def _series_terms(a: float, rho: float, d: int, delta: float, count: int = 400):
    """(c_j, mu_j) of the generator tail c_j = -a rho^{lam_j}, well past any cutoff."""
    j = np.arange(count, dtype=float)
    lam = 2.0 * j + d - 3 + delta
    return -a * rho**lam, lam + delta


def _series_gap(c, mu, kappa: float) -> float:
    """sigma~ - sigma = sum_j c_j / (2 kappa + mu_j) for decaying terms."""
    return math.fsum(c / (2.0 * kappa + mu))


def _kappas(d: int, K: int) -> np.ndarray:
    return np.arange(K + 1, dtype=float) + (d - 2) / 2.0


def _check_forward(cfg: dict):
    from steklovlab import Bargmann1
    form = Bargmann1(beta=cfg["base"]["beta"], gamma=cfg["base"]["gamma"])
    d, K = cfg["d"], cfg["K"]

    def check(text: str) -> Check:
        c = Check()
        _, rows = _parse(text)
        rows = _table(rows, "k,kappa,sigma")
        c.require(len(rows) == K + 1, f"expected {K + 1} spectrum rows, got {len(rows)}")
        kap = _kappas(d, K)
        exact = np.array([-(d - 2) / 2.0 + k + form.laplace(k) for k in kap])
        sigma = np.array([float(r[2]) for r in rows[: K + 1]])
        c.err = float(np.max(np.abs(sigma - exact[: sigma.size]))) if sigma.size else math.inf
        c.figures["sigma_err"] = c.err
        c.require(c.err <= SIGMA_TOL, f"max |sigma - exact| = {c.err:.3e} > {SIGMA_TOL}")
        return c

    return check


def _check_reconstruct(cfg: dict):
    from steklovlab import Bargmann1, Bargmann2
    base = cfg["base"]
    form = (Bargmann1(beta=base["beta"], gamma=base["gamma"]) if base["kind"] == "bargmann1"
            else Bargmann2(c1=base["c1"], kappa1=base["kappa1"]))
    M = cfg["M"]

    def check(text: str) -> Check:
        c = Check()
        notes, rows = _parse(text)
        rows = _table(rows, "x,Q")
        c.require(len(rows) == M + 1, f"expected {M + 1} rows, got {len(rows)}")
        if len(rows) != M + 1:
            c.err = math.inf
            return c
        x = np.array([float(r[0]) for r in rows])
        q = np.array([float(r[1]) for r in rows])
        exact = form.potential(x)
        c.err = _rel_l2(q, exact)
        resid = float(notes.get("gl_residual", "inf"))
        c.figures.update(rel_l2=c.err, gl_residual=resid, q0_err=abs(q[0] - exact[0]))
        c.require(c.err <= REL_L2_TOL, f"relL2 = {c.err:.3e} > {REL_L2_TOL}")
        c.require(abs(q[0] - exact[0]) <= Q0_TOL, f"|Q(0) - exact| = {abs(q[0] - exact[0]):.3e}")
        c.require(resid <= GL_RESIDUAL_TOL, f"gl_residual = {resid:.3e} > {GL_RESIDUAL_TOL}")
        return c

    return check


def _check_sweep(cfg: dict, reference: list[float]):
    gen = cfg["coeffs"]["generator"]
    d, delta, K = cfg["d"], cfg["delta"], cfg["K"]
    kap = _kappas(d, K)

    def check(text: str) -> Check:
        c = Check()
        notes, rows = _parse(text)
        rows = _table(rows, "s,eps,q_gap,a_gap,bound,theta,C_T_running,verdict")
        scales = cfg["scales"]
        c.require(len(rows) == len(scales), f"expected {len(scales)} records, got {len(rows)}")
        if len(rows) != len(scales):
            c.err = math.inf
            return c
        theta, slope = float(notes.get("theta", "nan")), float(notes.get("slope", "nan"))
        c.require(notes.get("verdict") == "PASS", f"Holder verdict {notes.get('verdict')}")
        c.require(slope >= theta - 0.05, f"slope {slope:.4f} < theta - 0.05 = {theta - 0.05:.4f}")
        c.require(all(r[7] == "PASS" for r in rows), "a record's verdict is not PASS")
        eps_err = q_dev = 0.0
        for r, s, ref in zip(rows, scales, reference):
            cs, mu = _series_terms(gen["a"] * s, gen["rho"], d, delta)
            eps = max(abs(_series_gap(cs, mu, k)) for k in kap)
            eps_err = max(eps_err, abs(float(r[1]) - eps) / eps)
            q_dev = max(q_dev, abs(float(r[2]) - ref) / ref)
        c.err = q_dev
        c.figures.update(q_gap_rel_dev=q_dev, eps_rel_err=eps_err, slope=slope, theta=theta)
        c.require(eps_err <= EPS_REL_TOL, f"eps relative error {eps_err:.3e} > {EPS_REL_TOL}")
        c.require(q_dev <= QGAP_REL_TOL, f"q_gap deviates {q_dev:.3e} from the reference")
        return c

    return check


def _check_muntz(cfg: dict, delta: Fraction):
    from mpmath import mp, mpf
    from steklovlab.muntz import muntz_coeff_squares
    d, n = cfg["d"], cfg["n"]
    lam = [2 * k + d - 3 + delta for k in range(n + 1)]
    prec = 160  # far beyond the table's 53 bits, so the error below is the table's own
    with mp.workprec(prec):
        exact = [[s * mp.sqrt(mpf(c2.numerator) / c2.denominator) for s, c2 in row]
                 for row in muntz_coeff_squares(lam)]

    def check(text: str) -> Check:
        c = Check()
        notes, rows = _parse(text)
        rows = _table(rows, "m,j,C_mj")
        c.require(len(rows) == (n + 1) * (n + 2) // 2, f"table has {len(rows)} entries")
        with mp.workprec(prec):
            worst = max((float(abs((mpf(float(v)) - exact[int(m)][int(j)]) / exact[int(m)][int(j)]))
                         for m, j, v in rows), default=math.inf)
        c.err = worst
        gram = float(notes.get("gram_residual", "inf"))
        c.figures.update(table_rel_err=c.err, gram_residual=gram)
        c.require(c.err <= MUNTZ_REL_TOL, f"table relative error {c.err:.3e} > {MUNTZ_REL_TOL}")
        c.require(gram <= GRAM_TOL, f"gram_residual {gram:.3e} > {GRAM_TOL}")
        return c

    return check


def _check_ks(cfg: dict):
    def check(text: str) -> Check:
        c = Check()
        _, rows = _parse(text)
        vals = {f"{r[0]}.{r[1]}": float(r[2]) for r in _table(rows, "check,metric,value")}
        szego, norm = vals.get("quasi_szego.decay_exponent"), vals.get("normalization.maximal_exponent")
        c.figures.update(min_density=vals.get("positivity.min_density"),
                         szego_exponent=szego, maximal_exponent=norm)
        c.require(vals.get("positivity.passed") == 1.0, "spectral density went negative")
        c.require(szego is not None and abs(szego - KS_SZEGO[0]) <= KS_SZEGO[1],
                  f"quasi-Szego exponent {szego}")
        c.require(norm is not None and abs(norm - KS_NORM[0]) <= KS_NORM[1],
                  f"maximal-function exponent {norm}")
        return c

    return check


def _check_perturb(cfg: dict):
    from steklovlab import Bargmann1
    form = Bargmann1(beta=cfg["base"]["beta"], gamma=cfg["base"]["gamma"])
    gen = cfg["coeffs"]["generator"]
    d, delta, K = cfg["d"], cfg["delta"], cfg["K"]
    cs, mu = _series_terms(gen["a"], gen["rho"], d, delta)

    def check(text: str) -> Check:
        c = Check()
        lines = text.splitlines()
        _, rows = _parse(text)
        spec = _table(rows, "k,sigma,sigma_tilde,diff")[: K + 1]
        c.require(len(spec) == K + 1, f"expected {K + 1} spectrum rows, got {len(spec)}")
        worst = 0.0
        for (k, s, st, _), kappa in zip(spec, _kappas(d, K)):
            s0 = -(d - 2) / 2.0 + kappa + form.laplace(kappa)
            worst = max(worst, abs(float(s) - s0),
                        abs(float(st) - (s0 + _series_gap(cs, mu, kappa))))
        marker, res = "# resonances: index,location", []
        for line in lines[lines.index(marker) + 1:] if marker in lines else []:
            if line.startswith("#"):
                break
            res.append(float(line.split(",")[1]))
        c.figures.update(sigma_err=worst, resonances=len(res))
        c.require(worst <= SIGMA_TOL, f"max sigma error {worst:.3e} > {SIGMA_TOL}")
        c.require(len(res) > 0 and all(abs(r + m / 2.0) <= 1e-12 for r, m in zip(res, mu)),
                  "resonances are not at -mu_k/2")
        return c

    return check


def load_reference(point: int, config: dict) -> list[float]:
    """Stored 2M q_gap values for a holder-sweep parameter point."""
    refs = json.loads(REFERENCE.read_text())
    entry = refs["points"][str(point)]
    gen = config["coeffs"]["generator"]
    if entry["a"] != gen["a"] or entry["rho"] != gen["rho"]:
        raise ValueError(f"reference point {point} was computed for other parameters")
    if entry["M"] != 2 * config["M"] or entry["scales"] != config["scales"]:
        raise ValueError(f"reference point {point} was computed for another grid")
    return entry["q_gap"]


def sweep_config(p: dict, tiny: bool = False) -> dict:
    return {"command": "sweep", "d": 3, "delta": 0.5, "T": 2.0, "K": 64,
            "M": 64 if tiny else 256, "base": {"kind": "zero"},
            "coeffs": {"generator": {"a": p["a"], "rho": p["rho"]}},
            "scales": [1e-1, 1e-2, 1e-3, 1e-4], "workers": 1}


def build(workload: str, seed: int, tiny: bool = False,
          reference: Callable[[dict], list[float]] | None = None) -> tuple[dict, list[Op]]:
    """(parameters, ops) for a workload and seed. tiny scales K, M and n down;
    reference(config) then supplies the holder-sweep reference in place of the
    stored one."""
    p = draw(workload, seed)
    b1 = {"kind": "bargmann1", "beta": p.get("beta"), "gamma": p.get("gamma")}
    common = {"d": 3, "delta": 0.5, "workers": 1}
    ops = []
    if workload == "forward-shoot":
        cfg = {"command": "forward", "K": 8 if tiny else 64, "base": b1, **common}
        ops.append(Op("forward-bargmann1", cfg, _check_forward(cfg)))
    elif workload == "gl-wells":
        for name, base, M in (
                ("reconstruct-bargmann1", b1, 512),
                ("reconstruct-bargmann2",
                 {"kind": "bargmann2", "c1": p["c1"], "kappa1": p["kappa1"]}, 256)):
            cfg = {"command": "reconstruct", "T": 2.0, "M": 64 if tiny else M, "base": base,
                   **common}
            ops.append(Op(name, cfg, _check_reconstruct(cfg)))
    elif workload == "holder-sweep":
        cfg = sweep_config(p, tiny)
        ref = reference(cfg) if reference else load_reference(p["point"], cfg)
        ops.append(Op("sweep-geometric", cfg, _check_sweep(cfg, ref)))
    else:
        delta = Fraction(p["muntz_delta"])
        muntz = {"command": "muntz", "d": 3, "delta": float(delta), "n": 8 if tiny else 30,
                 "precision": 256, "workers": 1}
        tail = {"generator": {"a": p["a"], "rho": p["rho"]}}
        ks = {"command": "ks-check", "base": b1, "coeffs": tail, **common}
        pert = {"command": "perturb", "K": 8 if tiny else 64, "base": b1, "coeffs": tail,
                **common}
        ops += [Op("muntz", muntz, _check_muntz(muntz, delta)),
                Op("ks-check", ks, _check_ks(ks)),
                Op("perturb", pert, _check_perturb(pert))]
    return p, ops
