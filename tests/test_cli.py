import argparse
import contextlib
import io
import json
import operator
import os
import shlex
import subprocess
import sys
import time
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from steklovlab import Bargmann2, cli
from steklovlab.cli import RunConfig, build_config, main
from steklovlab.quadrature import l2_norm

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def run_cli(args):
    return main(args)


def readme_commands() -> list[list[str]]:
    """The argument lists of the steklovlab commands in README's "Command
    line" block, backslash continuations joined."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(ln)[1:] for ln in block.splitlines() if ln.startswith("steklovlab ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_commands_run(argv, tmp_path):
    argv = list(argv)
    i = argv.index("--output")
    argv[i + 1] = str(tmp_path / argv[i + 1])
    assert run_cli(argv) == 0


def read_rows(path, n_cols):
    """Data rows (comment lines stripped) as lists of strings."""
    rows = []
    for ln in path.read_text().splitlines():
        if ln.startswith("#") or not ln:
            continue
        cells = ln.split(",")
        if len(cells) == n_cols and not any(c.strip('"').isalpha() for c in cells[:1]):
            rows.append(cells)
    return rows


def test_forward_flat_ball(tmp_path):
    out = tmp_path / "forward.csv"
    code = run_cli(["forward", "--d", "3", "--delta", "0", "--K", "3",
                    "--base", "zero", "--output", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("# command = forward")
    rows = [r for r in read_rows(out, 3) if r[0] != "k"]
    sig = np.array([float(r[2]) for r in rows])
    assert np.allclose(sig, [0.0, 1.0, 2.0, 3.0], atol=1e-8)


def test_perturb_reports_resonance(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "perturb", "d": 3, "delta": 0.5, "K": 8,
        "base": {"kind": "zero"}, "coeffs": {"values": [-1.5]},
    }))
    out = tmp_path / "perturb.csv"
    assert run_cli(["--config", str(cfg), "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    i = lines.index("# resonances: index,location")
    assert lines[i + 1] == "0,-0.5"


def test_laplace_route_near_bargmann2_threshold(tmp_path, capsys):
    # d = 3: kappa_0 = 0.5 sits 0.01 above kappa1, where the amplitude
    # sinh(2 kappa1 alpha) overflows long before e^{-2 kappa alpha} decays;
    # the closed-form transform keeps every sigma within an ulp
    out = tmp_path / "perturb.csv"
    assert run_cli(["perturb", "--base", "bargmann2", "--c1", "1", "--kappa1", "0.49",
                    "--K", "4", "--output", str(out)]) == 0
    rows = [r for r in read_rows(out, 4) if r[0] != "k"]
    kappa = np.arange(5) + 0.5
    exact = -0.5 + kappa - 1.0 / ((kappa - 0.49) * (kappa + 0.49))
    sigma = np.array([[float(c) for c in r[1:3]] for r in rows])
    assert np.all(np.abs(sigma - exact[:, None]) <= np.finfo(float).eps * np.abs(exact[:, None]))
    assert "# eps = 0" in out.read_text().splitlines()
    # the sweep on the same base keeps every scale
    assert run_cli(["sweep", "--base", "bargmann2", "--c1", "1", "--kappa1", "0.49",
                    "--K", "16", "--M", "32", "--tail-a", "1", "--tail-rho", "0.111111",
                    "--output", str(out)]) == 0
    assert len([ln for ln in out.read_text().splitlines() if ln.endswith(",PASS")]) == 4
    # c1/(kappa_0 - kappa1) overflows: a non-finite Laplace value fails tagged, never as NaN
    assert run_cli(["perturb", "--base", "bargmann2", "--c1", "1e308", "--kappa1", "0.4999999",
                    "--K", "4", "--output", str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        "[weyl_titchmarsh] evaluator failed at k=0: the Laplace route is not finite")
    # c1/kappa1 overflows, but sigma_0 = -c1/(kappa_0^2 - kappa1^2) does not
    assert run_cli(["perturb", "--base", "bargmann2", "--c1", "1e300", "--kappa1", "1e-10",
                    "--K", "4", "--output", str(out)]) == 0
    assert "0,-4.0000000000000002e+300,-4.0000000000000002e+300,0" in out.read_text().splitlines()


def _fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run python -c code in a new interpreter on this checkout's sources."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=60, check=True)


_LOADED = ("sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'mpmath'})")
_LAYERS = ("gelfand_levitan", "muntz", "stability_harness")

# the names the package exported when its __init__ imported every module
_EXPORTED = (
    "NumericalError", "SteklovError", "ValidationError", "BallPotential", "Bargmann1",
    "Bargmann2", "RadialPotential", "SpectralParams", "ZeroForm", "ball_to_halfline",
    "extend_potential", "halfline_to_ball", "make_spectral_params",
    "weighted_norm_equivalence", "Amplitude", "GeometricTail", "build_perturbed_amplitude",
    "estimate_radius", "holder_exponent", "ks_check_normalization", "ks_check_positivity",
    "ks_check_quasi_szego", "steklov_spectrum",
    "wt_from_amplitude", "wt_from_ode", "MuntzSeries", "MuntzSystem", "muntz_coeff_squares",
    "muntz_coeffs", "still_bound", "system_for_params", "GLWorkspace", "p_from_amplitude",
    "p_prime_from_amplitude", "solve_gl", "HolderFit", "SweepRecord", "emit_records",
    "fit_holder", "run_sweep", "__version__")


def test_import_leaves_out_unused_scipy():
    # the scipy.linalg package loads about 300 modules, most of them
    # numpy.f2py, numpy.testing and numpy.random through scipy's array-API
    # layer: a GL solve loads only its two extension modules, and only a
    # Muntz table needs mpmath. A bare import of the package loads none of
    # its modules
    proc = _fresh("import sys, steklovlab; "
                  "print(sorted(m for m in sys.modules if m.startswith('steklovlab.'))); "
                  f"import steklovlab.cli; print({_LOADED})")
    assert proc.stdout.splitlines() == ["[]", "[]"]


def test_exported_names_still_import():
    import steklovlab
    listed = dir(steklovlab)
    for name in _EXPORTED:
        assert name in listed, name
        exec(f"from steklovlab import {name}", {})   # the statement form, as users write it
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        steklovlab.nonexistent


@pytest.mark.parametrize("argv,loaded,absent", [
    (["forward", "--K", "2", "--base", "zero"], [], _LAYERS),
    (["perturb", "--K", "4", "--base", "bargmann1", "--beta", "1", "--gamma", "0.5"], [],
     _LAYERS[:2]),
    (["ks-check", "--delta", "1", "--coeffs=-1.0"], [], (*_LAYERS[:2], "weyl_titchmarsh")),
    (["muntz", "--n", "6"], ["mpmath"], ("weyl_titchmarsh",)),
    (["reconstruct", "--base", "bargmann1", "--beta", "1", "--gamma", "0.5", "--M", "32"],
     ["scipy"], ("weyl_titchmarsh",)),
    (["sweep", "--base", "bargmann1", "--beta", "1", "--gamma", "0.5", "--coeffs=-1,-0.5",
      "--K", "8", "--M", "32"], ["scipy"], ()),
], ids=["forward", "perturb", "ks-check", "muntz", "reconstruct", "sweep"])
def test_fresh_command_loads_only_what_it_uses(argv, loaded, absent):
    # no command loads the scipy.linalg package: a GL solve binds its
    # routines from scipy.linalg's two extension modules
    proc = _fresh("import json, sys; from steklovlab.cli import main; "
                  f"code = main(sys.argv[1:]); print(code, {_LOADED}); "
                  "print(json.dumps(sorted(sys.modules)))", *argv, "--output", os.devnull)
    status, modules = proc.stdout.splitlines()
    assert status == f"0 {loaded}"
    modules = json.loads(modules)
    assert "scipy.linalg" not in modules
    assert not {f"steklovlab.{m}" for m in absent} & set(modules)


def test_command_line_tolerance_is_the_shooting_default():
    # RunConfig spells the default out, so that reconstruct, muntz and ks-check
    # never load weyl_titchmarsh
    from steklovlab.weyl_titchmarsh import _TOLERANCE
    assert RunConfig().tolerance == _TOLERANCE


def test_lapack_names_patched_before_the_first_solve_are_called():
    # a tracer wraps gelfand_levitan.lu_factor and lu_solve before any solve
    # has run: lu_factor here by plain assignment, lu_solve by reading the
    # attribute first; the solve must call both wrappers
    code = """if True:
        import json, sys
        import steklovlab.gelfand_levitan as gl
        from steklovlab import Bargmann1, build_perturbed_amplitude, make_spectral_params
        calls = {"lu_factor": 0, "lu_solve": 0}

        def lu_factor(*args, **kwargs):
            from scipy.linalg import lu_factor as real
            calls["lu_factor"] += 1
            return real(*args, **kwargs)

        gl.lu_factor = lu_factor
        before = "scipy" in sys.modules
        real_solve = gl.lu_solve

        def lu_solve(*args, **kwargs):
            calls["lu_solve"] += 1
            return real_solve(*args, **kwargs)

        gl.lu_solve = lu_solve
        amp = build_perturbed_amplitude(Bargmann1(beta=1.0, gamma=0.5), [],
                                        make_spectral_params(3, 0.5, 4))
        gl.solve_gl(amp, 2.0, 32)
        print(json.dumps([before, calls]))
    """
    before, calls = json.loads(_fresh(code).stdout)
    assert not before
    # one factorization and two solves per floor node; the nested nodes'
    # 4 x 4 Schur blocks are factored in numpy
    assert calls == {"lu_factor": 3, "lu_solve": 6}


_BINDING_CASES = """if True:
    import importlib.util, json, sys
    import numpy as np
    spec = importlib.util.find_spec
    if sys.argv[1] == "fallback":   # scipy's extension files are not found while gl binds
        importlib.util.find_spec = lambda name, *a: None if name == "scipy" else spec(name, *a)
    import steklovlab.gelfand_levitan as gl
    importlib.util.find_spec = spec
    from steklovlab import (Bargmann1, Bargmann2, GeometricTail, ZeroForm,
                            build_perturbed_amplitude, make_spectral_params)
    factor, calls = gl.lu_factor, []
    gl.lu_factor = lambda *args, **kwargs: calls.append(1) or factor(*args, **kwargs)
    # every node's V and Vx, copied as the node groups and floor solves return
    # them, keyed by the node's x
    group, dense, rows = gl._Nested.group, gl._dense_node, {}
    def watched_group(self, ms):
        out = group(self, ms)
        for g, m in enumerate(ms.tolist()):
            rows[float(self.xs[self.M + 1 - m])] = out[2][:, g, :m][:, ::-1].copy()
        return out
    def watched_dense(*args):
        out = dense(*args)
        rows[float(args[-1])] = np.stack(out[:2])
        return out
    gl._Nested.group, gl._dense_node = watched_group, watched_dense
    params = make_spectral_params(3, 0.5, 8)
    cases = [(Bargmann1(beta=1.0, gamma=0.5), None, 2.0),
             (ZeroForm(), GeometricTail(a=0.1, rho=1.0 / 9.0), 2.0),
             (Bargmann2(c1=1.5, kappa1=1.0), None, 6.0)]
    out, factors = {}, []
    for k, (base, tail, T) in enumerate(cases):
        calls.clear()
        rows.clear()
        ws = gl.solve_gl(build_perturbed_amplitude(base, [], params, tail), T, 64)
        factors.append(len(calls))
        assert len(rows) == 64
        V, Vx = np.concatenate([rows[x] for x in sorted(rows)], axis=1)
        out.update({f"q{k}": ws.potential.values, f"residual{k}": ws.residual,
                    f"V{k}": V, f"Vx{k}": Vx})
    np.savez(sys.argv[2], **out)
    print(json.dumps([factors, sorted(m for m in sys.modules if m.startswith("scipy.linalg"))]))
"""


def test_scipy_linalg_fallback_gives_the_same_bits(tmp_path):
    # where scipy.linalg's extension files are not found, the routines come
    # from the scipy.linalg package: three solves give the same bits either
    # way, the last with 26 of its 64 nodes decided by gecon on packed factors
    results = {}
    for mode in ("direct", "fallback"):
        factors, linalg = json.loads(_fresh(_BINDING_CASES, mode, str(tmp_path / mode)).stdout)
        assert factors == [3, 3, 3 + 26]
        assert ("scipy.linalg" in linalg) == (mode == "fallback")
        results[mode] = np.load(tmp_path / f"{mode}.npz")
    direct, fallback = results["direct"], results["fallback"]
    assert sorted(direct) == sorted(fallback) and len(direct) == 12
    for key in direct:
        assert np.array_equal(direct[key], fallback[key]), key


_ROUTINES = ("dgetrf", "dgetrs", "dtrtrs", "dgecon", "dlaswp", "dtrsm")


def test_import_binds_lapack_without_scipy_linalg():
    # the six routines are plain module globals from import on, and binding
    # them loads scipy.linalg's extension modules, not its package
    proc = _fresh("import json, sys; import steklovlab.gelfand_levitan as gl; "
                  f"print(json.dumps([[n in vars(gl) for n in {_ROUTINES}], "
                  "'scipy.linalg' in sys.modules]))")
    assert json.loads(proc.stdout) == [[True] * 6, False]


def test_direct_binding_coexists_with_scipy_linalg():
    # the extension modules a solve loads are registered under their own
    # names, so scipy.linalg imported afterwards binds the same routines
    code = """if True:
        import sys
        import steklovlab.gelfand_levitan as gl
        from steklovlab import Bargmann1, build_perturbed_amplitude, make_spectral_params
        amp = build_perturbed_amplitude(Bargmann1(beta=1.0, gamma=0.5), [],
                                        make_spectral_params(3, 0.5, 4))
        gl.solve_gl(amp, 2.0, 32)
        assert "scipy.linalg" not in sys.modules
        import scipy.linalg
        for name in sys.argv[1:]:
            home = scipy.linalg.blas if name == "dtrsm" else scipy.linalg.lapack
            print(getattr(home, name) is getattr(gl, name))
    """
    assert _fresh(code, *_ROUTINES).stdout.split() == ["True"] * 6


def test_reconstruct_single_resonance_well(tmp_path):
    out = tmp_path / "rec.csv"
    code = run_cli(["reconstruct", "--d", "3", "--delta", "0.5", "--T", "2",
                    "--M", "64", "--base", "bargmann1", "--beta", "1",
                    "--gamma", "0.5", "--output", str(out)])
    assert code == 0
    rows = [r for r in read_rows(out, 2) if r[0] != "x"]
    q0 = float(rows[0][1])
    assert q0 == pytest.approx(-1.5, abs=1e-4)


def test_reconstruct_long_horizon_passes_gecon_fallback(tmp_path):
    # at T = 6 the unpivoted factors grow and the certified inverse-norm bound
    # cannot pass 26 of these 64 nodes, though the solve is sound: gecon
    # decides them, and a gate on the bound alone would exit 3 here
    out = tmp_path / "rec.csv"
    code = run_cli(["reconstruct", "--base", "bargmann2", "--c1", "1.5", "--kappa1", "1",
                    "--T", "6", "--M", "64", "--output", str(out)])
    assert code == 0
    text = out.read_text()
    assert float(text.split("# gl_residual = ", 1)[1].split("\n", 1)[0]) <= 1e-10
    x, q = np.array([[float(c) for c in r] for r in read_rows(out, 2)]).T
    exact = Bargmann2(c1=1.5, kappa1=1.0).potential(x)
    assert l2_norm(q - exact, x[1]) <= 1e-3 * l2_norm(exact, x[1])


def test_reconstruct_small_bargmann2_well_matches_its_limit(tmp_path):
    # at kappa1 = 1e-9 the old p = c1 (cosh(kappa1 t) - 1)/(2 kappa1^2) was 0
    # for every t and Q came out at relL2 3.0 with exit 0; the well tends to
    # F = 1 + c1 x^3/3, Q = -2 (log F)''
    out = tmp_path / "rec.csv"
    assert run_cli(["reconstruct", "--base", "bargmann2", "--c1", "1", "--kappa1=1e-9",
                    "--T", "2", "--M", "64", "--output", str(out)]) == 0
    x, q = np.array([[float(c) for c in r] for r in read_rows(out, 2)]).T
    F = 1.0 + x**3 / 3.0
    exact = -2.0 * (2.0 * x * F - x**4) / F**2
    assert l2_norm(q - exact, x[1]) <= 1e-10 * l2_norm(exact, x[1])


@pytest.mark.parametrize("well", [["bargmann2", "--c1", "1", "--kappa1=1e5", "--T", "8"],
                                  ["bargmann1", "--beta=1e20", "--gamma=1e5", "--T", "0.5"]],
                         ids=["bargmann2", "bargmann1"])
def test_reconstruct_overflowing_p_fails_tagged(well, capsys):
    # p overflows on the lattice: the tagged error names p, and numpy warns
    # of nothing on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["reconstruct", "--base", *well, "--M", "32",
                        "--output", os.devnull]) == 3
    assert capsys.readouterr().err.startswith("[gelfand_levitan] p is not finite at t=")


def test_out_of_memory_exits_3_naming_the_sizes():
    # one child lowers its own address-space limit to 3 GiB, so GL's (M + 1)^2
    # arrays at M = 2^20 (about 1 TiB) fail to allocate and nothing is allocated
    # for real: the run exits 3 with a tagged line, not numpy's traceback
    proc = _fresh("import resource, sys; "
                  "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
                  "from steklovlab.cli import main; print(main(sys.argv[1:]))",
                  "reconstruct", "--base", "bargmann1", "--beta", "1", "--gamma", "0.5",
                  "--M", "1048576", "--output", "-")
    assert proc.stdout == "3\n"
    assert proc.stderr == "[cli] out of memory in reconstruct at K=16, M=1048576\n"


def test_truncation_points_past_the_step_budget_are_refused_at_once():
    # kappa = 1e-10 and 1e-6 truncate at 2.3e11 and 2.3e7: a first pass with
    # steps of at most 1/32 would sample 128 TiB and 16 GiB. One child lowers
    # its own address-space limit to 3 GiB, so a regression fails to allocate
    # instead of allocating for real
    proc = _fresh("import resource, time; "
                  "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
                  "import numpy as np; "
                  "from steklovlab import ValidationError, ZeroForm, wt_from_ode\n"
                  "for kappas in ([1e-10], [1.5, 1e-6]):\n"
                  "    start = time.perf_counter()\n"
                  "    try:\n"
                  "        wt_from_ode(ZeroForm(), np.array(kappas))\n"
                  "    except ValidationError as exc:\n"
                  "        print(time.perf_counter() - start < 1.0, exc)")
    budget = "a first pass and two halvings need more than 1048576 steps per pass"
    assert proc.stdout == (
        f"True evaluator failed at k=0: truncation point x_max=230000000000.0 at kappa=1e-10 "
        f"is out of reach: {budget}\n"
        f"True evaluator failed at k=1: truncation point x_max=23000000.0 at kappa=1e-06 "
        f"is out of reach: {budget}\n")
    assert proc.stderr == ""


def test_forward_past_kappa_1e12(tmp_path):
    # kappa_k = 1e12 + k: M is about -kappa, not a Dirichlet point, and sigma
    # is k up to rounding at the 1e12 scale
    out = tmp_path / "big.csv"
    assert run_cli(["forward", "--d", "2000000000002", "--delta", "0", "--base", "zero",
                    "--K", "1", "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines() if line[0].isdigit()]
    assert [float(sigma) for _, _, sigma in rows] == pytest.approx([0.0, 1.0], abs=1e-3)


@pytest.mark.xfail(strict=True, reason=(
    "unresolved discretization: p(2T) is 3.8e66 on h = 0.25, and the run exits 0 "
    "with gl_residual 9.5780971304118054e+52 although every node solve is backward "
    "stable (worst normwise backward error 0.38 eps); a resolution check would refuse it"))
def test_reconstruct_unresolved_well_fails():
    assert run_cli(["reconstruct", "--base", "bargmann2", "--c1", "0.5", "--kappa1", "10",
                    "--T", "8", "--M", "32", "--output", os.devnull]) == 3


_WELL = st.floats(-0.5, 3.0) | st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
_SIGNED = st.builds(operator.mul, st.sampled_from([1.0, -1.0]), _WELL)
_BASE = st.sampled_from(["zero", "bargmann1", "bargmann2"])
# (d, delta) from the least admissible delta = 3 - d up, and delta up to 1e300
_SPACE = st.integers(3, 5).flatmap(
    lambda d: st.tuples(st.just(d), st.floats(3.0 - d, 3.0) | _WELL))
_COEFFS = st.lists(_SIGNED, max_size=3)
_TAIL = st.none() | st.tuples(_WELL, st.floats(-0.5, 1.5) | _WELL)


def _well(base, a, b) -> list[str]:
    names = {"bargmann1": ("--beta", "--gamma"), "bargmann2": ("--c1", "--kappa1")}
    return ["--base", base, *(f"{flag}={val!r}" for flag, val in zip(names.get(base, ()), (a, b)))]


def _series(coeffs, tail) -> list[str]:
    argv = [f"--coeffs={','.join(map(repr, coeffs))}"] if coeffs else []
    return argv + ([f"--tail-a={tail[0]!r}", f"--tail-rho={tail[1]!r}"] if tail else [])


def _exits_cleanly(argv: list[str]) -> tuple[int, str]:
    """(exit status, stderr) of one command, which exits 0, 2 or 3 without a
    traceback or a warning, and prints no nan or inf when it exits 0."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = run_cli([*argv, "--output", "-"])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert [str(w.message) for w in caught] == []
    if code == 0:
        cells = {c for ln in out.getvalue().splitlines()
                 for c in ln.replace(" = ", ",").split(",")}
        assert not cells & {"nan", "inf", "-inf"}
    return code, err.getvalue()


@pytest.mark.parametrize("argv,code,message", [
    (["sweep", "--d", "4", "--delta=-1.0", "--base", "bargmann1", "--beta=10.0",
      "--gamma=1e-09", "--tail-a=1e+300", "--tail-rho=0.1", "--K", "4", "--M", "32", "--T", "1"], 3,
     "[stability_harness] sweep produced fewer than 3 valid records"),
    (["sweep", "--d", "5", "--delta=-1.0", "--base", "zero", "--coeffs=-1e+300", "--K", "4",
      "--M", "32", "--T", "1"], 3, "[stability_harness] sweep produced fewer than 3 valid records"),
    (["ks-check", "--d", "4", "--delta=3.0", "--base", "bargmann1", "--beta=0.3",
      "--gamma=1e-09", "--tail-a=1e+300", "--tail-rho=0.999", "--K", "2"], 3,
     "[perturbation] ks_check_quasi_szego: exponent"),
    (["forward", "--base", "bargmann2", "--c1=1e+300", "--kappa1=1.0", "--K", "1"], 2,
     "[radial_model] the bargmann2 potential needs c1**2 finite, got c1=1e+300"),
    (["forward", "--d", "5", "--delta=1.0", "--base", "bargmann2", "--c1=1e-300",
      "--kappa1=100000.0", "--K", "2"], 3,
     "[weyl_titchmarsh] evaluator failed at k=0: potential evaluation produced non-finite values"),
], ids=["sweep-bound-overflow", "sweep-gaps-overflow", "ks-check", "bargmann2-c1-squared",
        "bargmann2-underflow"])
def test_runs_past_the_float_range_fail_tagged(argv, code, message):
    # these printed inf or NaN with exit 0, raised OverflowError, or warned
    # and exited 2 as if the input were invalid
    got, err = _exits_cleanly(argv)
    assert got == code
    assert err.splitlines()[-1].startswith(message)


def test_ks_check_gates_only_the_figures_it_prints():
    # at c = -1e152 the squared density ratio overflows at E = 1e-3, below the
    # quasi-Szego fit range; every printed figure is finite, so the run passes
    code, err = _exits_cleanly(["ks-check", "--d", "3", "--delta", "0", "--base", "zero",
                                "--coeffs=-1e152"])
    assert (code, err) == (0, "")


def test_sweep_reports_dropped_scale_in_csv(tmp_path):
    # at s = 0.1 three figures overflow; the other scales make a sweep, and
    # its CSV, not a warning, says which scale went and why
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(["sweep", "--d", "4", "--delta=-1.0", "--base", "bargmann1",
                        "--beta=10.0", "--gamma=1e-09", "--tail-a=1e+300", "--tail-rho=0.1",
                        "--K", "4", "--M", "32", "--T", "1",
                        "--scales", "1e-1,1e-150,1e-200,1e-290", "--output", str(out)])
    assert code == 0 and caught == []
    lines = out.read_text().splitlines()
    assert [ln for ln in lines if ln.startswith("# dropped")] == [
        "# dropped = s=0.1: [stability_harness] q_gap, a_gap, bound not finite"]
    assert lines[-1].startswith("# dropped") and lines[-2] == "# verdict = PASS"


def test_sweep_drops_a_scale_whose_q_gap_is_lost(tmp_path):
    # at s = 1e-17 the perturbation of the Bargmann1 amplitude is below its
    # rounding level: Q~ and Q come out the same and q_gap reads 0, which the
    # log-log fit cannot take. The scale is dropped, not the sweep
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--base", "bargmann1", "--beta", "1", "--gamma", "0.5",
                    "--coeffs=-1", "--T", "2", "--M", "64", "--K", "8",
                    "--scales", "1e-1,1e-2,1e-3,1e-17", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    (dropped,) = [ln for ln in lines if ln.startswith("# dropped")]
    assert dropped.startswith("# dropped = s=1e-17: [stability_harness] q_gap is 0 at eps = 5")
    assert dropped.endswith("e-18: Q~ - Q is below the rounding level of the reconstructions")
    assert len(read_rows(out, 8)) == 3 and "# verdict = PASS" in lines


def test_perturb_diff_is_the_series_sum(tmp_path):
    # diff = sigma~_k - sigma_k is sum_j c_j / (2 kappa_k + mu_j) in closed
    # form; subtracting the two spectra lost up to 3.6e-3 of it at c = -1e-12
    from steklovlab import Bargmann1, build_perturbed_amplitude, make_spectral_params
    out = tmp_path / "perturb.csv"
    assert run_cli(["perturb", "--d", "3", "--delta", "0.5", "--K", "4", "--base", "bargmann1",
                    "--beta", "1", "--gamma", "0.5", "--coeffs=-1e-12",
                    "--output", str(out)]) == 0
    params = make_spectral_params(3, 0.5, 4)
    amp = build_perturbed_amplitude(Bargmann1(beta=1.0, gamma=0.5), [-1e-12], params)
    exact = [sum(c / (2.0 * kappa + mu) for c, mu in zip(amp.term_coeffs.tolist(),
                                                          amp.term_mu.tolist()))
             for kappa in params.kappa.tolist()]
    diffs = [float(row[3]) for row in read_rows(out, 4)]
    assert len(diffs) == 5
    assert all(abs(d - e) <= 1e-15 * abs(e) for d, e in zip(diffs, exact))
    eps = next(ln for ln in out.read_text().splitlines() if ln.startswith("# eps = "))
    assert float(eps.split(" = ")[1]) == max(map(abs, diffs))


def test_sweep_keeps_tiny_scale_gap(tmp_path):
    # the gap is read in closed form, so at s = 1e-30 it is 5e-31, not the
    # difference of two O(1) spectra that rounds to 0; the scale stays
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--d", "3", "--delta", "0.5", "--T", "2", "--K", "8",
                    "--M", "64", "--base", "zero", "--coeffs=-1",
                    "--scales", "1e-1,1e-2,1e-3,1e-30", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    row = next(ln for ln in lines if ln.startswith("1.0000000000000001e-30,"))
    assert float(row.split(",")[1]) == pytest.approx(5e-31, rel=1e-15, abs=0)
    assert "# verdict = PASS" in lines
    assert not [ln for ln in lines if ln.startswith("# dropped")]


def test_sweep_refuses_base_without_laplace_representation(tmp_path, capsys):
    # Bargmann2's amplitude grows like e^{2 kappa1 alpha}: sigma_0 at
    # kappa_0 = 0.5 has no Laplace representation when kappa1 = 1
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--d", "3", "--delta", "0.5", "--base", "bargmann2",
                    "--c1", "1", "--kappa1", "1", "--coeffs=-1", "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        "[weyl_titchmarsh] evaluator failed at k=0: representation for this base needs "
        "kappa > 1.0, got 0.5\n")
    assert not out.exists()


@settings(derandomize=True, max_examples=100, deadline=2000, database=None)
@given(base=_BASE, T=st.floats(0.5, 8.0), M=st.sampled_from([32, 64]), a=_WELL, b=_WELL)
def test_reconstruct_fuzz_exits_cleanly(base, T, M, a, b):
    # wells inside and outside their parameter ranges, up to where p or the
    # factors overflow, and horizons where the conditioning bound passes
    # every node and where gecon decides some
    _exits_cleanly(["reconstruct", *_well(base, a, b), f"--T={T!r}", f"--M={M}"])


@settings(derandomize=True, max_examples=40, deadline=2000, database=None)
@given(base=_BASE, a=_WELL, b=_WELL, space=_SPACE, K=st.integers(1, 3))
@example(base="bargmann2", a=1e300, b=1.0, space=(3, 0.5), K=1)
@example(base="bargmann2", a=1e-300, b=1e5, space=(5, 1.0), K=2)
@example(base="bargmann2", a=1.0, b=1e48, space=(3, 0.0), K=1)  # the propagators overflow
def test_forward_fuzz_exits_cleanly(base, a, b, space, K):
    _exits_cleanly(["forward", *_well(base, a, b), f"--d={space[0]}",
                    f"--delta={space[1]!r}", f"--K={K}"])


@settings(derandomize=True, max_examples=40, deadline=2000, database=None)
@given(command=st.sampled_from(["perturb", "ks-check"]), base=_BASE, a=_WELL, b=_WELL,
       space=_SPACE, K=st.integers(1, 4), coeffs=_COEFFS, tail=_TAIL)
@example(command="ks-check", base="bargmann1", a=0.3, b=1e-9, space=(4, 3.0), K=2,
         coeffs=[], tail=(1e300, 0.999))
@example(command="perturb", base="zero", a=0.0, b=0.0, space=(3, 0.0), K=1,
         coeffs=[-1.1125369292536007e-308, -2.0], tail=None)  # the radius ratio overflows
def test_measure_commands_fuzz_exits_cleanly(command, base, a, b, space, K, coeffs, tail):
    _exits_cleanly([command, *_well(base, a, b), f"--d={space[0]}", f"--delta={space[1]!r}",
                    f"--K={K}", *_series(coeffs, tail)])


@settings(derandomize=True, max_examples=30, deadline=2000, database=None)
@given(space=_SPACE, n=st.integers(0, 8), precision=st.sampled_from([16, 53, 256]))
@example(space=(3, 1e6), n=1, precision=16)  # the exponents round to one 16-bit value
def test_muntz_fuzz_exits_cleanly(space, n, precision):
    _exits_cleanly(["muntz", f"--d={space[0]}", f"--delta={space[1]!r}", f"--n={n}",
                    f"--K={max(n, 1)}", f"--precision={precision}"])


@settings(derandomize=True, max_examples=30, deadline=3000, database=None)
@given(base=_BASE, a=_WELL, b=_WELL, space=_SPACE, K=st.integers(1, 4),
       T=st.floats(0.5, 4.0), coeffs=_COEFFS, tail=_TAIL)
@example(base="bargmann1", a=10.0, b=1e-9, space=(4, -1.0), K=4, T=1.0, coeffs=[],
         tail=(1e300, 0.1))
@example(base="zero", a=0.0, b=0.0, space=(5, -1.0), K=4, T=1.0, coeffs=[-1e300], tail=None)
def test_sweep_fuzz_exits_cleanly(base, a, b, space, K, T, coeffs, tail):
    _exits_cleanly(["sweep", *_well(base, a, b), f"--d={space[0]}", f"--delta={space[1]!r}",
                    f"--K={K}", "--M=32", f"--T={T!r}", *_series(coeffs, tail),
                    "--scales=1e-1,1e-2,1e-3,1e-4"])


def test_muntz_table_and_residual(tmp_path):
    out = tmp_path / "muntz.csv"
    assert run_cli(["muntz", "--d", "3", "--delta", "0", "--n", "6",
                    "--output", str(out)]) == 0
    resid = [ln for ln in out.read_text().splitlines()
             if ln.startswith("# gram_residual")]
    assert len(resid) == 1
    assert float(resid[0].split("=")[1]) <= 1e-8


def test_muntz_refuses_uncertified_levels(tmp_path, capsys):
    out = tmp_path / "muntz.csv"
    # 16 bits: the table is noise (Gram residual 2.4e38); 53 bits: n = 10 has
    # a Gram residual of 1.7e-3
    for args in (["--precision", "16", "--n", "30"], ["--precision", "53", "--n", "10"]):
        assert run_cli(["muntz", *args, "--output", str(out)]) == 3
        assert capsys.readouterr().err.startswith("[muntz] ")
        assert not out.exists()
    # the table is refused at the first uncertified level, m = 91 of 2000 at
    # 256 bits, before the rest of its O(n^2) entries are built
    start = time.perf_counter()
    assert run_cli(["muntz", "--d", "3", "--delta", "0.5", "--n", "2000",
                    "--output", str(out)]) == 3
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().err.startswith(
        "[muntz] orthonormalization level n=91 exceeds the certified range at 256-bit")
    assert not out.exists()
    assert run_cli(["muntz", "--d", "3", "--delta", "0", "--n", "10",
                    "--output", str(out)]) == 0


@pytest.mark.parametrize("delta,least", [("0", 27), ("0.5", 30)])
def test_muntz_level_zero_refusal_names_the_least_precision(tmp_path, capsys, delta, least):
    # row 0's proxy sqrt(2 lam_0 + 1) passes 10^(digits - 8) first at 27 bits
    # for lam_0 = 0 and at 30 bits for lam_0 = 1/2
    out = tmp_path / "muntz.csv"
    args = ["muntz", "--n", "0", "--delta", delta, "--output", str(out)]
    assert run_cli([*args, "--precision", str(least - 1)]) == 3
    assert capsys.readouterr().err.rstrip().endswith(
        f"the precision is too low for any level of this ladder; "
        f"level 0 needs at least {least} bits")
    assert not out.exists()
    assert run_cli([*args, "--precision", str(least)]) == 0
    assert out.exists()


def test_sweep_verdict(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(["sweep", "--d", "3", "--delta", "0.5", "--T", "2",
                    "--K", "64", "--M", "64", "--base", "zero",
                    "--tail-a", "1.0", "--tail-rho", str(1.0 / 9.0),
                    "--scales", "1e-1,1e-2,1e-3,1e-4", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert any(ln.startswith("# verdict = PASS") for ln in lines)
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(data) == 4


def test_ks_check_report(tmp_path):
    out = tmp_path / "ks.csv"
    assert run_cli(["ks-check", "--d", "3", "--delta", "1", "--K", "8",
                    "--base", "zero", "--coeffs", "-1.0",
                    "--output", str(out)]) == 0
    vals = {}
    for ln in out.read_text().splitlines():
        if ln.startswith("#") or "," not in ln:
            continue
        cells = ln.split(",")
        if len(cells) == 3 and cells[0] != "check":
            vals[(cells[0], cells[1])] = cells[2]
    assert float(vals[("positivity", "min_density")]) >= 0.0
    assert vals[("positivity", "passed")] == "1"
    assert abs(float(vals[("quasi_szego", "decay_exponent")]) + 2.0) <= 0.1
    assert abs(float(vals[("normalization", "maximal_exponent")]) + 1.0) <= 0.15


def test_byte_identical_reruns(tmp_path):
    out = tmp_path / "a.csv"
    args = ["perturb", "--d", "3", "--delta", "1", "--K", "8", "--base", "zero",
            "--coeffs=-0.5,-0.1", "--output", str(out)]
    assert run_cli(args) == 0
    first = out.read_bytes()
    assert run_cli(args) == 0
    assert out.read_bytes() == first


def test_config_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "muntz", "d": 3, "delta": 0.0, "n": 3}))
    out = tmp_path / "m.csv"
    assert run_cli(["--config", str(cfg), "--n", "2", "--output", str(out)]) == 0
    assert "# n = 2" in out.read_text()


def test_validation_failures_exit_2(tmp_path, capsys):
    assert run_cli(["forward", "--d", "3", "--delta", "-1"]) == 2
    assert "radial_model" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:  # argparse rejects unknown commands
        run_cli(["frobnicate"])
    assert exc.value.code == 2
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"command": "muntz", "frobnicate": 1}))
    assert run_cli(["--config", str(cfg)]) == 2
    assert run_cli(["perturb", "--base", "zero", "--coeffs", "0.5"]) == 2
    capsys.readouterr()
    # malformed values: each is a validation failure, never a traceback
    for data in ({"command": "muntz", "n": "3"}, {"command": "muntz", "n": 3.5},
                 {"command": "reconstruct", "T": "2"}, {"command": "forward", "base": "zero"},
                 {"command": "ks-check", "coeffs": {"values": ["a"]}}, [1, 2],
                 # a misspelled key inside base, coeffs or the generator
                 {"command": "reconstruct", "coeffs": {"valuez": [-1.0]}},
                 {"command": "forward", "base": {"kind": "bargmann1", "beta": 1.0,
                                                 "gamma": 0.5, "gama": 0.1}},
                 {"command": "sweep", "coeffs": {"generator": {"a": 1.0, "rho": 0.1,
                                                               "roh": 0.2}}},
                 {"command": "ks-check", "coeffs": {"generator": [1.0, 0.1]}},
                 # every number, also inside base, coeffs and the generator, is a
                 # finite JSON int or float: not a string or a bool
                 {"command": "forward", "base": {"kind": "bargmann1", "beta": "1",
                                                 "gamma": 0.5}},
                 {"command": "forward", "base": {"kind": "bargmann2", "c1": 1.0,
                                                 "kappa1": True}},
                 {"command": "perturb", "coeffs": {"values": ["-1"]}},
                 {"command": "perturb", "coeffs": {"values": [False]}},
                 {"command": "perturb", "coeffs": {"values": -1}},
                 {"command": "sweep", "coeffs": {"generator": {"a": "1", "rho": 0.1}}},
                 {"command": "sweep", "coeffs": {"generator": {"a": 1.0, "rho": "0.1"}}},
                 {"command": "reconstruct", "T": 10**400}):  # an int past the float range
        cfg.write_text(json.dumps(data))
        assert run_cli(["--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("[cli] ")
    for args in (["sweep", "--coeffs", "a"], ["sweep", "--scales", "1,b"],
                 ["forward", "--base", "zero", "--beta", "7"],  # a zero base has no beta
                 # forward does not read coeffs, nor muntz base or coeffs
                 ["forward", "--base", "zero", "--K", "2", "--coeffs=-1", "--tail-a", "1",
                  "--tail-rho", "0.5"],
                 ["muntz", "--d", "3", "--delta", "0", "--n", "2", "--base", "bargmann1",
                  "--beta", "1", "--gamma", "0.5"],
                 ["muntz", "--d", "3", "--delta", "0", "--n", "2", "--coeffs=-1"],
                 ["perturb", "--base", "bargmann2", "--c1", "1", "--kappa1", "0.5",
                  "--gamma", "0.5"]):
        assert run_cli(args) == 2
        assert capsys.readouterr().err.startswith("[cli] ")
    cfg.write_text(json.dumps({"command": "sweep", "coeffs": {"values": [-0.1]}, "scales": []}))
    assert run_cli(["--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("[stability_harness] ")
    # non-finite numbers (argparse's float takes nan and inf)
    for args in (["perturb", "--d", "3", "--delta", "nan", "--K", "8", "--base", "zero",
                  "--coeffs=-1.5"], ["reconstruct", "--T", "nan"],
                 ["forward", "--tolerance", "nan"],
                 ["sweep", "--tail-a", "1", "--tail-rho", "0.1", "--scales", "1e-1,inf"]):
        assert run_cli(args) == 2
        assert capsys.readouterr().err.startswith("[cli] ")
    # a tolerance <= 0 is refused by the shooting route, before any shooting
    assert run_cli(["forward", "--tolerance", "-1"]) == 2
    assert capsys.readouterr() == (
        "", "[weyl_titchmarsh] tolerance must be positive and finite, got -1.0\n")
    # ... also inside the base well and the coefficients, before any numerical work
    for args in (["reconstruct", "--base", "bargmann2", "--c1", "inf", "--kappa1", "0.5",
                  "--M", "32"], ["forward", "--base", "bargmann1", "--beta", "inf",
                                 "--gamma", "0.5"],
                 ["forward", "--base", "bargmann1", "--beta", "1", "--gamma", "nan"],
                 ["perturb", "--base", "bargmann2", "--c1", "1", "--kappa1=-inf"],
                 ["sweep", "--base", "zero", "--tail-a", "inf", "--tail-rho", "0.1"],
                 ["ks-check", "--base", "zero", "--tail-a", "1", "--tail-rho", "nan"],
                 ["perturb", "--base", "zero", "--coeffs=-0.5,inf"]):
        assert run_cli(args) == 2
        assert capsys.readouterr().err.startswith("[cli] ")
    for text in ('{"command": "forward", "tolerance": Infinity}',  # json.load takes these
                 '{"command": "sweep", "scales": [0.1, NaN]}',
                 '{"command": "reconstruct", "base": {"kind": "bargmann1", "beta": 1, '
                 '"gamma": NaN}}',
                 '{"command": "perturb", "coeffs": {"values": [-0.5, -Infinity]}}',
                 '{"command": "sweep", "coeffs": {"generator": {"a": NaN, "rho": 0.1}}}'):
        cfg.write_text(text)
        assert run_cli(["--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("[cli] ")
    # a tail flag merges into the config's generator, which must be an object
    cfg.write_text(json.dumps({"command": "ks-check", "coeffs": {"generator": [1.0, 0.1]}}))
    assert run_cli(["--config", str(cfg), "--tail-a", "1"]) == 2
    assert capsys.readouterr().err.startswith("[cli] ")
    # the retired truncation point: every kappa shoots over [0, 23/kappa], so
    # --x-max is an unknown flag and x_max an unknown config key, for every
    # command, refused before any module the commands run loads
    cfg.write_text(json.dumps({"command": "forward", "x_max": 12}))
    proc = _fresh("import contextlib, io, json, sys; from steklovlab.cli import main\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    err = io.StringIO()\n"
                  "    with contextlib.redirect_stderr(err):\n"
                  "        try: code = main(argv)\n"
                  "        except SystemExit as exc: code = exc.code\n"
                  "    print(json.dumps([code, err.getvalue().splitlines()[-1]]))\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath') "
                  "or m in ('steklovlab.weyl_titchmarsh', 'steklovlab.perturbation', "
                  "'steklovlab.gelfand_levitan', 'steklovlab.muntz', "
                  "'steklovlab.stability_harness')))",
                  json.dumps([[command, "--x-max", "12", "--output", "-"]
                              for command in cli.COMMANDS]
                             + [["--config", str(cfg), "--output", "-"]]))
    *results, loaded = proc.stdout.splitlines()
    assert [json.loads(ln) for ln in results] == (
        [[2, "steklovlab: error: unrecognized arguments: --x-max 12"]] * len(cli.COMMANDS)
        + [[2, "[cli] unknown config key 'x_max'"]])
    assert loaded == "[]"
    # the retired workers key: saved configs carry "workers": 1, and only that passes
    plain = {"command": "perturb", "d": 3, "delta": 1, "K": 4, "base": {"kind": "zero"},
             "coeffs": {"values": [-0.5]}}
    texts = []
    for extra in ({}, {"workers": 1}):
        cfg.write_text(json.dumps({**plain, **extra}))
        out = tmp_path / "w.csv"
        assert run_cli(["--config", str(cfg), "--output", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    for val in (2, True):
        cfg.write_text(json.dumps({**plain, "workers": val}))
        assert run_cli(["--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("[cli] ")
    with pytest.raises(SystemExit) as exc:  # the flag is gone
        run_cli(["perturb", "--workers", "1"])
    assert exc.value.code == 2


# every scalar field with a value other than its default, as a flag and as a JSON
# value, and a command that reads it
_SCALAR_VALUES = [("command", "muntz", "muntz", "forward"), ("d", "4", 4, "perturb"),
                  ("delta", "0.25", 0.25, "muntz"), ("T", "1.5", 1.5, "reconstruct"),
                  ("K", "8", 8, "ks-check"), ("M", "64", 64, "sweep"),
                  ("output", "x.csv", "x.csv", "reconstruct"), ("precision", "128", 128, "muntz"),
                  ("tolerance", "1e-09", 1e-09, "forward"),
                  ("n", "3", 3, "muntz")]


@pytest.mark.parametrize("name,flag,value,command", _SCALAR_VALUES,
                         ids=[v[0] for v in _SCALAR_VALUES])
def test_flag_and_config_key_give_the_same_header_line(name, flag, value, command, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": command, name: value}))
    argv = [flag] if name == "command" else [command, f"--{name.replace('_', '-')}", flag]

    def line(config):
        return next(ln for ln in config.header_lines() if ln.startswith(f"{name} = "))

    assert line(build_config(argv)) == line(build_config(["--config", str(cfg)]))
    assert line(build_config(argv)) != line(RunConfig(command=command))


# the RunConfig fields each command reads, in field order
_READS = {
    "forward": ["command", "d", "delta", "K", "base", "output", "tolerance"],
    "perturb": ["command", "d", "delta", "K", "base", "coeffs", "output"],
    "reconstruct": ["command", "d", "delta", "T", "K", "M", "base", "coeffs", "output"],
    "muntz": ["command", "d", "delta", "K", "output", "precision", "n"],
    "sweep": ["command", "d", "delta", "T", "K", "M", "base", "coeffs", "scales", "output"],
    "ks-check": ["command", "d", "delta", "K", "base", "coeffs", "output"],
}
# a small run of each command
_SMALL = {"forward": ["--K", "2"], "perturb": ["--K", "2", "--coeffs=-1"],
          "reconstruct": ["--M", "32"], "muntz": ["--n", "2"],
          "sweep": ["--K", "8", "--M", "32", "--coeffs=-1"],
          "ks-check": ["--K", "2", "--coeffs=-1"]}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_header_echoes_the_fields_the_command_reads(command, capsys):
    assert run_cli([command, *_SMALL[command], "--output", "-"]) == 0
    keys = [ln[2:].split(" = ")[0] for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("# ")]
    # the notes after the header (such as reconstruct's gl_residual) are not fields
    assert [key for key in keys if key in RunConfig.__dataclass_fields__] == _READS[command]


# a value other than the default, which passes every bound check, for each field
# that some command does not read
_NON_DEFAULT = {"T": ["--T", "1.5"], "M": ["--M", "64"],
                "base": ["--base", "bargmann1", "--beta", "1", "--gamma", "0.5"],
                "coeffs": ["--coeffs=-1"], "scales": ["--scales", "1e-1,1e-2,1e-3"],
                "precision": ["--precision", "128"], "tolerance": ["--tolerance", "1e-09"],
                "n": ["--n", "3"]}


def test_a_field_the_command_does_not_read_is_refused_before_any_work():
    # one interpreter runs every pair; each is refused before the command
    # imports the modules it runs (GL, Muntz tables, the sweep, the amplitudes)
    pairs = [(command, name) for command in cli.COMMANDS for name in _NON_DEFAULT
             if name not in _READS[command]]
    proc = _fresh("import contextlib, io, json, sys; from steklovlab.cli import main\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    err = io.StringIO()\n"
                  "    with contextlib.redirect_stderr(err): code = main(argv)\n"
                  "    print(json.dumps([code, err.getvalue(), sorted(m for m in sys.modules "
                  "if m.split('.')[0] in ('scipy', 'mpmath') or m in ('steklovlab.perturbation', "
                  "'steklovlab.gelfand_levitan', 'steklovlab.muntz', "
                  "'steklovlab.stability_harness'))]))",
                  json.dumps([[command, *_NON_DEFAULT[name], "--output", "-"]
                              for command, name in pairs]))
    results = [json.loads(ln) for ln in proc.stdout.splitlines()]
    assert len(pairs) == len(results) == 31
    for (command, name), (code, err, loaded) in zip(pairs, results):
        assert code == 2, (command, name)
        assert err.startswith(f"[cli] {command} does not read {name}: got "), err
        assert loaded == [], (command, name)


def test_parser_options_are_derived_unchanged():
    options = [s for action in cli._PARSER._actions for s in action.option_strings]
    assert sorted(options) == sorted([
        "-h", "--help", "--config", "--output", "--precision", "--d", "--delta", "--T", "--K",
        "--M", "--tolerance", "--n", "--base", "--beta", "--gamma", "--c1",
        "--kappa1", "--coeffs", "--tail-a", "--tail-rho", "--scales"])


def test_config_numbers_are_echoed_as_given(tmp_path):
    # an int in a float field stays an int, and the header keeps its bytes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "sweep", "delta": 0, "T": 2, "K": 8, "M": 64,
                               "coeffs": {"values": [-1]}, "scales": [1, 0.01, 0.001]}))
    out = tmp_path / "s.csv"
    assert run_cli(["--config", str(cfg), "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    for line in ("# delta = 0", "# T = 2", "# scales = [1,0.01,0.001]"):
        assert line in lines


def test_main_builds_no_parser_and_reads_no_type_hints(monkeypatch, tmp_path):
    calls = []
    init, hints = argparse.ArgumentParser.__init__, typing.get_type_hints
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: calls.append("parser") or init(self, *a, **k))
    for home in (typing, cli):
        monkeypatch.setattr(home, "get_type_hints",
                            lambda *a, **k: calls.append("hints") or hints(*a, **k))
    for _ in range(2):
        assert cli.main(["muntz", "--n", "2", "--output", str(tmp_path / "m.csv")]) == 0
    assert calls == []


def test_refused_reconstruct_loads_no_lapack():
    # a horizon that is not positive and an odd M are refused before the
    # command imports GL, which binds LAPACK and BLAS at import
    proc = _fresh("import json, sys; from steklovlab.cli import main; "
                  "codes = [main(['reconstruct', '--base', 'bargmann1', '--beta', '1', "
                  "'--gamma', '0.5', *a.split(), '--output', '-']) for a in sys.argv[1:]]; "
                  "print(json.dumps([codes, sorted(m for m in sys.modules if m in "
                  "('scipy.linalg._flapack', 'scipy.linalg._fblas', "
                  "'steklovlab.gelfand_levitan'))]))",
                  "--T -1 --M 32", "--T 0", "--M 33")
    assert json.loads(proc.stdout) == [[2, 2, 2], []]
    assert proc.stderr.splitlines() == ["[cli] T must be positive, got -1.0",
                                        "[cli] T must be positive, got 0.0",
                                        "[cli] M must be even, got 33"]


def test_numerical_failure_exits_3(tmp_path, capsys):
    # every scale of a positive-coefficient family is rejected: < 3 records
    code = run_cli(["sweep", "--d", "3", "--delta", "0.5", "--K", "16",
                    "--M", "32", "--base", "zero", "--coeffs", "1.0",
                    "--scales", "1e-1,1e-2,1e-3,1e-4",
                    "--output", str(tmp_path / "x.csv")])
    assert code == 3
    assert "stability_harness" in capsys.readouterr().err


def test_forward_fails_fast_at_bound_state(capsys):
    # kappa_0 = 0.5 is the bound state of this well; the other 64 kappas stop
    start = time.perf_counter()
    code = run_cli(["forward", "--base", "bargmann2", "--c1", "1", "--kappa1", "0.5",
                    "--d", "3", "--delta", "0", "--K", "64"])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "evaluator failed at k=0:" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", ["1e-300", "1e-16"])
def test_forward_refuses_a_tolerance_below_the_rounding_floor(tolerance, capsys):
    # |M| >= 1.5 on this ladder, so half an ulp of M is above either tolerance
    start = time.perf_counter()
    code = run_cli(["forward", "--d", "5", "--delta", "1", "--base", "bargmann1", "--beta", "1",
                    "--gamma", "0.5", "--K", "64", "--tolerance", tolerance, "--output", os.devnull])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert capsys.readouterr().err.startswith(
        f"[weyl_titchmarsh] evaluator failed at k=0: tolerance {float(tolerance)} is below the "
        "rounding floor of M at kappa=1.5: ")


def test_unwritable_output_exits_2(tmp_path):
    assert run_cli(["muntz", "--n", "2", "--output",
                    str(tmp_path / "no" / "such" / "dir.csv")]) == 2
