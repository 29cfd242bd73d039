import contextlib
import io
import json
import operator
import os
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from steklovlab import Bargmann2
from steklovlab.cli import main
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
                    "--base", "zero", "--x-max", "12", "--output", str(out)])
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
    # sinh(2 kappa1 alpha) overflows long before e^{-2 kappa alpha} decays
    out = tmp_path / "perturb.csv"
    assert run_cli(["perturb", "--base", "bargmann2", "--c1", "1", "--kappa1", "0.49",
                    "--K", "4", "--output", str(out)]) == 0
    rows = [r for r in read_rows(out, 4) if r[0] != "k"]
    kappa = np.arange(5) + 0.5
    exact = -0.5 + kappa - 1.0 / ((kappa - 0.49) * (kappa + 0.49))
    sigma = np.array([[float(c) for c in r[1:3]] for r in rows])
    assert np.all(np.abs(sigma - exact[:, None]) <= 1e-13 * np.abs(exact[:, None]))
    assert "# eps = 0" in out.read_text().splitlines()
    # the sweep on the same base keeps every scale
    assert run_cli(["sweep", "--base", "bargmann2", "--c1", "1", "--kappa1", "0.49",
                    "--K", "16", "--M", "32", "--tail-a", "1", "--tail-rho", "0.111111",
                    "--output", str(out)]) == 0
    assert len([ln for ln in out.read_text().splitlines() if ln.endswith(",PASS")]) == 4
    # c1/kappa1 overflows: a non-finite Laplace value fails tagged, never as NaN
    assert run_cli(["perturb", "--base", "bargmann2", "--c1", "1e300", "--kappa1", "1e-10",
                    "--K", "4", "--output", str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        "[weyl_titchmarsh] evaluator failed at k=0: the Laplace route is not finite")


def _fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run python -c code in a new interpreter on this checkout's sources."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=60, check=True)


_LOADED = ("sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'mpmath'})")


def test_import_leaves_out_unused_scipy():
    # scipy.linalg loads about 300 modules, most of them numpy.f2py,
    # numpy.testing and numpy.ma through scipy's array-API layer: only a GL
    # solve needs it, and only a Muntz table needs mpmath
    proc = _fresh(f"import sys, steklovlab, steklovlab.cli; print({_LOADED})")
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv,loaded", [
    (["forward", "--K", "2", "--base", "zero", "--x-max", "8"], []),
    (["perturb", "--K", "4", "--base", "bargmann1", "--beta", "1", "--gamma", "0.5"], []),
    (["ks-check", "--delta", "1", "--coeffs=-1.0"], []),
    (["muntz", "--n", "6"], ["mpmath"]),
    (["reconstruct", "--base", "bargmann1", "--beta", "1", "--gamma", "0.5", "--M", "32"],
     ["scipy"]),
], ids=["forward", "perturb", "ks-check", "muntz", "reconstruct"])
def test_fresh_command_loads_only_what_it_uses(argv, loaded):
    proc = _fresh("import sys; from steklovlab.cli import main; "
                  f"code = main(sys.argv[1:]); print(code, {_LOADED})",
                  *argv, "--output", os.devnull)
    assert proc.stdout.strip() == f"0 {loaded}"


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
    # three floor nodes and 29 nested 4 x 4 Schur blocks; two solves per floor node
    assert calls == {"lu_factor": 32, "lu_solve": 6}


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


def test_forward_bargmann2_far_horizon_stays_finite(tmp_path):
    # F, F' and F'' grow like e^{2 kappa1 x}: unscaled they overflowed near
    # x = 724 and the potential failed its finiteness check (exit 2)
    out = tmp_path / "fwd.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["forward", "--base", "bargmann2", "--c1", "1", "--kappa1", "0.49",
                        "--K", "2", "--x-max", "800", "--output", str(out)]) == 0
    kappa, sigma = np.array([[float(c) for c in r[1:]] for r in read_rows(out, 3)
                             if r[0] != "k"]).T
    form = Bargmann2(c1=1.0, kappa1=0.49)
    exact = kappa - 0.5 + np.array([form.laplace(k) for k in kappa])
    assert np.all(np.abs(sigma - exact) <= 1e-8 * np.abs(exact))


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


@pytest.mark.xfail(strict=True, reason=(
    "unresolved discretization: p(2T) is 3.8e66 on h = 0.25, and the run exits 0 "
    "with gl_residual 3.0e52 although every node solve is backward stable (worst "
    "normwise backward error 0.38 eps); a resolution check would refuse it"))
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
      "--kappa1=100000.0", "--K", "2"], 3, "[radial_model] bargmann2 potential is not finite"),
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
    assert run_cli(["muntz", "--d", "3", "--delta", "0", "--n", "10",
                    "--output", str(out)]) == 0


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
                 {"command": "ks-check", "coeffs": {"values": ["a"]}}, [1, 2]):
        cfg.write_text(json.dumps(data))
        assert run_cli(["--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("[cli] ")
    for args in (["sweep", "--coeffs", "a"], ["sweep", "--scales", "1,b"]):
        assert run_cli(args) == 2
        assert capsys.readouterr().err.startswith("[cli] ")
    cfg.write_text(json.dumps({"command": "sweep", "coeffs": {"values": [-0.1]}, "scales": []}))
    assert run_cli(["--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("[stability_harness] ")
    # non-finite numbers (argparse's float takes nan and inf) and a tolerance <= 0
    for args in (["perturb", "--d", "3", "--delta", "nan", "--K", "8", "--base", "zero",
                  "--coeffs=-1.5"], ["reconstruct", "--T", "nan"],
                 ["forward", "--tolerance", "-1"], ["forward", "--tolerance", "nan"],
                 ["sweep", "--tail-a", "1", "--tail-rho", "0.1", "--scales", "1e-1,inf"]):
        assert run_cli(args) == 2
        assert capsys.readouterr().err.startswith("[cli] ")
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
    for text in ('{"command": "forward", "x_max": Infinity}',  # json.load takes these
                 '{"command": "sweep", "scales": [0.1, NaN]}',
                 '{"command": "reconstruct", "base": {"kind": "bargmann1", "beta": 1, '
                 '"gamma": NaN}}',
                 '{"command": "perturb", "coeffs": {"values": [-0.5, -Infinity]}}',
                 '{"command": "sweep", "coeffs": {"generator": {"a": NaN, "rho": 0.1}}}'):
        cfg.write_text(text)
        assert run_cli(["--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("[cli] ")
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


def test_unwritable_output_exits_2(tmp_path):
    assert run_cli(["muntz", "--n", "2", "--output",
                    str(tmp_path / "no" / "such" / "dir.csv")]) == 2
