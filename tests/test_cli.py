import json
import shlex
import time
from pathlib import Path

import numpy as np
import pytest

from steklovlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_reconstruct_single_resonance_well(tmp_path):
    out = tmp_path / "rec.csv"
    code = run_cli(["reconstruct", "--d", "3", "--delta", "0.5", "--T", "2",
                    "--M", "64", "--base", "bargmann1", "--beta", "1",
                    "--gamma", "0.5", "--output", str(out)])
    assert code == 0
    rows = [r for r in read_rows(out, 2) if r[0] != "x"]
    q0 = float(rows[0][1])
    assert q0 == pytest.approx(-1.5, abs=1e-4)


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
    with pytest.warns(UserWarning):
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
