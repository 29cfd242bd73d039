"""Set-up time of one op in a fresh interpreter.

    python3 perfbench/probe.py SRC_DIR CONFIG_JSON

Times importing steklovlab, building the run config through the CLI's own
parser, and building the spectral parameters and the amplitude: everything up
to the first layer call of a pass. Then times run._probe, the host-speed loop,
on the same core. Prints both, in seconds, on standard output.
"""

import sys
import time

_T0 = time.perf_counter()


def main(src: str, config: str) -> float:
    sys.path.insert(0, src)
    from steklovlab import (Bargmann1, Bargmann2, GeometricTail, ZeroForm,
                            build_perturbed_amplitude, make_spectral_params)
    from steklovlab.cli import build_config

    cfg = build_config(["--config", config])
    params = make_spectral_params(cfg.d, cfg.delta, max(cfg.K, cfg.n))
    base = dict(cfg.base)
    form = {"zero": ZeroForm, "bargmann1": Bargmann1, "bargmann2": Bargmann2}[base.pop("kind")]
    gen = cfg.coeffs.get("generator")
    tail = GeometricTail(a=gen["a"], rho=gen["rho"]) if gen else None
    build_perturbed_amplitude(form(**base), cfg.coeffs.get("values", []), params, tail)
    return time.perf_counter() - _T0


if __name__ == "__main__":
    setup = main(sys.argv[1], sys.argv[2])
    import statistics
    from run import _probe
    print(repr(setup), repr(statistics.median(_probe() for _ in range(21))))
