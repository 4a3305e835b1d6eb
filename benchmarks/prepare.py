"""One-time set-up of each workload: import shellsde, build the model and its tables.

Only the standard library is imported at module level, so that a fresh
interpreter running ``python3 benchmarks/prepare.py <workload>`` can time the
whole set-up a user pays, numpy and scipy imports included, and print it in
seconds.  The benchmark runner starts several such children and reports their
median as ``setup_s``; it also calls :func:`setup` in process to obtain the
objects its workloads use.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

NOVIKOV = "novikov:lambda=2,sigma=1"
GOY = "goy:a=1,b=-1.5,c=0.5,lambda=2,sigma_tilde=1"
ENSEMBLE_SHELLS = 10
TRIANGULATE_MAX_LEVEL = 40  # `shellsde triangulate` default --max-level

# workload -> (model preset expressions, one-time table to build)
SETUPS = {
    "girsanov_ensemble": ((NOVIKOV,), "coefficients"),
    "goy_nonlinear_ensemble": ((GOY,), "coefficients"),
    "triangulate": (("novikov",), "rates"),
    "dissipation_sweep": (("novikov", "goy"), None),
}


def import_shellsde():
    """Import the package from the checkout's ``src``, never from an installed copy."""
    if not (SRC / "shellsde" / "__init__.py").is_file():
        raise FileNotFoundError(f"no shellsde sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import shellsde

    if Path(shellsde.__file__).resolve().parent != (SRC / "shellsde").resolve():
        raise ImportError(f"shellsde imported from {shellsde.__file__}, not from {SRC}")
    return shellsde


def setup(workload: str) -> dict:
    """Build what ``workload`` needs before its first operation.

    Returns the loaded model specs by preset expression.  The table is built
    for its cost only: the program builds its own on every call today, and a
    change that moves that work into set-up shows here.
    """
    presets, table = SETUPS[workload]
    import_shellsde()
    from shellsde import chain, modelio, sde

    specs = {p: modelio.load_model(p) for p in presets}
    if table == "coefficients":
        sde.CoefficientTable(specs[presets[0]], ENSEMBLE_SHELLS)
    elif table == "rates":
        # private name; a refactor that removes it only drops this part of set-up
        rate_table = getattr(chain, "_RateTable", None)
        if rate_table is not None:
            rate_table(specs[presets[0]], TRIANGULATE_MAX_LEVEL)
    return specs


if __name__ == "__main__":
    t0 = time.perf_counter()
    setup(sys.argv[1])
    print(repr(time.perf_counter() - t0))
