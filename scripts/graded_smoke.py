#!/usr/bin/env python3
"""Run every shipped config in solve and verify mode at grading 2.

    python scripts/graded_smoke.py OUT_DIR

Neither scripts/run_benchmarks.py nor the benchmark uses a graded grid.
For each JSON file in configs/ this runs, at grading 2, a solve, a verify
and a verify at N = 1000 = 15 * 64 + 40, whose tables' last panel is cut
short, and writes OUT_DIR/<config>_<run>.csv (a solve its convergence CSV
too). Exits with the last nonzero exit status of a run, else 0.
"""

import argparse
import sys
from pathlib import Path

from fracpicard.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent


def flags(name: str, run: str) -> list:
    """The flags of one run beyond config, mode, grading and output."""
    out = []
    if run == "verify_1000":
        out = ["--n-points", "1000"]
    elif run == "verify" and name == "singular_forcing":
        out = ["--n-points", "512"]
    # finite differences of t^0.2 converge slowly near the origin, so the
    # differential-form residual needs more room on the singular benchmark
    if run != "solve" and name == "singular_forcing":
        out += ["--ode-tol", "5e-2"]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir", help="where to put the CSVs")
    out = Path(ap.parse_args().out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rc = 0
    for cfg in sorted((ROOT / "configs").glob("*.json")):
        for run in ("solve", "verify", "verify_1000"):
            rc = cli_main(["--config", str(cfg), "--mode", run.removesuffix("_1000"),
                           "--grading", "2", *flags(cfg.stem, run),
                           "--output", str(out / f"{cfg.stem}_{run}.csv")]) or rc
    return rc


if __name__ == "__main__":
    sys.exit(main())
