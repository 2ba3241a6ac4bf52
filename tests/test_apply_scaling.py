"""scripts/apply_scaling.py reads the parts of an operator's window steps
and the solver's segments directly. Its helpers are loaded here without
running its tables, so that a rename of those parts fails a test, not only
the script."""

import runpy
from pathlib import Path

import numpy as np
import pytest

from fracpicard import Grid, SampledFunction, build_integral_operator, integral_node_values

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "apply_scaling.py"


@pytest.fixture(scope="module")
def script():
    return runpy.run_path(str(SCRIPT))  # not run as __main__: main() does not run


@pytest.mark.parametrize("n, held", [(16, 33032), (512, 40968), (513, 49192), (8192, 286792)])
def test_held_bytes(n, held):
    # the bytes held column reads the plan's nbytes: N stencil and N + 1
    # boundary floats, the 64 x 64 block (at N = 16 the stencil padded) and
    # the spectra of the levels 512 .. below N, none up to N = 512
    plan = build_integral_operator(0.5, Grid.uniform(1.0, n)).window()
    arrays = (plan.stencil, plan.boundary, plan.block, *plan.spectra)
    assert plan.block.shape == (64, 64)
    assert plan.nbytes == sum(a.nbytes for a in arrays) == held


@pytest.mark.parametrize("n", [100, 512, 4097])
def test_direct_is_the_apply(script, n):
    grid = Grid.uniform(1.0, n)
    op = build_integral_operator(0.5, grid)
    u = np.random.default_rng(n).normal(size=n + 1)
    ref = integral_node_values(op, SampledFunction(grid, u))
    got = script["direct"](op, u)
    assert got[0] == 0.0
    assert np.max(np.abs(got[1:] - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_far_row_error_reads_row_n_of_the_panels(script):
    # the last row of every panel is row N of the table
    pytest.importorskip("mpmath")
    assert script["far_row_error"](130) < 4e-15


def test_solve_row_counts_the_segments(script):
    # -y on [0, 1] at N = 1024: the first block's window, plain Picard,
    # then segments of 64, 128, 256, 256 and 256 nodes, each solved in one
    # product
    row = script["solve_row"]("-z1", 1.0, 1.0, 1024)
    cells = [cell.strip() for cell in row.strip("|").split("|")]
    assert cells[:3] == ["-z1", "1", "1024"]
    assert cells[4:7] == ["6", "5", "5"]  # windows, exact, segments: none missed
