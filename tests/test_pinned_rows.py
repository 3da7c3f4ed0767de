"""Byte identity of the CSV data rows of a few small commands.

Each file under ``tests/data`` holds the data rows, without the ``#``
manifest, that its command printed when it was pinned.  A refactor must
reproduce them byte for byte, with one worker thread and with the
default thread count.  The commands cover by-gain ordering, fixed
ordering and heterogeneous links, each over three 65536-trial blocks,
and two ``oracle-check`` commands pin the oracle's ``p_oracle`` column
beside the Monte Carlo one: the bare 480-row grid and a fixed-order
cache sweep on heterogeneous links.

The rows depend on numpy's ``Generator`` streams (SFC64, ``random``,
``standard_gamma``) and on the sampler that draws from them; ``p_oracle``
also depends on the oracle's own kernels, the Bessel-K sum and, on the
heterogeneous link with no integer shape, the Mellin-Barnes integral,
which took over from scipy's quadrature there without moving a digit.
All five files were last regenerated for a declared sampler change: a
stage of integer shape m <= 3 drawn by inversion, as -log of the product
of m factors 1 - U, in place of the sum of m ``standard_exponential``
draws; the ``p_oracle`` columns did not move.  A numpy release that
changes one of the streams starts a new output epoch too: the rows change
with no fault here, and the files are regenerated in a change that says
so and changes nothing else.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from canoma.cli import main

DATA = Path(__file__).parent / "data"

COMMANDS = {
    "snr_by_gain": "sweep --sweep snr_db --grid 0,10,20 --schemes canoma,noma,oma-cache,oma "
    "--cache 2 --trials 140000 --seed 7",
    "zeta_fixed": "sweep --sweep zeta --grid 0.4,1.6 --schemes canoma,noma,oma-cache,oma "
    "--ordering fixed --files 20 --cache 3 --trials 140000 --seed 5",
    "cache_hetero": "sweep --sweep cache --grid 0,2,5 --schemes canoma,noma,oma-cache,oma "
    "--ordering fixed --link-spec-1 1.5,1,2.5,1 --link-spec-2 3,2,0.7,1 --trials 140000 --seed 9",
    "oracle_grid": "oracle-check --trials 140000 --seed 4",
    "oracle_cache_hetero": "oracle-check --ordering fixed --link-spec-1 1.5,1,2.5,1 "
    "--link-spec-2 3,2,0.7,1 --sweep cache --grid 0,2,5 --trials 140000 --seed 4",
}


@pytest.mark.parametrize("workers", [["--workers", "1"], []], ids=["serial", "default"])
@pytest.mark.parametrize("name", COMMANDS)
def test_data_rows_are_pinned(name, workers):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(COMMANDS[name].split() + workers) == 0
    rows = "".join(f"{line}\n" for line in out.getvalue().splitlines() if not line.startswith("#"))
    assert rows == (DATA / f"{name}.csv").read_text()
