"""The ``compare`` reports of parameterised selectors are byte-identical to a committed table.

``test_golden.py`` pins the 11 benchmark selectors, which all take their
defaults. This sweep runs one ``compare`` call with a JSON report in each role
(weight, activation, kv) over ``SELECTORS``, which set every parameter the
grammar takes: an int mode flag, ``axis=``, ``k=`` for mx, ``K=`` and its
``k=`` spelling for hif8-scaled, and the HiF4 ``mode=``. The reports carry
each codec's canonical selector, granularity and config, so the table pins
how each parameter is read and written back. The input is ``test_golden``'s
``main.lqt``, and the sweep runs at the default ``tensor.CHUNK`` and at
``CHUNK = 16``.

The table, ``golden_selector_digests.json``, is regenerated with
``PYTHONPATH=src python tests/test_golden_selectors.py``; a change that does
so says in CHANGES.md which outputs changed and why.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from unittest import mock

import pytest

from lofiq.cli import main
from test_golden import ROLES, _inputs, _sha

CHUNKS = sys.modules["lofiq.tensor"]  # the name lofiq.tensor is the function
TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_selector_digests.json")

SELECTORS = ("int8:asym:axis=0", "int4:sym", "mx:e2m1:k=16", "hif8-scaled:K=3",
             "hif8-scaled:k=2:axis=0", "hif4:mode=halfrange", "nvfp4:axis=1")


def sweep(workdir):
    """{role: {what: digest}} of the compare call in each role, run in ``workdir``."""
    table = {}
    home = os.getcwd()
    os.chdir(workdir)  # relative paths, so no path of this run reaches an output
    try:
        _inputs()
        for role in ROLES:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["compare", "--input", "main.lqt", "--formats", ",".join(SELECTORS),
                             "--role", role, "-o", "report.json"])
            row = {"exit": code, "stdout": _sha(out.getvalue().encode()),
                   "stderr": _sha(err.getvalue().encode())}
            with open("report.json", "rb") as fh:
                row["report.json"] = _sha(fh.read())
            os.remove("report.json")
            table[role] = row
    finally:
        os.chdir(home)
    return table


@pytest.mark.parametrize("chunk", [None, 16])
def test_sweep_matches_the_table(tmp_path, chunk):
    with open(TABLE) as fh:
        want = json.load(fh)
    with mock.patch.object(CHUNKS, "CHUNK", chunk or CHUNKS.CHUNK):
        got = sweep(tmp_path)
    assert got == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = sweep(tmp)
    with open(TABLE, "w") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(digests)} rows to {TABLE}")
