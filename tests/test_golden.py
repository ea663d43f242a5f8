"""Every output of a fixed CLI sweep is byte-identical to a committed table of SHA-256 digests.

The sweep runs these calls in each role (weight, activation, kv), 72 in all:

* ``compare`` over the 11 benchmark formats on ``main.lqt``, once with a JSON
  report and once with a CSV one;
* ``quantize`` of ``main.lqt`` per format, with an f64 output and a JSON report;
* ``quantize --pad`` of ``odd.lqt`` per format, with an f32 output and a CSV report.

``main.lqt`` holds seeded ``synth`` tensors whose block axes divide by 64,
one of them with exact ties, zeros of both signs and subnormals written in.
``odd.lqt`` holds one 70x45 tensor, which no block size divides on either
axis. The table holds the digest of each call's exit code, stdout, stderr and
output files. The sweep runs at the default ``tensor.CHUNK`` and at
``CHUNK = 16``, and both must give the table.

``smooth`` and ``svdq`` are left out: the last bits of their reports depend on
the BLAS thread count (README "Threads").

The table, ``golden_digests.json``, pins the outputs as they are. A change
that alters outputs on purpose regenerates it with
``PYTHONPATH=src python tests/test_golden.py`` and says in CHANGES.md which
outputs changed and why.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from unittest import mock

import pytest

from lofiq.cli import main
from lofiq.metrics import SyntheticSpec, synth
from lofiq.tensor import Tensor, save_tensors

CHUNKS = sys.modules["lofiq.tensor"]  # the name lofiq.tensor is the function
TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")

# the formats of perfbench/workloads.py
FORMATS = ("int8", "int4", "e4m3", "e5m2", "hif8", "hif8-scaled",
           "mxfp8-e4m3", "mxfp4", "mxint8", "nvfp4", "hif4")
ROLES = ("weight", "activation", "kv")


def _inputs():
    """main.lqt and odd.lqt in the current directory."""
    w = synth(SyntheticSpec("gaussian_outlier", (128, 64), sigma=0.02, outlier_fraction=0.01,
                            outlier_scale=100.0, seed=1))
    x = synth(SyntheticSpec("gaussian", (64, 128), sigma=1.0, seed=2)).data.copy()
    flat = x.reshape(-1)
    specials = [0.0, -0.0, 0.75, -0.625, 2.5, 448.0, 6.0, 2688.0, 2.0**-30, -(2.0**15),
                3e5, 5e-324, -1e-310]
    flat[: 5 * len(specials): 5] = specials
    flat[640:704] = 0.0  # an all-zero block along either axis's 64
    save_tensors([w, Tensor(x, "x")], "main.lqt")
    save_tensors([synth(SyntheticSpec("uniform", (70, 45), seed=3))], "odd.lqt")


def _calls():
    """(label, argv, output files) of every call of the sweep, in order."""
    calls = []
    for role in ROLES:
        for fmt in ("json", "csv"):
            calls.append((f"{role}/compare/{fmt}",
                          ["compare", "--input", "main.lqt", "--formats", ",".join(FORMATS),
                           "--role", role, "-o", f"report.{fmt}", "--report-format", fmt],
                          [f"report.{fmt}"]))
        for sel in FORMATS:
            calls.append((f"{role}/quantize/{sel}",
                          ["quantize", "main.lqt", "-f", sel, "--role", role, "-o", "out.lqt",
                           "--report", "report.json"],
                          ["out.lqt", "report.json"]))
            calls.append((f"{role}/quantize-pad/{sel}",
                          ["quantize", "odd.lqt", "-f", sel, "--role", role, "--pad",
                           "-o", "odd-out.lqt", "--dtype", "f32", "--report", "report.csv",
                           "--report-format", "csv"],
                          ["odd-out.lqt", "report.csv"]))
    return calls


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def sweep(workdir):
    """{label: {what: digest}} of every call of the sweep, run in ``workdir``."""
    table = {}
    home = os.getcwd()
    os.chdir(workdir)  # relative paths, so no path of this run reaches an output
    try:
        _inputs()
        for label, argv, files in _calls():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            row = {"exit": code, "stdout": _sha(out.getvalue().encode()),
                   "stderr": _sha(err.getvalue().encode())}
            for name in files:
                with open(name, "rb") as fh:
                    row[name] = _sha(fh.read())
                os.remove(name)  # a call that writes nothing cannot pass on a stale file
            table[label] = row
    finally:
        os.chdir(home)
    return table


@pytest.mark.parametrize("chunk", [None, 16])
def test_sweep_matches_the_table(tmp_path, chunk):
    with open(TABLE) as fh:
        want = json.load(fh)
    with mock.patch.object(CHUNKS, "CHUNK", chunk or CHUNKS.CHUNK):
        got = sweep(tmp_path)
    assert list(got) == list(want)
    changed = [label for label in want if got[label] != want[label]]
    assert not changed, f"{len(changed)} of {len(want)} calls changed: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = sweep(tmp)
    with open(TABLE, "w") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(digests)} rows to {TABLE}")
