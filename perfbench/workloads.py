"""The three workloads: inputs made from a seed, and the CLI calls of one pass.

Every input is drawn with ``lofiq.synth`` and written as an LQT1 file before
any timing starts; the program only ever sees those files. One pass is the
fixed list of CLI invocations below, so every run attempts whole passes.
"""

import os

FORMATS = ("int8", "int4", "e4m3", "e5m2", "hif8", "hif8-scaled",
           "mxfp8-e4m3", "mxfp4", "mxint8", "nvfp4", "hif4")

SIGMA = 0.02
OUTLIER_FRACTION = 0.001
OUTLIER_SCALE = 100.0

# compare-weight: (rows, cols). Rows are the strided block axis (axis 0).
WEIGHT_SHAPE = (4096, 1024)
# quantize-activation: ACT_TENSORS tensors of (tokens, features).
ACT_TENSORS = 4
ACT_SHAPE = (256, 4096)
# svdq-int8: X (tokens, d) and W (d, n).
SVDQ_X_SHAPE = (256, 2048)
SVDQ_W_SHAPE = (2048, 2048)
SVDQ_RANK = 16

NAMES = ("compare-weight", "quantize-activation", "svdq-int8")


def spec_seed(seed, index):
    """Seed of the index-th tensor of a workload; distinct for every (seed, index)."""
    return seed * 16 + index


def selectors(workload):
    """Format selectors one workload parses (what setup_s has to build)."""
    return ("int8",) if workload == "svdq-int8" else FORMATS


def paths(workdir):
    j = lambda name: os.path.join(workdir, name)
    return {
        "W": j("W.lqt"), "A": j("A.lqt"), "C": j("C.json"), "X": j("X.lqt"), "Wx": j("Wx.lqt"),
        "R": lambda fmt: j(f"R-{fmt}.lqt"), "Rj": lambda fmt: j(f"R-{fmt}.json"),
    }


def make_inputs(lofiq, workload, seed, workdir):
    """Write the workload's LQT1 inputs into ``workdir``."""
    spec = lofiq.SyntheticSpec
    p = paths(workdir)
    if workload == "compare-weight":
        w = lofiq.synth(spec("gaussian", WEIGHT_SHAPE, sigma=SIGMA, seed=spec_seed(seed, 0)))
        lofiq.save_tensors([w], p["W"])
    elif workload == "quantize-activation":
        acts = [lofiq.synth(spec("gaussian_outlier", ACT_SHAPE, sigma=SIGMA,
                                 outlier_fraction=OUTLIER_FRACTION,
                                 outlier_scale=OUTLIER_SCALE, seed=spec_seed(seed, i)))
                for i in range(ACT_TENSORS)]
        lofiq.save_tensors(acts, p["A"])
    elif workload == "svdq-int8":
        x = lofiq.synth(spec("gaussian_outlier", SVDQ_X_SHAPE, sigma=SIGMA,
                             outlier_fraction=OUTLIER_FRACTION,
                             outlier_scale=OUTLIER_SCALE, seed=spec_seed(seed, 0)))
        w = lofiq.synth(spec("gaussian", SVDQ_W_SHAPE, sigma=SIGMA, seed=spec_seed(seed, 1)))
        lofiq.save_tensors([x], p["X"])
        lofiq.save_tensors([w], p["Wx"])
    else:
        raise ValueError(f"unknown workload {workload!r}")


def ops(workload, workdir):
    """CLI argument lists of one pass, each with the report files it writes."""
    p = paths(workdir)
    if workload == "compare-weight":
        return [(["compare", "--input", p["W"], "--formats", ",".join(FORMATS),
                  "--role", "weight", "-o", p["C"]], [p["C"]])]
    if workload == "quantize-activation":
        return [(["quantize", p["A"], "--format", fmt, "--role", "activation",
                  "-o", p["R"](fmt), "--report", p["Rj"](fmt)], [p["Rj"](fmt)])
                for fmt in FORMATS]
    if workload == "svdq-int8":
        return [(["svdq", "--x", p["X"], "--w", p["Wx"], "--format", "int8",
                  "--rank", str(SVDQ_RANK)], [])]
    raise ValueError(f"unknown workload {workload!r}")
