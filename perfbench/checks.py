"""Output checks that do not depend on a copy of earlier output.

* Report fields are recomputed with this file's own reductions (long-double
  and BLAS-dot sums where lofiq uses numpy's pairwise sums).
* On sampled rows, every element is checked against a brute-force
  nearest-value search over grids decoded here from each format's definition,
  under the scale the codec recorded for its block or group.
* Properties the method must have: the published SQNR orderings, MX never
  clipping, the svdq error chain, byte-identical reruns.

Every check returns a list of failure messages; an empty list is a pass.
"""

import json
import math
import os
import struct

import numpy as np

import lofiq
import workloads

ALPHA_GRID = tuple(i / 10 for i in range(1, 10))
REL_TOL = 1e-9  # mean/Frobenius reductions in another order than lofiq's
SQNR_TOL_DB = 5e-5  # the report rounds dB to 4 decimals
PIPELINE_REL_TOL = 1e-6  # svdq errors recomputed here through a second code path
CHUNK = 4096
SAMPLE_LINES = {"compare-weight": 16, "quantize-activation": 8}  # columns / rows per tensor


# -- grids decoded from the format definitions ---------------------------------

def minifloat_grid(exp_bits, man_bits, bias, has_inf, nan_top):
    """Finite values of a signed ExMy format and the mantissa LSB of each, by codepoint."""
    vals = {}
    for word in range(1 << (1 + exp_bits + man_bits)):
        sign = -1.0 if word >> (exp_bits + man_bits) else 1.0
        exp = (word >> man_bits) & ((1 << exp_bits) - 1)
        man = word & ((1 << man_bits) - 1)
        top = exp == (1 << exp_bits) - 1
        if (has_inf and top) or (nan_top and top and man == (1 << man_bits) - 1):
            continue
        if exp == 0:
            mag = man * 2.0 ** (1 - bias - man_bits)
        else:
            mag = (1 + man / (1 << man_bits)) * 2.0 ** (exp - bias)
        vals[sign * mag + 0.0] = man & 1
    grid = np.array(sorted(vals))
    return grid, np.array([vals[v] for v in grid])


def hif8_grid():
    """Nonzero HiF8 values: mantissa width 3/2/1 for |e| <= 3/7/15, powers of two
    2**-22 .. 2**-16 below, saturating at 2**15."""
    pos = [2.0 ** e for e in range(-22, -15)]
    for e in range(-15, 16):
        nm = 3 if abs(e) <= 3 else 2 if abs(e) <= 7 else 1
        pos += [(2 ** nm + m) * 2.0 ** (e - nm) for m in range(2 ** nm)]
    pos = np.array(sorted(v for v in set(pos) if v <= 2.0 ** 15))
    return np.concatenate([-pos[::-1], pos])


E4M3 = minifloat_grid(4, 3, 7, has_inf=False, nan_top=True)
E5M2 = minifloat_grid(5, 2, 15, has_inf=True, nan_top=False)
E2M1 = minifloat_grid(2, 1, 1, has_inf=False, nan_top=False)
MXINT8 = (np.arange(-127, 128) / 64.0, np.arange(-127, 128) & 1)
HIF8 = hif8_grid()
HIF4_ELEMENTS = np.arange(8) / 4.0
MX_ELEMENT = {"mxfp8-e4m3": ("e4m3", E4M3), "mxfp4": ("e2m1", E2M1), "mxint8": ("int8", MXINT8)}


def nearest(y, grid, tie, lsb=None, lo=None, hi=None):
    """Brute-force nearest grid value of each y.

    tie="even" takes the neighbour whose mantissa LSB is 0, tie="away" the
    one of larger magnitude. lo/hi (broadcast against y) restrict the grid
    element-wise. Searched in chunks so memory stays small.
    """
    y = np.asarray(y, dtype=np.float64)
    flat = y.reshape(-1)
    lo = None if lo is None else np.broadcast_to(lo, y.shape).reshape(-1)
    hi = None if hi is None else np.broadcast_to(hi, y.shape).reshape(-1)
    rank = lsb if tie == "even" else np.abs(grid)
    out = np.empty_like(flat)
    for s in range(0, flat.size, CHUNK):
        d = np.abs(flat[s:s + CHUNK, None] - grid[None, :])
        if lo is not None:
            d[(grid[None, :] < lo[s:s + CHUNK, None]) | (grid[None, :] > hi[s:s + CHUNK, None])] = np.inf
        best = d == d.min(axis=1, keepdims=True)
        # among equally near values: even LSB first (rank 0), or largest magnitude
        key = np.where(best, -rank[None, :] if tie == "even" else rank[None, :], -np.inf)
        out[s:s + CHUNK] = grid[np.argmax(key, axis=1)]
    return out.reshape(y.shape)


# -- quantization through lofiq's public functions -----------------------------

def quantize_public(fmt, role, arr, group_axis, block_axis):
    """(record, reconstruction) of ``arr`` via lofiq's public quantize/dequantize."""
    if fmt in ("int8", "int4"):
        fn = lofiq.int_quantize_symmetric if role == "weight" else lofiq.int_quantize_asymmetric
        rec = fn(arr, group_axis, int(fmt[3]))
        return rec, lofiq.int_dequantize(rec).data
    if fmt in ("e4m3", "e5m2"):
        return None, lofiq.project(lofiq.enumerate_codebook(fmt), arr)
    if fmt == "hif8":
        return None, lofiq.hif8_quantize(arr).data
    if fmt == "hif8-scaled":
        rec = lofiq.hif8_scaled_quantize(arr, group_axis, 16.0 if role == "weight" else 4.0)
        return rec, lofiq.hif8_scaled_dequantize(rec).data
    if fmt in MX_ELEMENT:
        rec = lofiq.mx_quantize(arr, block_axis, MX_ELEMENT[fmt][0], 32)
        return rec, lofiq.mx_dequantize(rec).data
    if fmt == "nvfp4":
        rec = lofiq.nvfp4_quantize(arr, block_axis)
        return rec, lofiq.nvfp4_dequantize(rec).data
    if fmt == "hif4":
        rec = lofiq.hif4_quantize(arr, block_axis)
        return rec, lofiq.hif4_dequantize(rec).data
    raise ValueError(fmt)


def oracle_view(fmt, role, S):
    """How the codec must have treated sample S (rows = groups, blocks along axis 1).

    Returns the public reconstruction of S and a dict with y (input in the
    grid's domain under the recorded scale), the grid and its tie rule, the
    recorded grid value per element (code) and to_out, mapping grid values
    back to outputs the way the format defines dequantization.
    """
    rec, deq = quantize_public(fmt, role, S, 0, 1)
    v = {"y": S, "tie": "even", "lsb": None, "lo": None, "hi": None, "extra": []}
    if fmt in ("int8", "int4"):
        qmax = 2 ** (int(fmt[3]) - 1) - 1
        scale = rec.scales[:, None]
        v.update(y=S / scale, grid=np.arange(-(2 * qmax + 1), 2 * qmax + 2, dtype=np.float64),
                 tie="away", to_out=lambda g: g * scale)
        if rec.mode == "symmetric":
            v.update(code=rec.codes.astype(np.float64), lo=-qmax, hi=qmax)
        else:
            zp = rec.zero_points[:, None]
            v.update(code=rec.codes.astype(np.float64) - zp, lo=-zp, hi=2 * qmax + 1 - zp)
    elif fmt in ("e4m3", "e5m2"):
        grid, lsb = E4M3 if fmt == "e4m3" else E5M2
        v.update(grid=grid, lsb=lsb, code=deq, to_out=lambda g: g)
    elif fmt == "hif8":
        v.update(grid=HIF8, tie="away", code=deq, to_out=lambda g: g)
    elif fmt == "hif8-scaled":
        scale = rec.scales[:, None]
        v.update(y=S * scale, grid=HIF8, tie="away", code=rec.values, to_out=lambda g: g / scale)
    elif fmt in MX_ELEMENT:
        grid, lsb = MX_ELEMENT[fmt][1]
        n, L = S.shape
        e = rec.shared_exponents.reshape(n, L // 32, 1)
        blocks = S.reshape(n, L // 32, 32)
        v.update(y=(blocks / np.ldexp(1.0, e)).reshape(n, L), grid=grid, lsb=lsb, code=rec.codes,
                 to_out=lambda g: np.ldexp(g.reshape(n, L // 32, 32), e).reshape(n, L))
        # never clips: max|x| <= q_max * 2**e, and e is the smallest such exponent
        amax = np.max(np.abs(blocks), axis=2)
        q_max = grid[-1]
        live = (amax > 0) & (e[..., 0] > -127) & (e[..., 0] < 127)
        if np.any(amax > np.ldexp(q_max, e[..., 0])):
            v["extra"].append(f"{fmt}: a block clips (max|x| > q_max * 2**e)")
        if np.any(live & (amax <= np.ldexp(q_max, e[..., 0] - 1))):
            v["extra"].append(f"{fmt}: a block exponent is larger than the no-clip minimum")
    elif fmt == "nvfp4":
        n, L = S.shape
        s1 = rec.block_scales.reshape(n, L // 16, 1)
        s2 = rec.per_tensor_scale
        blocks = S.reshape(n, L // 16, 16)
        y = np.divide(blocks / s2, s1, out=np.zeros_like(blocks), where=s1 > 0)
        v.update(y=y.reshape(n, L), grid=E2M1[0], lsb=E2M1[1], code=rec.codes,
                 to_out=lambda g: (g.reshape(n, L // 16, 16) * s1 * s2).reshape(n, L))
        bmax = np.max(np.abs(blocks / s2), axis=2)
        want = np.maximum(nearest(bmax / 6.0, E4M3[0], "even", E4M3[1]), 2.0 ** -9)
        if not np.array_equal(np.where(bmax > 0, want, 0.0), s1[..., 0]):
            v["extra"].append("nvfp4: a block scale is not the E4M3 value nearest max|x~|/6")
        if float(np.max(np.abs(S))) / s2 > 6.0 * 448.0:
            v["extra"].append("nvfp4: the per-tensor scale lets the tensor clip")
    elif fmt == "hif4":
        n, L = S.shape
        X = S.reshape(-1, 8, 2, 4)
        exp = rec.e1[:, None, None, None] + rec.e2[:, :, None, None] + rec.e3[:, :, :, None]
        denom = np.ldexp(rec.m1[:, None, None, None].astype(np.float64), exp - 2)
        sign = rec.signs.astype(np.float64)
        m1 = rec.m1[:, None, None, None]
        v.update(y=np.minimum(np.abs(X) / denom, 1.75).reshape(n, L), grid=HIF4_ELEMENTS,
                 tie="away", code=(rec.xhat / 4.0).reshape(n, L),
                 to_out=lambda g: (np.ldexp((m1 * np.rint(4 * g.reshape(X.shape)).astype(np.int64))
                                            .astype(np.float64), exp - 4) * sign).reshape(n, L))
        if np.any(sign != np.where(X < 0, -1.0, 1.0)):
            v["extra"].append("hif4: a recorded sign differs from the input's")
    else:
        raise ValueError(fmt)
    return deq, v


def check_sample(fmt, role, S, O):
    """Check program output O on sample S element by element."""
    deq, v = oracle_view(fmt, role, S)
    fails = list(v["extra"])
    if not np.array_equal(O, deq):
        fails.append(f"{fmt}: output differs from the public dequantization "
                     f"in {int(np.sum(O != deq))} sampled elements")
    want = nearest(v["y"], v["grid"], v["tie"], v["lsb"], v["lo"], v["hi"])
    if fmt in ("hif8", "hif8-scaled"):  # zero stays zero; any other input keeps its sign
        want = np.where(v["y"] == 0, 0.0, want)
    if not np.array_equal(want, v["code"]):
        fails.append(f"{fmt}: {int(np.sum(want != v['code']))} sampled elements are not "
                     f"the nearest grid value under their recorded scale")
    if not np.array_equal(v["to_out"](v["code"]), O):
        fails.append(f"{fmt}: output is not the recorded grid value times its scale")
    return fails


# -- fidelity reports -----------------------------------------------------------

def fidelity(x, recon):
    d = (recon - x).reshape(-1)
    xf = x.reshape(-1)
    noise = float(np.dot(d, d))
    signal = float(np.dot(xf, xf))
    ad = np.abs(d)
    return {"sqnr_db": 10.0 * math.log10(signal / noise),
            "max_abs_err": float(ad.max()),
            "mean_abs_err": float(np.sum(ad, dtype=np.longdouble) / ad.size),
            "rel_fro_err": math.sqrt(noise) / math.sqrt(signal)}


def check_report_row(row, x, recon, expect):
    """One report row against recomputed fidelity and the expected labels."""
    fails = []
    label = f"{expect['format']} on {expect['tensor']}"
    if set(row) != {"tensor", "format", "granularity", "sqnr_db", "max_abs_err",
                    "mean_abs_err", "rel_fro_err", "config"}:
        return [f"{label}: report fields are {sorted(row)}"]
    for key in ("tensor", "format", "granularity", "config"):
        if row[key] != expect[key]:
            fails.append(f"{label}: {key} is {row[key]!r}, expected {expect[key]!r}")
    got = fidelity(x, recon)
    if not isinstance(row["sqnr_db"], float) or \
            abs(row["sqnr_db"] - got["sqnr_db"]) > SQNR_TOL_DB + REL_TOL * abs(got["sqnr_db"]):
        fails.append(f"{label}: sqnr_db {row['sqnr_db']} vs recomputed {got['sqnr_db']:.6f}")
    if row["max_abs_err"] != got["max_abs_err"]:
        fails.append(f"{label}: max_abs_err {row['max_abs_err']!r} vs {got['max_abs_err']!r}")
    for key in ("mean_abs_err", "rel_fro_err"):
        if not math.isclose(row[key], got[key], rel_tol=REL_TOL, abs_tol=0.0):
            fails.append(f"{label}: {key} {row[key]!r} vs recomputed {got[key]!r}")
    return fails


def expect_row(fmt, role, tensor):
    """Report labels the documented role conventions give a 2-D tensor."""
    group, block = (1, 0) if role == "weight" else (0, 1)
    if fmt in ("int8", "int4"):
        mode = "sym" if role == "weight" else "asym"
        kind = "per-channel" if role == "weight" else "per-token"
        labels = fmt, f"{kind}(axis={group},{mode})", f"bits={fmt[3]};mode={mode}"
    elif fmt in ("e4m3", "e5m2", "hif8"):
        labels = fmt, "elementwise", ""
    elif fmt == "hif8-scaled":
        K = 16 if role == "weight" else 4
        labels = fmt, f"per-axis(K={K},axis={group})", f"K={float(K)}"
    elif fmt in MX_ELEMENT:
        el = MX_ELEMENT[fmt][0]
        labels = f"mx:{el}", f"block(k=32,axis={block})", f"element={el};k=32"
    elif fmt == "nvfp4":
        labels = fmt, f"per-tensor+block(k=16,axis={block})", "k=16"
    elif fmt == "hif4":
        labels = fmt, f"hier(64/8/4,axis={block})", "mode=literal"
    else:
        raise ValueError(fmt)
    return dict(zip(("format", "granularity", "config"), labels), tensor=tensor)


# -- properties of the method ----------------------------------------------------

# SQNR chains the paper reports for Gaussian weights, strongest first.
ORDERINGS = (("int8", "hif8-scaled", "e4m3", "hif8"), ("hif4", "nvfp4", "mxfp4", "int4"))


def check_orderings(sqnr_by_fmt):
    fails = []
    for chain in ORDERINGS:
        vals = [sqnr_by_fmt[f] for f in chain]
        if not all(a > b for a, b in zip(vals, vals[1:])):
            fails.append("SQNR ordering " + " > ".join(chain) + f" fails: {vals}")
    return fails


def check_determinism(digests):
    if any(d != digests[0] for d in digests):
        return [f"report bytes differ between passes ({len(set(digests))} distinct)"]
    return []


def round_half_away(v):
    return np.sign(v) * np.floor(np.abs(v) + 0.5)


def int8_weight(w):
    """Per-output-channel symmetric INT8 of W (channels are columns)."""
    amax = np.max(np.abs(w), axis=0)
    scale = np.where(amax > 0, amax / 127, 1.0)
    return np.clip(round_half_away(w / scale), -127, 127) * scale


def int8_activation(x):
    """Per-token asymmetric INT8 of X (tokens are rows) with a zero-point."""
    lo, hi = x.min(axis=1, keepdims=True), x.max(axis=1, keepdims=True)
    scale = np.where(hi > lo, (hi - lo) / 255, 1.0)
    zp = np.clip(round_half_away(-lo / scale), 0, 255)
    return (np.clip(round_half_away(x / scale) + zp, 0, 255) - zp) * scale


def _smoothed(x, w, alpha):
    xm = np.maximum(np.max(np.abs(x), axis=0), 1e-8)
    wm = np.maximum(np.max(np.abs(w), axis=1), 1e-8)
    s = np.clip(xm ** alpha / wm ** (1.0 - alpha), 1e-5, 1e5)
    return x / s, s[:, None] * w


def check_svdq(report, x, w, rank):
    """svdq report against int8 errors recomputed here, and the method's error chain."""
    fails = []
    keys = {"format", "alpha", "rank", "rtn_rel_err", "smooth_rel_err", "svdq_rel_err"}
    if set(report) != keys:
        return [f"svdq report fields are {sorted(report)}"]
    if report["format"] != "int8" or report["rank"] != rank:
        fails.append(f"svdq report names format {report['format']!r}, rank {report['rank']!r}")
    alpha = report["alpha"]
    if alpha not in ALPHA_GRID:
        return fails + [f"alpha {alpha!r} is not in the grid {ALPHA_GRID}"]
    if not report["svdq_rel_err"] <= report["smooth_rel_err"] <= report["rtn_rel_err"]:
        fails.append("svdq_rel_err <= smooth_rel_err <= rtn_rel_err fails: "
                     f"{report['svdq_rel_err']}, {report['smooth_rel_err']}, {report['rtn_rel_err']}")

    ref = (x @ w).reshape(-1)
    ref_norm = math.sqrt(float(np.dot(ref, ref)))

    def rel(m):
        d = m.reshape(-1) - ref
        return math.sqrt(float(np.dot(d, d))) / ref_norm

    def agree(key, want):
        if not math.isclose(report[key], want, rel_tol=PIPELINE_REL_TOL, abs_tol=0.0):
            fails.append(f"{key} {report[key]!r} vs recomputed {want!r}")

    agree("rtn_rel_err", rel(int8_activation(x) @ int8_weight(w)))
    smooth = {}
    for a in ALPHA_GRID:
        xs, ws = _smoothed(x, w, a)
        smooth[a] = rel(int8_activation(xs) @ int8_weight(ws))
    agree("smooth_rel_err", smooth[alpha])
    if smooth[alpha] > min(smooth.values()) * (1 + PIPELINE_REL_TOL):
        fails.append(f"alpha {alpha} does not minimise the smoothed error: {smooth}")
    xs, ws = _smoothed(x, w, alpha)
    u, sv, vh = np.linalg.svd(ws, full_matrices=False)
    low = (u[:, :rank] * sv[:rank]) @ vh[:rank]
    agree("svdq_rel_err", rel(xs @ low + int8_activation(xs) @ int8_weight(ws - low)))
    return fails


# -- one workload's outputs ---------------------------------------------------------

def sample_lines(seed, n, must, count):
    """Sorted distinct line indices: ``count`` drawn from the seed plus ``must``."""
    rng = np.random.default_rng([seed, 0x5EED])
    return np.unique(np.append(rng.choice(n, size=min(count, n), replace=False), must))


def check_outputs(workload, seed, workdir, digests):
    """Every check on what the workload's last pass left in ``workdir``."""
    p = workloads.paths(workdir)
    fails = check_determinism(digests)
    if workload == "compare-weight":
        ((name, w),) = read_lqt(p["W"])
        with open(p["C"], encoding="utf-8") as fh:
            rows = json.load(fh)
        if len(rows) != len(workloads.FORMATS):
            return fails + [f"compare report has {len(rows)} rows"]
        cols = sample_lines(seed, w.shape[1], np.argmax(np.max(np.abs(w), axis=0)),
                            SAMPLE_LINES[workload])
        sample = np.ascontiguousarray(w[:, cols].T)
        sqnr = {}
        for fmt, row in zip(workloads.FORMATS, rows):
            _, recon = quantize_public(fmt, "weight", w, 1, 0)
            fails += check_report_row(row, w, recon, expect_row(fmt, "weight", name))
            fails += check_sample(fmt, "weight", sample, np.ascontiguousarray(recon[:, cols].T))
            sqnr[fmt] = row["sqnr_db"]
        return fails + check_orderings(sqnr)
    if workload == "quantize-activation":
        acts = read_lqt(p["A"])
        for fmt in workloads.FORMATS:
            outs = read_lqt(p["R"](fmt))
            with open(p["Rj"](fmt), encoding="utf-8") as fh:
                rows = json.load(fh)
            if [n for n, _ in outs] != [n for n, _ in acts] or len(rows) != len(acts) or \
                    any(o.shape != a.shape for (_, o), (_, a) in zip(outs, acts)):
                fails.append(f"{fmt}: output tensors or report rows do not match the input")
                continue
            for (name, x), (_, out), row in zip(acts, outs, rows):
                fails += check_report_row(row, x, out, expect_row(fmt, "activation", name))
                idx = sample_lines(seed, x.shape[0], np.argmax(np.max(np.abs(x), axis=1)),
                                   SAMPLE_LINES[workload])
                fails += check_sample(fmt, "activation", x[idx], out[idx])
        return fails
    ((_, x),), ((_, w),) = read_lqt(p["X"]), read_lqt(p["Wx"])
    with open(os.path.join(workdir, "op0.out"), encoding="utf-8") as fh:
        report = json.loads(fh.read())
    return fails + check_svdq(report, x, w, workloads.SVDQ_RANK)


# -- LQT1 files, read without lofiq ----------------------------------------------

def read_lqt(path):
    """[(name, array)] from an LQT1 file: magic, u32 version, u64 header length, JSON, payload."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"LQT1" or struct.unpack_from("<I", blob, 4)[0] != 1:
        raise ValueError(f"{path}: not an LQT1 v1 file")
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16:16 + hlen])
    out = []
    for e in header["tensors"]:
        dtype = {"f64": "<f8", "f32": "<f4"}[e["dtype"]]
        count = math.prod(e["shape"])
        arr = np.frombuffer(blob, dtype=dtype, count=count, offset=16 + hlen + e["offset"])
        out.append((e["name"], arr.reshape(e["shape"]).astype(np.float64)))
    return out
