"""Command-line frontend: enumerate, quantize, compare, smooth, svdq.

Exit codes: 0 success, 1 runtime/data error, 2 usage error (including an
unknown format selector). Runs with identical flags and seeds produce
byte-identical output files.
"""

import argparse
import json
import sys

from . import ptq
from .codebook import builtin_names, builtin_spec, density_in_interval, enumerate_codebook
from .errors import LofiqError, UnknownFormat
from .hif8 import hif8_enumerate
from .metrics import (
    SyntheticSpec,
    compare_formats,
    emit_report,
    fidelity_from_reconstruction,
    report_rows,
    synth,
)
from .mx import mxint8_codebook
from .registry import ROLES, parse_format
from .tensor import Tensor, load_tensors, save_tensors


def _enumerable(name):
    key = name.strip().lower()
    if key == "hif8":
        return hif8_enumerate()
    if key == "int8":
        return mxint8_codebook()
    try:
        return enumerate_codebook(builtin_spec(key))
    except UnknownFormat:
        known = ", ".join(builtin_names() + ["hif8", "int8"])
        raise UnknownFormat(f"unknown format {name!r}; known: {known}") from None


def _fmt_value(v):
    return repr(float(v))


def cmd_enumerate(args):
    cb = _enumerable(args.format)
    out = sys.stdout if args.output is None else open(args.output, "w", encoding="utf-8")
    try:
        values = cb.values
        print(f"format: {args.format.strip().lower()}", file=out)
        print(f"count: {len(values)}", file=out)
        positives = values[values > 0]
        print(f"max_finite: {_fmt_value(values[-1])}", file=out)
        if positives.size:
            print(f"min_positive: {_fmt_value(positives[0])}", file=out)
        if args.interval is not None:
            lo, hi = args.interval
            n = density_in_interval(cb, lo, hi)
            print(f"interval: [{_fmt_value(lo)}, {_fmt_value(hi)}]", file=out)
            print(f"count_in_interval: {n}", file=out)
            values = values[(values >= lo) & (values <= hi)]
        print("values:", file=out)
        for v in values:
            print(_fmt_value(v), file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_quantize(args):
    codec = parse_format(args.format)
    tensors = load_tensors(args.input)
    outputs, reports = [], []
    for t in tensors:
        try:
            recon = codec.reconstruct(t, args.role, pad=args.pad)
        except LofiqError as exc:
            if exc.tensor is not None:  # the message names the tensor already
                raise
            raise LofiqError(f"tensor {t.name!r}: {exc}") from exc
        outputs.append(Tensor.of_checked(recon, t.name))
        reports.append(fidelity_from_reconstruction(t, outputs[-1], codec, args.role))
    save_tensors(outputs, args.output, dtype=args.dtype)
    if args.report:
        emit_report(reports, args.report_format, args.report)
    for r in report_rows(reports):
        print(f"{r['tensor']}: {r['format']} sqnr_db={r['sqnr_db']}")
    return 0


def parse_synth(spec_str, seed):
    """kind:AxB[:sigma[:fraction:scale]] -> SyntheticSpec."""
    parts = spec_str.split(":")
    if len(parts) < 2:
        raise ValueError(f"bad synth spec {spec_str!r}")
    kind = parts[0]
    shape = tuple(int(s) for s in parts[1].lower().split("x"))
    sigma = float(parts[2]) if len(parts) > 2 else 1.0
    fraction = float(parts[3]) if len(parts) > 3 else 0.0
    scale = float(parts[4]) if len(parts) > 4 else 1.0
    if kind == "gaussian_outlier" and len(parts) <= 3:
        raise ValueError(f"{spec_str!r}: gaussian_outlier needs kind:shape:sigma:fraction:scale")
    return SyntheticSpec(kind, shape, sigma=sigma, outlier_fraction=fraction,
                         outlier_scale=scale, seed=seed)


def cmd_compare(args):
    formats = [f for f in (s.strip() for s in args.formats.split(",")) if f]
    if not formats:
        raise UnknownFormat("at least one format selector is required")
    codecs = [parse_format(f) for f in formats]
    if args.synth:
        try:
            tensors = [synth(parse_synth(args.synth, args.seed))]
        except ValueError as exc:
            raise LofiqError(str(exc)) from exc
    else:
        tensors = load_tensors(args.input)
    reports = []
    for t in tensors:
        reports.extend(compare_formats(t, codecs, args.role))
    emit_report(reports, args.report_format, args.output)
    for r in report_rows(reports):
        print(f"{r['tensor']}: {r['format']} [{r['granularity']}] sqnr_db={r['sqnr_db']}")
    return 0


def _first_tensor(path):
    tensors = load_tensors(path)
    if not tensors:
        raise LofiqError(f"{path}: file contains no tensors")
    return tensors[0]


def _write_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def cmd_smooth(args):
    x = _first_tensor(args.x)
    w = _first_tensor(args.w)
    report = ptq.smoothquant_pipeline(x, w, args.format, alpha=args.alpha)
    payload = report.to_dict()
    if args.output:
        _write_json(payload, args.output)
    print(json.dumps(payload))
    return 0


def cmd_svdq(args):
    x = _first_tensor(args.x)
    w = _first_tensor(args.w)
    report = ptq.svdquant_pipeline(x, w, args.format, rank=args.rank, alpha=args.alpha)
    payload = report.to_dict()
    if args.output:
        _write_json(payload, args.output)
    print(json.dumps(payload))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lofiq",
        description="Low-bit quantization formats, PTQ transforms, and SQNR analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all representable values of a format")
    p.add_argument("format", help=f"one of {', '.join(builtin_names())}, hif8, int8")
    p.add_argument("--interval", nargs=2, type=float, metavar=("LO", "HI"),
                   help="also count/list values inside [LO, HI]")
    p.add_argument("--output", "-o", help="write listing to a file instead of stdout")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("quantize", help="quantize-dequantize tensors from an LQT1 file")
    p.add_argument("input", help="input .lqt file")
    p.add_argument("--format", "-f", required=True, help="format selector, e.g. mx:e2m1:k=32")
    p.add_argument("--role", choices=ROLES, default="weight",
                   help="granularity conventions to apply (default: weight)")
    p.add_argument("--pad", action="store_true",
                   help="zero-pad a non-divisible block axis; padded elements are "
                        "dropped from the output and from all statistics")
    p.add_argument("--output", "-o", required=True, help="output .lqt file")
    p.add_argument("--dtype", choices=("f32", "f64"), default="f64")
    p.add_argument("--report", help="also write a fidelity report here")
    p.add_argument("--report-format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("compare", help="compare formats on one tensor set")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="input .lqt file")
    src.add_argument("--synth", help="synthetic spec kind:AxB[:sigma[:fraction:scale]], "
                                     "e.g. gaussian:512x512:0.02")
    p.add_argument("--formats", required=True, help="comma-separated format selectors")
    p.add_argument("--role", choices=ROLES, default="weight")
    p.add_argument("--seed", type=int, default=0, help="seed for --synth (default 0)")
    p.add_argument("--output", "-o", required=True, help="report file")
    p.add_argument("--report-format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("smooth", help="difficulty-migration report for an (X, W) pair")
    p.add_argument("--x", required=True, help="activation .lqt file (first tensor used)")
    p.add_argument("--w", required=True, help="weight .lqt file (first tensor used)")
    p.add_argument("--format", "-f", required=True)
    p.add_argument("--alpha", type=float, help="fixed migration strength; omit to grid-search")
    p.add_argument("--output", "-o", help="write the JSON report here")
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("svdq", help="low-rank split + quantization report for (X, W)")
    p.add_argument("--x", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--format", "-f", required=True)
    p.add_argument("--alpha", type=float, help="fixed migration strength; omit to grid-search")
    p.add_argument("--rank", type=int, default=16)
    p.add_argument("--output", "-o", help="write the JSON report here")
    p.set_defaults(func=cmd_svdq)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnknownFormat as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LofiqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
