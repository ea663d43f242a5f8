"""Command-line frontend: enumerate, quantize, compare, smooth, svdq.

Exit codes: 0 success, 1 runtime/data error, 2 usage error (including an
unknown format selector). Runs with identical flags and seeds produce
byte-identical output files.
"""

import argparse
import json
import sys

from . import ptq
from .codebook import builtin_names, enumerate_codebook
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
from .registry import ROLES, parse_format
from .tensor import Tensor, load_tensors, save_tensors

_ENUMERABLE = ", ".join(sorted(builtin_names() + ["hif8"]))


def _enumerable(name):
    if name.strip().lower() == "hif8":
        return hif8_enumerate()
    try:
        return enumerate_codebook(name).values
    except UnknownFormat:
        raise UnknownFormat(f"unknown format {name!r}; known: {_ENUMERABLE}") from None


def _fmt_value(v):
    return repr(float(v))


def cmd_enumerate(args):
    if args.interval is not None and not args.interval[0] <= args.interval[1]:  # NaN fails too
        lo, hi = map(_fmt_value, args.interval)
        print(f"error: --interval needs LO <= HI, got [{lo}, {hi}]", file=sys.stderr)
        return 2
    values = _enumerable(args.format)
    out = sys.stdout if args.output is None else open(args.output, "w", encoding="utf-8")
    try:
        print(f"format: {args.format.strip().lower()}", file=out)
        print(f"count: {len(values)}", file=out)
        positives = values[values > 0]
        print(f"max_finite: {_fmt_value(values[-1])}", file=out)
        if positives.size:
            print(f"min_positive: {_fmt_value(positives[0])}", file=out)
        if args.interval is not None:
            lo, hi = args.interval
            values = values[(values >= lo) & (values <= hi)]
            print(f"interval: [{_fmt_value(lo)}, {_fmt_value(hi)}]", file=out)
            print(f"count_in_interval: {len(values)}", file=out)
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
        outputs.append(Tensor.of_checked(codec.reconstruct(t, args.role, pad=args.pad), t.name))
        reports.append(fidelity_from_reconstruction(t, outputs[-1], codec, args.role))
    save_tensors(outputs, args.output, dtype=args.dtype)
    if args.report:
        emit_report(reports, args.report_format, args.report)
    for r in report_rows(reports):
        print(f"{r['tensor']}: {r['format']} sqnr_db={r['sqnr_db']}")
    return 0


# The fields after kind:AxB that each synthetic kind reads, in order
_SYNTH_FIELDS = {"gaussian": ("sigma",), "uniform": (),
                 "gaussian_outlier": ("sigma", "fraction", "scale")}


def parse_synth(spec_str, seed):
    """kind:AxB[:sigma[:fraction:scale]] -> SyntheticSpec.

    gaussian reads kind:AxB[:sigma], uniform kind:AxB, and gaussian_outlier
    kind:AxB:sigma:fraction[:scale]. A field the kind does not read, or a
    non-finite number, raises ValueError.
    """
    parts = spec_str.split(":")
    if len(parts) < 2:
        raise ValueError(f"bad synth spec {spec_str!r}")
    kind = parts[0]
    fields = _SYNTH_FIELDS.get(kind)
    if fields is None:
        raise ValueError(f"{spec_str!r}: unknown synthetic kind {kind!r}")
    if len(parts) > 2 + len(fields):
        grammar = "".join(f":{f}" for f in fields)
        raise ValueError(f"{spec_str!r}: {kind} reads no field past kind:AxB{grammar}")
    if kind == "gaussian_outlier" and len(parts) <= 3:
        raise ValueError(f"{spec_str!r}: gaussian_outlier needs kind:shape:sigma:fraction:scale")
    try:
        shape = tuple(int(s) for s in parts[1].lower().split("x"))
        sigma = float(parts[2]) if len(parts) > 2 else 1.0
        fraction = float(parts[3]) if len(parts) > 3 else 0.0
        scale = float(parts[4]) if len(parts) > 4 else 1.0
        return SyntheticSpec(kind, shape, sigma=sigma, outlier_fraction=fraction,
                             outlier_scale=scale, seed=seed)
    except ValueError as exc:
        raise ValueError(f"{spec_str!r}: {exc}") from None


def cmd_compare(args):
    formats = [f for f in (s.strip() for s in args.formats.split(",")) if f]
    if not formats:
        raise UnknownFormat("at least one format selector is required")
    codecs = [parse_format(f) for f in formats]
    if args.synth:
        try:
            spec = parse_synth(args.synth, args.seed)
        except ValueError as exc:
            raise LofiqError(str(exc)) from None
        try:
            tensors = [synth(spec)]
        except (ValueError, MemoryError) as exc:  # a negative extent, or too large to allocate
            raise LofiqError(f"{args.synth!r}: {exc}") from None
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


def _pipeline_report(args, pipeline, **options):
    """Run ``pipeline(x, w, codec, **options)`` on the first tensors of --x and --w; write and
    print its JSON report. The --format selector is parsed before any file is read."""
    codec = parse_format(args.format)
    payload = pipeline(_first_tensor(args.x), _first_tensor(args.w), codec, **options).to_dict()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    print(json.dumps(payload))
    return 0


def cmd_smooth(args):
    # the pipeline is looked up on ptq at call time, so a wrapper set there is used
    return _pipeline_report(args, ptq.smoothquant_pipeline, alpha=args.alpha)


def cmd_svdq(args):
    return _pipeline_report(args, ptq.svdquant_pipeline, rank=args.rank, alpha=args.alpha)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lofiq",
        description="Low-bit quantization formats, PTQ transforms, and SQNR analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all representable values of a format")
    p.add_argument("format", help=f"one of {_ENUMERABLE}")
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

    pair = argparse.ArgumentParser(add_help=False)  # the arguments of smooth and svdq
    pair.add_argument("--x", required=True, help="activation .lqt file (first tensor used)")
    pair.add_argument("--w", required=True, help="weight .lqt file (first tensor used)")
    pair.add_argument("--format", "-f", required=True, help="format selector, e.g. int8")
    pair.add_argument("--alpha", type=float, help="fixed migration strength; omit to grid-search")
    pair.add_argument("--output", "-o", help="write the JSON report here")

    p = sub.add_parser("smooth", parents=[pair],
                       help="difficulty-migration report for an (X, W) pair")
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("svdq", parents=[pair],
                       help="low-rank split + quantization report for (X, W)")
    p.add_argument("--rank", type=int, default=16, help="rank of the low-rank branch (default 16)")
    p.set_defaults(func=cmd_svdq)

    return parser


def _bound(token):
    """``token`` with a leading space when it is a negative number, so that argparse
    takes '-inf' or '-1e9' as a value rather than an option; float() skips the space."""
    try:
        float(token)
    except ValueError:
        return token
    return " " + token if token.startswith("-") else token


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    for i, token in enumerate(argv[:-1]):
        if token == "--interval":
            argv[i + 1:i + 3] = map(_bound, argv[i + 1:i + 3])
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
