"""Command-line frontend: enumerate, quantize, compare, smooth, svdq.

Exit codes: 0 success, 1 runtime/data error (a failed allocation too), 2
usage error (including an unknown format selector). Runs with identical
flags and seeds produce byte-identical output files.
"""

import argparse
import json
import sys

from . import ptq
from .codebook import builtin_names, enumerate_codebook
from .errors import LofiqError, UnknownFormat
from .hif8 import hif8_enumerate
from .metrics import (
    compare_formats,
    emit_report,
    fidelity_from_reconstruction,
    parse_synth,
    report_rows,
    synth,
)
from .registry import ROLES, parse_format
from .tensor import Tensor, load_tensors, save_tensors, write_in_place

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
    lines = [f"format: {args.format.strip().lower()}", f"count: {len(values)}",
             f"max_finite: {_fmt_value(values[-1])}"]
    positives = values[values > 0]
    if positives.size:
        lines.append(f"min_positive: {_fmt_value(positives[0])}")
    if args.interval is not None:
        lo, hi = args.interval
        values = values[(values >= lo) & (values <= hi)]
        lines += [f"interval: [{_fmt_value(lo)}, {_fmt_value(hi)}]",
                  f"count_in_interval: {len(values)}"]
    lines.append("values:")
    lines += map(_fmt_value, values)
    text = "".join(line + "\n" for line in lines)
    if args.output is None:
        sys.stdout.write(text)
    else:
        write_in_place(args.output, [text.encode("utf-8")])
    return 0


def cmd_quantize(args):
    """Quantize every tensor of the input file, then write the outputs and the reports.

    Each input tensor is dropped once its output and its report exist, so
    the peak holds the tensors not yet quantized, the outputs made so far
    and the one being made: the input file plus one output. A tensor that
    fails raises before the output file is opened.
    """
    codec = parse_format(args.format)
    tensors = load_tensors(args.input)
    tensors.reverse()  # popped from the end, so in file order
    reports = []

    def quantized(t):
        out = Tensor.of_checked(codec.reconstruct(t, args.role, pad=args.pad), t.name)
        reports.append(fidelity_from_reconstruction(t, out, codec, args.role))
        return out

    outputs = [quantized(tensors.pop()) for _ in range(len(tensors))]
    save_tensors(outputs, args.output, dtype=args.dtype)
    if args.report:
        emit_report(reports, args.report_format, args.report)
    for r in report_rows(reports):
        print(f"{r['tensor']}: {r['format']} sqnr_db={r['sqnr_db']}")
    return 0


def cmd_compare(args):
    formats = [f for f in (s.strip() for s in args.formats.split(",")) if f]
    if not formats:
        raise UnknownFormat("at least one format selector is required")
    codecs = [parse_format(f) for f in formats]
    if args.synth:
        spec = None
        try:
            spec = parse_synth(args.synth, args.seed)  # whose errors name the spec
            tensors = [synth(spec)]
        except (ValueError, MemoryError) as exc:  # a bad spec, an overflow, or no memory
            raise LofiqError(str(exc) if spec is None else f"{args.synth!r}: {exc}") from None
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
        write_in_place(args.output, [(json.dumps(payload, indent=2) + "\n").encode("utf-8")])
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
    src.add_argument("--synth", help="synthetic spec kind:AxB and the fields its kind reads, "
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
    except (LofiqError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
