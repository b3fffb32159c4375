"""Batch front-end. Every command takes --seed and exits non-zero on any
failure. Every command that writes files (all but ``model info``, ``inject
one``, ``campaign plan`` and ``predict``) also writes a manifest echoing its
resolved inputs, through ``reports`` like every report (timestamps live in no
report file, so reruns with the same seeds are byte-identical).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__, analysis, campaign, compress, protect, reports
from .faults import FaultOutcome, FaultSpec, fault_space_size
from .model import (DEFAULT_TARGET_ROLES, ModelGraph, batch_inputs, build_unet,
                    generate_calibration_set, generate_toy_weights, load_model,
                    model_hash, save_model)


class UsageError(ValueError):
    pass


def _write_manifest(args, where, **fields):
    """The manifest of the command ``args`` ran, with ``fields``: manifest.json
    in directory ``where``, else ``where``.manifest.json beside a file."""
    if os.path.isdir(where) or where.endswith(os.sep):
        os.makedirs(where, exist_ok=True)
        path = os.path.join(where, "manifest.json")
    else:
        path = where + ".manifest.json"
    command = " ".join(filter(None, (args.command, getattr(args, "action", None))))
    reports.write_json(path, {
        **fields, "command": command, "package_version": __version__,
        "args": {k: v for k, v in vars(args).items() if not callable(v)}})


def _load(path) -> ModelGraph:
    if not os.path.exists(path):
        raise UsageError(f"model file {path!r} does not exist")
    return load_model(path)


def _default_side(graph: ModelGraph) -> int:
    return max(16, (1 << graph.pool_stages) * 4)


def _images_for(graph: ModelGraph, args):
    """The synthetic images the image options ask for; refuses an option below 1."""
    for option, value in (("--images", args.images), ("--image-size", args.image_size)):
        if value is not None and value < 1:
            raise UsageError(f"{option} must be >= 1, got {value}")
    side = args.image_size or _default_side(graph)
    pools = graph.pool_stages
    if side % (1 << pools):
        raise UsageError(f"--image-size {side} must be divisible by {1 << pools} "
                         f"(the model has {pools} pooling stages)")
    channels = graph.metadata.get("input_channels", 1)
    inputs, _ = generate_calibration_set((side, side, channels), count=args.images,
                                         seed=args.images_seed)
    return inputs


def _add_image_opts(p):
    p.add_argument("--images", type=int, default=10,
                   help="evaluation images to synthesize (default 10)")
    p.add_argument("--images-seed", type=int, default=1000)
    p.add_argument("--image-size", type=int, default=None,
                   help="square image side (default: model-dependent)")


def _comma_list(option: str, text: str, kind=int) -> list:
    """The comma-separated ``kind`` values of ``option``; refuses an empty item, one
    that is not a number, and a float that is not finite."""
    try:
        values = [kind(item) for item in text.split(",")]
    except ValueError:
        raise UsageError(f"{option} needs comma-separated {kind.__name__}s, "
                         f"got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise UsageError(f"{option} needs finite numbers, got {text!r}")
    return values


def _workers(args) -> int:
    """--workers, else SEU_FORGE_WORKERS if set, else 1; refuses a count below 1."""
    if args.workers is not None:
        if args.workers < 1:
            raise UsageError(f"--workers must be >= 1, got {args.workers}")
        return args.workers
    env = os.environ.get("SEU_FORGE_WORKERS")
    if not env:
        return 1
    try:
        count = int(env)
    except ValueError:
        count = 0
    if count < 1:
        raise UsageError(f"SEU_FORGE_WORKERS must be a positive integer, got {env!r}")
    return count


# ---------------------------------------------------------------------------
# model


def _toy_weights(graph: ModelGraph, args) -> ModelGraph:
    """``graph`` with the toy weights that ``args`` (the weight options) ask for."""
    frac = "span" if args.span_bias_fractions else args.positive_bias_fraction
    return generate_toy_weights(graph, args.seed, kernel_scale=args.kernel_scale,
                                positive_bias_fraction=frac,
                                gamma_range=(args.gamma_lo, args.gamma_hi))


def cmd_model_build(args):
    graph = _toy_weights(build_unet(args.levels, args.base_filters, args.classes,
                                    args.channels), args)
    save_model(graph, args.out)
    _write_manifest(args, args.out, model_hash=model_hash(graph),
                    parameter_sets=len(graph.params))
    print(f"wrote {args.out}: {len(graph.params)} parameter sets, "
          f"{sum(p.data.size for p in graph.params)} elements, "
          f"hash {model_hash(graph)[:16]}")


def cmd_model_generate(args):
    graph = _toy_weights(_load(args.model), args)
    save_model(graph, args.out)
    _write_manifest(args, args.out, model_hash=model_hash(graph))
    print(f"reseeded weights -> {args.out} (hash {model_hash(graph)[:16]})")


def cmd_model_info(args):
    graph = _load(args.model)
    info = {
        "class_count": graph.class_count,
        "layers": [{"name": l.name, "kind": l.kind, "inputs": l.inputs,
                    "hyperparams": l.hyperparams} for l in graph.layers],
        "param_sets": [{"pset": p.index, "layer": p.layer, "role": p.role,
                        "encoding": p.encoding, "shape": list(p.data.shape),
                        "elements": p.data.size} for p in graph.params],
        "metadata": graph.metadata,
        "model_hash": model_hash(graph),
        "fault_space_default_roles": fault_space_size(graph),
    }
    json.dump(info, sys.stdout, sort_keys=True, indent=1)
    print()


# ---------------------------------------------------------------------------
# compress


def cmd_compress(args):
    graph = _load(args.model)
    extra = {}
    if args.action == "fold":
        out = compress.fold_bn(graph)
    elif args.action == "quantize":
        inputs = _images_for(graph, args)
        out = compress.quantize_ptq(graph, inputs)
    elif args.action == "prune":
        if (args.keep_fraction is None) == (args.threshold is None):
            raise UsageError("give exactly one of --keep-fraction or --threshold")
        out = compress.prune_structured(graph, keep_fraction=args.keep_fraction,
                                        threshold=args.threshold)
    elif args.action == "sparse-zero":
        lo, hi = args.abs_range
        if not lo < hi:  # [LO, HI) holds nothing
            raise UsageError(f"--abs-range needs LO < HI, got {lo} {hi}")
        out, zeroed = compress.sparse_zero(
            graph, lambda v: (np.abs(v) >= lo) & (np.abs(v) < hi))
        extra["zeroed"] = zeroed
        print(f"zeroed {zeroed} parameters with |x| in [{lo}, {hi})")
    save_model(out, args.out)
    _write_manifest(args, args.out, model_hash=model_hash(out), **extra)
    print(f"wrote {args.out} (hash {model_hash(out)[:16]})")


# ---------------------------------------------------------------------------
# calibrate


def cmd_calibrate(args):
    graph = _load(args.model)
    inputs = _images_for(graph, args)
    os.makedirs(args.out_dir, exist_ok=True)

    wrote = []

    def out(name):
        wrote.append(name)
        return os.path.join(args.out_dir, name)

    ratios = analysis.positive_ratio_table(graph)
    analysis.write_positive_ratio_csv(ratios, out("positive_ratio.csv"))
    reports.write_json(out("positive_ratio.json"), ratios)
    reports.write_json(out("parameter_stats.json"), analysis.capture_parameter_stats(graph))
    if graph.flags.get("quantized"):
        table = analysis.bits_needed_table(graph)
        analysis.write_bits_needed_csv(table, out("bits_needed.csv"))
        reports.write_json(out("bits_needed.json"), table)
    else:
        scan = analysis.risky_exponent_scan(graph)
        analysis.write_risky_scan_csv(scan, out("risky_exponents.csv"))
        reports.write_json(out("risky_exponents.json"), scan)
        reports.write_json(out("calibration.json"), analysis.calibration_report(graph, inputs))

    _write_manifest(args, args.out_dir, model_hash=model_hash(graph), outputs=wrote)
    print(f"calibration reports in {args.out_dir}: {', '.join(wrote)}")


# ---------------------------------------------------------------------------
# inject


def cmd_inject_one(args):
    graph = _load(args.model)
    spec = FaultSpec(pset=args.pset, element=args.element, bit=args.bit,
                     encoding=graph.param(args.pset).encoding)
    inputs = _images_for(graph, args)
    outcome, = campaign.fault_outcomes(graph, [spec], batch_inputs(inputs))
    if outcome.evaluation_error is not None:
        raise ValueError(outcome.evaluation_error)
    print(outcome.to_json())


# ---------------------------------------------------------------------------
# campaign


def cmd_campaign_plan(args):
    n = campaign.sample_size(args.N, args.e, args.t, args.p)
    print(n)


def cmd_campaign_sweep(args):
    workers = _workers(args)
    roles = args.roles.split(",")  # an empty item is refused as an unknown role
    psets = None if args.psets is None else _comma_list("--psets", args.psets)
    graph = _load(args.model)
    inputs = _images_for(graph, args)
    plan = campaign.plan_single_bit_sweep(
        graph, roles=roles, psets=psets, bits=(args.bits[0], args.bits[1]),
        injections_per_target=args.n, margin=args.e, z_value=args.t, prior=args.p,
        seed=args.seed, image_set_id=f"synthetic:{args.images}@{args.images_seed}")
    result = campaign.run_single_bit_sweep(graph, plan, inputs, workers=workers)
    result.write(args.out_dir, stem="sweep")
    _write_manifest(args, args.out_dir, model_hash=model_hash(graph),
                    faults_evaluated=sum(o.evaluation_error is None for o in result.outcomes),
                    weighting_note="weighted_bit_error uses w_b ~ (b - lo + 1), normalized")
    print(f"swept {len(result.outcomes)} faults over {len(plan.targets)} parameter sets "
          f"-> {args.out_dir}")


def cmd_campaign_multibit(args):
    workers = _workers(args)
    counts = _comma_list("--counts", args.counts)
    graph = _load(args.model)
    if not graph.flags.get("quantized"):
        raise UsageError("multi-bit campaigns run on quantized models "
                         "(compress quantize first)")
    inputs = _images_for(graph, args)
    result = campaign.run_multi_bit_campaign(graph, counts, args.repetitions,
                                             args.seed, inputs, workers=workers)
    result.write(args.out_dir, stem="multibit")
    _write_manifest(args, args.out_dir, model_hash=model_hash(graph))
    for c, m, s in zip(result.counts, result.means, result.stds):
        print(f"flips={c:5d}  mean={m:7.3f}%  std={s:6.3f}" if m is not None
              else f"flips={c:5d}  no repetition evaluated")


# ---------------------------------------------------------------------------
# predict


def _shares_and_signs(args):
    shares = None if args.shares is None else _comma_list("--shares", args.shares, float)
    signs = None if args.signs is None else _comma_list("--signs", args.signs, float)
    if shares is not None and not all(0 <= share <= 100 for share in shares):
        raise UsageError(f"--shares must lie in [0, 100], got {args.shares!r}")
    if args.model:
        graph = _load(args.model)
        inputs = _images_for(graph, args)
        maps = campaign._forward_maps(graph, batch_inputs(inputs))
        shares = campaign.golden_class_shares(maps, graph.class_count)
        bias = graph.kernel_bias(graph.output_layer.name)[1].data
        signs = np.sign(bias.astype(np.float64))
        return signs, shares
    if shares is None or signs is None:
        raise UsageError("give either --model or both --shares and --signs")
    return np.array(signs), np.array(shares)


def cmd_predict_bit30(args):
    signs, shares = _shares_and_signs(args)
    est = campaign.predict_bit30_error(signs, shares)
    print(f"{est:.2f}")


def cmd_predict_signbit(args):
    signs, shares = _shares_and_signs(args)
    pred = campaign.predict_sign_bit_error_quantized(signs, shares)
    print(f"{pred.estimate:.2f}")
    print("note: sign-bit estimates carry high variance (few biases, "
          "unbalanced per-class terms)", file=sys.stderr)


# ---------------------------------------------------------------------------
# protect


def cmd_protect_apply(args):
    # refused before the model is written, which a failed report would leave without a manifest
    for path in filter(None, (args.out, args.report)):
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise UsageError(f"the directory of {path!r} does not exist")
    graph = _load(args.model)
    out, report = protect.protect_parameters(graph, protect.PT_LEVELS[args.pt])
    save_model(out, args.out)
    summary = out.metadata["provenance"][-1]["summary"]
    if args.report:
        report.write_jsonl(args.report)
        stem = args.report[:-6] if args.report.endswith(".jsonl") else args.report
        variant = os.path.splitext(os.path.basename(args.model))[0]
        protect.write_protection_summary_csv([(variant, summary)],
                                             stem + "_summary.csv")
    _write_manifest(args, args.out, model_hash=model_hash(out), summary=summary)
    print(json.dumps(summary, sort_keys=True))


def cmd_protect_evaluate(args):
    workers = _workers(args)
    original = _load(args.original)
    protected = _load(args.protected)
    inputs = _images_for(original, args)
    ev = protect.evaluate_protection(original, protected, inputs, workers=workers)
    os.makedirs(args.out_dir, exist_ok=True)
    ev.write_json(os.path.join(args.out_dir, "protection_eval.json"))
    _write_manifest(args, args.out_dir, original_hash=model_hash(original),
                    protected_hash=model_hash(protected))
    for row in ev.per_bit:
        o, p = row["original"], row["protected"]
        print(f"bit {row['bit']:2d} (n={row['n']:3d})  "
              f"orig GIoU {o['giou']:6.2f} err {o['error_rate']:6.2f}%   "
              f"prot GIoU {p['giou']:6.2f} err {p['error_rate']:6.2f}%")


# ---------------------------------------------------------------------------
# report


def cmd_report(args):
    logs = {}   # variant -> its outcomes, over every log of that basename
    for path in args.inputs:
        variant = os.path.splitext(os.path.basename(path))[0]
        outcomes = logs.setdefault(variant, [])
        with open(path) as f:
            for number, line in enumerate(f, 1):
                if line.strip():
                    try:
                        outcomes.append(FaultOutcome.from_json(line))
                    except ValueError as exc:  # a JSON syntax error included
                        raise ValueError(f"{path}:{number}: {exc}") from None
    rows = [(variant, r) for variant in sorted(logs)
            for r in campaign.sweep_rows(logs[variant]) if r["n"]]

    os.makedirs(args.out_dir, exist_ok=True)
    reports.write_csv(os.path.join(args.out_dir, "report_aggregate.csv"),
                      ["variant", *campaign.SWEEP_COLUMNS],
                      [[v, *campaign.sweep_cells(r)] for v, r in rows])
    reports.write_json(os.path.join(args.out_dir, "report_long.json"), [
        {"variant": v, "pset": r["pset"], "bit": r["bit"], "metric": "mean_error",
         "value": r["mean_error"]} for v, r in rows])
    _write_manifest(args, args.out_dir, rows=len(rows))
    print(f"merged {sum(r['n'] for _, r in rows)} outcomes from {len(args.inputs)} logs "
          f"-> {args.out_dir}")


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="seu-forge",
                                 description="SEU robustness toolkit for "
                                             "encoder-decoder segmentation CNNs")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def seeded(p):
        p.add_argument("--seed", type=int, default=0)
        return p

    def weight_opts(p):
        p.add_argument("--kernel-scale", type=float, default=0.25)
        p.add_argument("--positive-bias-fraction", type=float, default=0.5)
        p.add_argument("--span-bias-fractions", action="store_true",
                       help="per-layer positive-bias fractions spanning [0, 1]")
        p.add_argument("--gamma-lo", type=float, default=0.5)
        p.add_argument("--gamma-hi", type=float, default=1.5)

    model = sub.add_parser("model", help="build/reseed/inspect models").add_subparsers(
        dest="action", required=True)
    b = seeded(model.add_parser("build"))
    b.add_argument("--out", required=True)
    b.add_argument("--levels", type=int, default=3)
    b.add_argument("--base-filters", type=int, default=8)
    b.add_argument("--classes", type=int, default=4)
    b.add_argument("--channels", type=int, default=4)
    weight_opts(b)
    b.set_defaults(func=cmd_model_build)
    g = seeded(model.add_parser("generate"))
    g.add_argument("--model", required=True)
    g.add_argument("--out", required=True)
    weight_opts(g)
    g.set_defaults(func=cmd_model_generate)
    i = seeded(model.add_parser("info"))
    i.add_argument("--model", required=True)
    i.set_defaults(func=cmd_model_info)

    comp = seeded(sub.add_parser("compress", help="fold/quantize/prune/sparse-zero"))
    comp.add_argument("action", choices=["fold", "quantize", "prune", "sparse-zero"])
    comp.add_argument("--model", required=True)
    comp.add_argument("--out", required=True)
    comp.add_argument("--keep-fraction", type=float, default=None)
    comp.add_argument("--threshold", type=float, default=None)
    comp.add_argument("--abs-range", type=float, nargs=2, default=[1.0, 2.0],
                      metavar=("LO", "HI"))
    _add_image_opts(comp)
    comp.set_defaults(func=cmd_compress)

    cal = seeded(sub.add_parser("calibrate", help="ranges, sign census, risky scans"))
    cal.add_argument("--model", required=True)
    cal.add_argument("--out-dir", required=True)
    _add_image_opts(cal)
    cal.set_defaults(func=cmd_calibrate)

    inj = sub.add_parser("inject", help="single-fault debugging").add_subparsers(
        dest="action", required=True)
    one = seeded(inj.add_parser("one"))
    one.add_argument("--model", required=True)
    one.add_argument("--pset", type=int, required=True)
    one.add_argument("--element", type=int, required=True)
    one.add_argument("--bit", type=int, required=True)
    _add_image_opts(one)
    one.set_defaults(func=cmd_inject_one)

    camp = sub.add_parser("campaign", help="plan/sweep/multibit").add_subparsers(
        dest="action", required=True)
    pl = seeded(camp.add_parser("plan"))
    pl.add_argument("--N", type=int, required=True)
    pl.add_argument("--e", type=float, default=0.025)
    pl.add_argument("--t", type=float, default=1.96)
    pl.add_argument("--p", type=float, default=0.5)
    pl.set_defaults(func=cmd_campaign_plan)
    sw = seeded(camp.add_parser("sweep"))
    sw.add_argument("--model", required=True)
    sw.add_argument("--out-dir", required=True)
    sw.add_argument("--roles", default=",".join(DEFAULT_TARGET_ROLES))
    sw.add_argument("--psets", default=None)
    sw.add_argument("--bits", type=int, nargs=2, default=[20, 31], metavar=("LO", "HI"))
    sw.add_argument("--n", type=int, default=None,
                    help="explicit injections per target (default: statistical sizing)")
    sw.add_argument("--e", type=float, default=0.025)
    sw.add_argument("--t", type=float, default=1.96)
    sw.add_argument("--p", type=float, default=0.5)
    sw.add_argument("--workers", type=int, default=None)
    _add_image_opts(sw)
    sw.set_defaults(func=cmd_campaign_sweep)
    mb = seeded(camp.add_parser("multibit"))
    mb.add_argument("--model", required=True)
    mb.add_argument("--out-dir", required=True)
    mb.add_argument("--counts", default="1,10,50,100,250,400,650,800,950,1250,1550,1750,2000")
    mb.add_argument("--repetitions", type=int, default=150)
    mb.add_argument("--workers", type=int, default=None)
    _add_image_opts(mb)
    mb.set_defaults(func=cmd_campaign_multibit)

    pred = sub.add_parser("predict", help="analytic output-bias error predictors").add_subparsers(
        dest="action", required=True)
    for name, fn in (("bit30", cmd_predict_bit30), ("signbit", cmd_predict_signbit)):
        pp = seeded(pred.add_parser(name))
        pp.add_argument("--model", default=None)
        pp.add_argument("--shares", default=None, help="comma-separated class shares (%%)")
        pp.add_argument("--signs", default=None, help="comma-separated bias signs")
        _add_image_opts(pp)
        pp.set_defaults(func=fn)

    prot = sub.add_parser("protect", help="PT hardening and paired evaluation").add_subparsers(
        dest="action", required=True)
    pa = seeded(prot.add_parser("apply"))
    pa.add_argument("--model", required=True)
    pa.add_argument("--out", required=True)
    pa.add_argument("--pt", type=int, choices=[1, 2, 3, 4], required=True)
    pa.add_argument("--report", default=None, help="write per-record JSONL here")
    pa.set_defaults(func=cmd_protect_apply)
    pe = seeded(prot.add_parser("evaluate"))
    pe.add_argument("--original", required=True)
    pe.add_argument("--protected", required=True)
    pe.add_argument("--out-dir", required=True)
    pe.add_argument("--workers", type=int, default=None)
    _add_image_opts(pe)
    pe.set_defaults(func=cmd_protect_evaluate)

    rep = seeded(sub.add_parser("report", help="merge outcome logs"))
    rep.add_argument("--inputs", nargs="*", default=[])
    rep.add_argument("--out-dir", required=True)
    rep.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        for option in ("seed", "images_seed"):  # refused before any work
            value = getattr(args, option, 0)
            if value < 0:
                raise UsageError(f"--{option.replace('_', '-')} must be >= 0, got {value}")
        args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, IndexError, OSError, MemoryError) as exc:
        # a KeyError's str() is its message's repr, quotes and all; where the
        # message is empty (a bare MemoryError's) the exception's name stands
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {str(message) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
