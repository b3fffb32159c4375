"""Fault-campaign benchmark for seu-forge.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep_f32 --seed 3 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each

With ``--trace 0`` the run sets the model up several times, then repeats
campaign rounds until ``--seconds`` have passed, or until it has made
``workloads.REFERENCE_ROUNDS`` rounds, and reports the end-to-end metrics.
Their times are scaled to a fixed machine speed by the reference kernel in
``speed.py``; the wall-clock figures are printed beside them.
With ``--trace 1`` it runs a fixed number of rounds, each once untraced and
once traced, and reports the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object.

The module is safe to import from a spawned pool worker: everything happens
under the ``__main__`` check, and numpy is imported only after the thread
environment is pinned.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
NAMES = ("sweep_f32", "multibit_q8", "protect_pt2")
SETUP_SLOT_S = 0.25
SETUP_GROUPS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def median_of_means(values):
    """Median of the means of SETUP_GROUPS interleaved subsets of ``values``.

    On a shared machine, speed can switch between a fast and a slow state
    for seconds at a time, and a set-up slot sits in one state. A plain
    median of the set-ups then jumps between the two states' times from run
    to run. Each interleaved subset spans the whole run, so its mean follows
    the share of time spent in each state, and the median of the means still
    drops a stray outlier.
    """
    return statistics.median(statistics.fmean(values[i::SETUP_GROUPS])
                             for i in range(min(SETUP_GROUPS, len(values))))


def quantile(values, q):
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


# ---------------------------------------------------------------------------
# exactness: committed references for the default seed, and earlier runs


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return None


def compare(label, expected, actual, problems):
    if expected is not None and expected != actual:
        problems.append(f"{label}: expected {expected}, got {actual}")


def check_rounds(name, seed, rounds, problems, seen):
    """Compare each round with the committed reference and with earlier runs."""
    import workloads
    if seed == workloads.DEFAULT_SEED:
        ref = (load_json(REFERENCE) or {}).get(name) or []
        for r in rounds:
            if r.index < len(ref):
                compare(f"round {r.index} vs reference", ref[r.index], r.record(), problems)
            else:
                problems.append(f"round {r.index}: no reference for {name} in {REFERENCE}")
    for r in rounds:
        key = str(r.index)
        compare(f"round {r.index} vs earlier run", seen["rounds"].get(key), r.record(), problems)


# ---------------------------------------------------------------------------
# one workload in this process


def setup_slot(name, work_dir, images, slots):
    """Set up at least once and until SETUP_SLOT_S has passed; return the context.

    Slots run before the first round and between rounds, so ``setup_s``
    samples the same stretch of machine time as the rounds do. Each slot
    appends (reference kernel seconds, [(seconds, span summary) per set-up])
    to ``slots``; the kernel is timed just before and just after the slot.
    """
    from tracer import Tracer
    from time import perf_counter
    import speed
    import workloads
    spent, ctx, reps = 0.0, None, []
    start = perf_counter()
    speed.kernel()
    kernel_s = perf_counter() - start
    while ctx is None or spent < SETUP_SLOT_S:
        tr = Tracer()
        with tr.span("setup") as rec:
            ctx = workloads.setup(name, work_dir, images, tr)
        reps.append((rec[2] - rec[1], tr.summary()))
        spent += rec[2] - rec[1]
    start = perf_counter()
    speed.kernel()
    slots.append(((kernel_s + perf_counter() - start) / 2, reps))
    return ctx


def run_rounds(name, ctx, seed, images, out_dir, between, seconds):
    """Run rounds until ``seconds`` of rounds have passed, calling ``between`` between them.

    The rounds run with a ``speed.Sampler`` installed; each round's time is
    net of the sampler's kernel calls inside it. A run makes at most
    REFERENCE_ROUNDS rounds, the number the reference holds.
    """
    from tracer import Tracer
    import speed
    import workloads
    from time import perf_counter
    sampler, rounds, busy = speed.Sampler(), [], 0.0
    while True:
        start, spent = perf_counter(), sampler.spent
        with sampler.installed():
            r = workloads.run_round(name, ctx, seed, len(rounds), images, out_dir, Tracer())
        r.seconds -= sampler.spent - spent
        rounds.append(r)
        busy += perf_counter() - start
        # Stop when the next round would end more than half a round past the window.
        if busy * (1 + 0.5 / len(rounds)) >= seconds or len(rounds) == workloads.REFERENCE_ROUNDS:
            return rounds, sampler
        between()


def traced_rounds(name, ctx, seed, images, out_dir, between):
    """Each round untraced, then again traced, so the overhead compares neighbours."""
    from tracer import Tracer
    import workloads
    tracer, plain, traced = Tracer(), [], []
    for index in range(workloads.WORKLOADS[name].trace_rounds):
        if index:
            between()
        plain.append(workloads.run_round(name, ctx, seed, index, images, out_dir, Tracer()))
        tracer.begin_round()
        with tracer.installed():  # no set-up inside: it would add to the campaign's spans
            traced.append(workloads.run_round(name, ctx, seed, index, images, out_dir, tracer))
    return tracer, plain, traced


def faults_per_s(rounds):
    """Evaluated faults over the rounds' total time, so a slow stretch of the
    machine counts by its length, as in ``median_of_means``."""
    return sum(r.evaluated for r in rounds) / sum(r.seconds for r in rounds)


def setup_seconds(slots, nominal=False):
    """Median of means of every set-up in every slot; with ``nominal``, each
    set-up scaled to the reference kernel's nominal speed around its slot."""
    import speed
    return median_of_means([s * (speed.NOMINAL_S / kernel_s if nominal else 1.0)
                            for kernel_s, reps in slots for s, _ in reps])


def end_to_end(rounds, sampler, slots):
    """Throughput and set-up time at the reference kernel's nominal speed."""
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    return {
        "norm_faults_per_s": {"value": faults_per_s(rounds) / sampler.scale(),
                              "unit": "faults/s"},
        "setup_s": {"value": setup_seconds(slots, nominal=True), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "evaluated_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
    }


def per_layer(rounds, plain_rounds, tracer, slots):
    from tracer import TENSOR_FUNCTIONS
    spans = tracer.summary()
    empty = {"s": 0.0, "self_s": 0.0, "calls": 0, "durations": []}

    def get(span):
        return spans.get(span, empty)

    def setup_time(span):
        return median_of_means([summary.get(span, empty)["s"]
                                for _, reps in slots for _, summary in reps])

    m = {}
    for fn in TENSOR_FUNCTIONS:
        m[f"tensor.{fn}.s"] = (get(f"tensor.{fn}")["s"], "s")
        m[f"tensor.{fn}.calls"] = (get(f"tensor.{fn}")["calls"], "count")
    m["tensor.conv2d_forward.gmac"] = (tracer.gmac, "GMAC")
    for fn in ("run_float", "run_quantized"):
        m[f"engine.{fn}.s"] = (get(f"engine.{fn}")["s"], "s")
        m[f"engine.{fn}.calls"] = (get(f"engine.{fn}")["calls"], "count")
    m["engine.run_float.self_s"] = (get("engine.run_float")["self_s"], "s")
    m["engine.golden_s"] = (tracer.golden_s, "s")
    m["engine.forwards"] = (get("engine.run_float")["calls"]
                            + get("engine.run_quantized")["calls"], "count")
    inject = get("faults.inject_and_measure")
    m["faults.inject_and_measure.s"] = (inject["s"], "s")
    m["faults.inject_and_measure.ms_p50"] = (
        1e3 * statistics.median(inject["durations"]) if inject["durations"] else 0.0, "ms")
    m["faults.inject_and_measure.ms_p90"] = (
        1e3 * quantile(inject["durations"], 0.9) if inject["durations"] else 0.0, "ms")
    m["faults.apply_revert.s"] = (get("faults.apply_fault")["s"] + get("faults.revert")["s"], "s")
    m["faults.apply_revert.calls"] = (get("faults.apply_fault")["calls"]
                                      + get("faults.revert")["calls"], "count")
    m["model.copy.s"] = (get("model.copy")["s"], "s")
    m["model.copy.calls"] = (get("model.copy")["calls"], "count")
    m["model.load_model.s"] = (setup_time("model.load_model"), "s")
    m["model.save_model.s"] = (setup_time("model.save_model"), "s")
    m["campaign.self_s"] = (sum(get(s)["self_s"] for s in (
        "campaign.run_single_bit_sweep", "campaign.run_multi_bit_campaign",
        "campaign.write")), "s")
    m["campaign.plan.s"] = (get("campaign.plan")["s"], "s")
    m["campaign.error_rate.s"] = (get("campaign.error_rate")["s"], "s")
    m["campaign.segmentation_metrics.s"] = (get("campaign.segmentation_metrics")["s"], "s")
    m["campaign.pool.count"] = (tracer.counts["pools"], "count")
    m["campaign.pool.s"] = (get("campaign.pool")["s"], "s")

    attempted = sum(r.attempted for r in rounds)
    evaluated = sum(r.evaluated for r in rounds)
    if tracer.counts["faulted_forwards"]:
        masked = tracer.counts["masked"]
    else:  # forwards ran in pool children; the repetition file shows the masked ones
        masked = sum(r.masked or 0 for r in rounds)
    m["campaign.faults_attempted"] = (attempted, "count")
    m["campaign.faults_evaluated"] = (evaluated, "count")
    m["campaign.faults_failed"] = (attempted - evaluated, "count")
    m["campaign.masked"] = (masked, "count")
    m["campaign.nan"] = (tracer.counts["nan"], "count")
    m["campaign.masked_frac"] = (masked / evaluated if evaluated else 0.0, "ratio")
    m["campaign.nan_frac"] = (tracer.counts["nan"] / evaluated if evaluated else 0.0, "ratio")
    m["compress.quantize_ptq.s"] = (setup_time("compress.quantize_ptq"), "s")
    m["protect.protect_parameters.s"] = (setup_time("protect.protect_parameters"), "s")
    m["protect.evaluate_protection.self_s"] = (get("protect.evaluate_protection")["self_s"], "s")

    plain, traced = faults_per_s(plain_rounds), faults_per_s(rounds)
    m["trace.untraced_faults_per_s"] = (plain, "faults/s")
    m["trace.faults_per_s"] = (traced, "faults/s")
    m["trace.overhead_pct"] = (100.0 * (plain - traced) / plain, "%")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


EXACT_COUNTS = ("tensor.conv2d_forward.calls", "tensor.conv2d_forward.gmac",
                "engine.forwards", "engine.run_float.calls", "engine.run_quantized.calls",
                "faults.apply_revert.calls", "model.copy.calls", "campaign.pool.count",
                "campaign.faults_attempted", "campaign.faults_evaluated",
                "campaign.faults_failed", "campaign.masked", "campaign.nan")


def run_one(args):
    import speed
    import workloads

    name = args.workload
    work_dir = os.path.join(WORK, name)
    out_dir = os.path.join(work_dir, "reports")
    os.makedirs(work_dir, exist_ok=True)
    print("env", json.dumps(environment(), sort_keys=True))

    images = workloads.base_images()
    speed.kernel()  # warm-up
    slots = []
    ctx = setup_slot(name, work_dir, images, slots)

    def between():
        setup_slot(name, work_dir, images, slots)

    problems = []
    seen_path = os.path.join(WORK, "seen", f"{name}-seed{args.seed}.json")
    seen = load_json(seen_path) or {"rounds": {}, "trace": None}

    if args.trace:
        tracer, plain, rounds = traced_rounds(name, ctx, args.seed, images, out_dir, between)
        for a, b in zip(plain, rounds):
            compare(f"round {a.index} traced vs untraced", a.record(), b.record(), problems)
        metrics = per_layer(rounds, plain, tracer, slots)
        counts = {c: metrics[c]["value"] for c in EXACT_COUNTS}
        compare("exact counts vs earlier run", seen["trace"], counts, problems)
        seen["trace"] = counts
        print("counts", json.dumps(counts, sort_keys=True))
        tracer.dump(os.path.join(work_dir, f"spans-seed{args.seed}.jsonl"))
    else:
        rounds, sampler = run_rounds(name, ctx, args.seed, images, out_dir, between,
                                     args.seconds)
        metrics = end_to_end(rounds, sampler, slots)
        print(f"wall clock: faults_per_s {faults_per_s(rounds):.6g} faults/s, "
              f"setup_s {setup_seconds(slots):.6g} s; reference kernel "
              f"{1e3 * statistics.fmean(sampler.samples):.4g} ms a call over "
              f"{len(sampler.samples)} calls (nominal {1e3 * speed.NOMINAL_S:.4g} ms)")

    check_rounds(name, args.seed, rounds, problems, seen)
    for r in rounds:
        problems += [f"round {r.index}: {p}" for p in r.problems]
    # Record only a clean run, so a broken one cannot become what later runs are held to.
    if not problems and not any(r.failed for r in rounds):
        seen["rounds"].update({str(r.index): r.record() for r in rounds})
        os.makedirs(os.path.dirname(seen_path), exist_ok=True)
        with open(seen_path, "w") as f:
            json.dump(seen, f, sort_keys=True, indent=1)

    for r in rounds:
        print(f"round {r.index} seed {workloads.round_seed(args.seed, r.index)}: "
              f"{r.evaluated}/{r.attempted} faults in {r.seconds:.3f} s, "
              f"{r.masked if r.masked is not None else '-'} masked")
        for fname, digest in r.digests.items():
            print(f"  sha256 {digest}  {fname}")
    for p in problems:
        print("CHECK FAILED:", p)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"{name}: failed_frac {failed / attempted:.6f} ({failed}/{attempted})")
    for key, m in metrics.items():
        print(f"  {key:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in a fresh interpreter, so pools and peak RSS stay separate."""
    status = 0
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(f"[{name}] {l}" for l in lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"[{name}] no result (exit code {proc.returncode})")
            status = 1
            continue
        status |= proc.returncode or (not result["correct"])
        print(f"[{name}] correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
    return int(bool(status))


def pin_environment():
    """One BLAS/OpenMP thread per process, and the checkout's package on the path."""
    if not os.path.isdir(os.path.join(SRC, "seu_forge")):
        sys.exit(f"perfbench: no seu_forge package under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


def main(argv=None):
    args = parse_args(argv)
    pin_environment()
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    finally:
        # The spawn pools start multiprocessing's resource tracker; end it and
        # wait for it rather than leave it to exit after this process.
        from multiprocessing import resource_tracker
        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()


if __name__ == "__main__":
    sys.exit(main())
