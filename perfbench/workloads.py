"""The benchmark's three workloads, driven through the public API only.

Every workload uses the acceptance suite's ``model_b`` (``build_unet(2, 8, 4,
4)``, weights seed 42) and works in *rounds*. A round is one complete
campaign call, from planning through writing its report files, on inputs
derived from the round seed ``seed * 1000 + round``. The program only sees the
generated inputs.

- ``sweep_f32``: ``run_single_bit_sweep`` on the float model, 10x64x64x4
  images (seed 7), bits 23-31, one fault on each of 8 default-role targets
  drawn per round, ``workers=1``.
- ``multibit_q8``: ``run_multi_bit_campaign`` on ``quantize_ptq(model_b)``,
  same images, counts 1,10,50, 6 repetitions, ``workers=2``.
- ``protect_pt2``: ``evaluate_protection(model_b, protect_parameters(model_b,
  PT2))`` on 10x32x32x4 images drawn per round, ``bit_filter={30, 27}``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import seu_forge as sf
from seu_forge.faults import target_psets
from seu_forge.protect import PT_LEVELS, danger_bit

DEFAULT_SEED = 0
# Rounds per workload in reference.json, and the most rounds one run makes, so
# that every round on the default seed is checked against the reference. At
# 35 s a run holds at most 8 rounds today; 24 leaves room for a 3x faster program.
REFERENCE_ROUNDS = 24
SWEEP_TARGETS = 8
SWEEP_BITS = (23, 31)
MULTIBIT_COUNTS = (1, 10, 50)
MULTIBIT_REPETITIONS = 6
PROTECT_BITS = frozenset({30, 27})


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    trace_rounds: int     # rounds timed untraced, then again traced, with --trace 1


WORKLOADS = {w.name: w for w in (
    Workload("sweep_f32", workers=1, trace_rounds=2),
    Workload("multibit_q8", workers=2, trace_rounds=2),
    Workload("protect_pt2", workers=1, trace_rounds=1),
)}


@dataclass
class RoundResult:
    index: int
    seconds: float        # plan through report files written
    attempted: int
    evaluated: int
    failed: int
    masked: int = None    # faults leaving every class map unchanged, where the reports show it
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def record(self) -> dict:
        """The exact, run-independent part of the round."""
        return {"attempted": self.attempted, "evaluated": self.evaluated,
                "failed": self.failed, "masked": self.masked, "digests": self.digests}


def round_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def _images(size: int, seed: int):
    return sf.generate_calibration_set((size, size, 4), count=10, seed=seed,
                                       class_count=4)[0]


def base_images():
    return _images(64, 7)


def _round_trip(graph, path, tracer):
    with tracer.span("model.save_model"):
        sf.save_model(graph, path)
    with tracer.span("model.load_model"):
        return sf.load_model(path)


def setup(name: str, work_dir: str, images, tracer) -> dict:
    """Build, save and reload the model as the CLI does, then transform it."""
    with tracer.span("model.build"):
        graph = sf.generate_toy_weights(sf.build_unet(2, 8, 4, 4), 42)
    graph = _round_trip(graph, os.path.join(work_dir, "model_b.sfm"), tracer)
    ctx = {"model": graph}
    if name == "multibit_q8":
        with tracer.span("compress.quantize_ptq"):
            quantized = sf.quantize_ptq(graph, images)
        ctx["quantized"] = _round_trip(quantized, os.path.join(work_dir, "quant.sfm"), tracer)
    elif name == "protect_pt2":
        with tracer.span("protect.protect_parameters"):
            protected, report = sf.protect_parameters(graph, PT_LEVELS[2])
        ctx["protected"] = _round_trip(protected, os.path.join(work_dir, "prot.sfm"), tracer)
        ctx["report"] = report
    return ctx


def planned_faults(name: str, ctx: dict) -> int:
    if name == "sweep_f32":
        return SWEEP_TARGETS
    if name == "multibit_q8":
        return len(MULTIBIT_COUNTS) * MULTIBIT_REPETITIONS
    positions = sum(danger_bit(r.before_bits) in PROTECT_BITS for r in ctx["report"].records)
    return 2 * positions


def digests(directory: str) -> dict:
    out = {}
    for fname in sorted(os.listdir(directory)):
        with open(os.path.join(directory, fname), "rb") as f:
            out[fname] = hashlib.sha256(f.read()).hexdigest()
    return out


def _clear(directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for fname in os.listdir(directory):
        os.remove(os.path.join(directory, fname))


# ---------------------------------------------------------------------------
# rounds: each returns (seconds, evaluated, masked, problems)


def _sweep(ctx, rseed, images, out_dir, tracer, workers):
    graph = ctx["model"]
    targets = [p.index for p in target_psets(graph)]
    psets = sorted(int(i) for i in np.random.default_rng(rseed).choice(
        targets, SWEEP_TARGETS, replace=False))
    start = perf_counter()
    with tracer.span("campaign.plan"):
        plan = sf.plan_single_bit_sweep(graph, psets=psets, bits=SWEEP_BITS,
                                        injections_per_target=1, seed=rseed)
    with tracer.span("campaign.run_single_bit_sweep"):
        result = sf.run_single_bit_sweep(graph, plan, images, workers=workers)
    with tracer.span("campaign.write"):
        result.write(out_dir, stem="sweep")
    seconds = perf_counter() - start

    ok = [o for o in result.outcomes if o.evaluation_error is None]
    problems = []
    if len(result.outcomes) != SWEEP_TARGETS:
        problems.append(f"{len(result.outcomes)} outcomes for {SWEEP_TARGETS} planned faults")
    if sum(r["n"] for r in result.rows) != len(ok):
        problems.append("aggregate n does not sum to the evaluated outcomes")
    if any(not 0.0 <= o.mean_error <= 100.0 for o in ok):
        problems.append("error rate outside [0, 100]")
    return seconds, len(ok), sum(o.mean_error == 0.0 for o in ok), problems


def _multibit(ctx, rseed, images, out_dir, tracer, workers):
    start = perf_counter()
    with tracer.span("campaign.run_multi_bit_campaign"):
        result = sf.run_multi_bit_campaign(ctx["quantized"], MULTIBIT_COUNTS,
                                           MULTIBIT_REPETITIONS, rseed, images,
                                           workers=workers)
    with tracer.span("campaign.write"):
        result.write(out_dir, stem="multibit")
    seconds = perf_counter() - start

    with open(os.path.join(out_dir, "multibit_reps.json")) as f:
        reps = json.load(f)
    with open(os.path.join(out_dir, "multibit_aggregate.csv"), newline="") as f:
        means = {int(row["flip_count"]): float(row["mean_error"]) for row in csv.DictReader(f)}
    errors = [e for c in MULTIBIT_COUNTS for e in reps.get(str(c), [])]
    problems = []
    if sorted(reps) != sorted(str(c) for c in MULTIBIT_COUNTS) or any(
            len(v) != MULTIBIT_REPETITIONS for v in reps.values()):
        problems.append("repetition file does not match the plan")
    elif any(means[c] != float(np.mean(reps[str(c)])) for c in MULTIBIT_COUNTS):
        problems.append("aggregate means disagree with the repetitions")
    if any(not 0.0 <= e <= 100.0 for e in errors):
        problems.append("error rate outside [0, 100]")
    return seconds, len(errors), sum(e == 0.0 for e in errors), problems


def _protect(ctx, rseed, images, out_dir, tracer, workers):
    small = _images(32, rseed)   # fresh images each round, in place of the shared ones
    start = perf_counter()
    with tracer.span("protect.evaluate_protection"):
        ev = sf.evaluate_protection(ctx["model"], ctx["protected"], small,
                                    bit_filter=PROTECT_BITS)
    with tracer.span("campaign.write"):
        ev.write_json(os.path.join(out_dir, "protection_eval.json"))
    seconds = perf_counter() - start

    rates = [row[tag]["error_rate"] for row in ev.per_bit for tag in ("original", "protected")]
    problems = []
    if {row["bit"] for row in ev.per_bit} - PROTECT_BITS:
        problems.append("per-bit rows outside the bit filter")
    if any(not 0.0 <= e <= 100.0 for e in rates):
        problems.append("error rate outside [0, 100]")
    return seconds, 2 * sum(row["n"] for row in ev.per_bit), None, problems


_ROUNDS = {"sweep_f32": _sweep, "multibit_q8": _multibit, "protect_pt2": _protect}


def run_round(name: str, ctx: dict, seed: int, index: int, images, out_dir: str,
              tracer, workers: int = None) -> RoundResult:
    """One campaign call. A call that raises fails all of its planned faults."""
    _clear(out_dir)
    planned = planned_faults(name, ctx)
    workers = WORKLOADS[name].workers if workers is None else workers
    start = perf_counter()
    try:
        seconds, evaluated, masked, problems = _ROUNDS[name](
            ctx, round_seed(seed, index), images, out_dir, tracer, workers)
    except Exception:
        traceback.print_exc()
        return RoundResult(index, perf_counter() - start, planned, 0, planned,
                           digests=digests(out_dir))
    if evaluated > planned:
        problems.append(f"{evaluated} faults evaluated of {planned} planned")
    return RoundResult(index, seconds, planned, evaluated, planned - evaluated,
                       masked, digests(out_dir), problems)
