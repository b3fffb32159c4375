"""Statistically sized fault campaigns and their evaluation metrics.

Campaign determinism contract: the fault list is generated serially from the
plan seed, evaluation may be distributed over workers (each owning a private
parameter copy), and aggregation is order-independent, so reports are
byte-identical for any worker count.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import reports
from .engine import (Frontier, _walk, channel_chain, finish, poisoned, reaching_output,
                     run_channels, run_float, run_quantized)
# apply_fault, revert and inject_and_measure are not called here; they stay
# importable from this module, whose names perfbench's tracer rebinds.
from .faults import (FaultOutcome, apply_fault, decode_fault, fault_at,  # noqa: F401
                     fault_space, inject_and_measure, revert, target_psets,
                     with_faults)
from .model import ModelGraph, batch_inputs, infer_shapes
from .tensor import INVALID_CLASS, ShapeError, Tensor

# ---------------------------------------------------------------------------
# sample sizing (statistical fault injection)


def sample_size(N: int, e: float, t: float, p: float) -> int:
    """Minimum injections for a statistically significant campaign.

    n = N / (1 + e^2 * (N-1) / (t^2 * p * (1-p))), rounded up, clamped to N.
    """
    if N < 1:
        raise ValueError(f"fault space size N must be >= 1, got {N}")
    _check_sizing(e, t, p)
    n = N / (1.0 + e * e * (N - 1) / (t * t * p * (1.0 - p)))
    return min(N, max(1, math.ceil(n)))


def _check_sizing(e: float, t: float, p: float) -> None:
    """ValueError unless ``sample_size`` can size a campaign with margin
    ``e``, cut-off ``t`` and prior ``p``."""
    if not 0 < e < 1:
        raise ValueError(f"error margin e must be in (0, 1), got {e}")
    if t <= 0:
        raise ValueError(f"confidence cut-off t must be positive, got {t}")
    if not 0 < p < 1:
        raise ValueError(f"prior p must be in (0, 1), got {p}")


# ---------------------------------------------------------------------------
# error rate and segmentation metrics


def error_rate(golden: np.ndarray, faulty: np.ndarray) -> float:
    """Percent of pixels whose predicted class differs from the golden map.

    INVALID (NaN-poisoned) pixels mismatch everything, including INVALID.
    """
    golden = np.asarray(golden)
    faulty = np.asarray(faulty)
    if golden.shape != faulty.shape:
        raise ShapeError(f"class map shapes differ: {golden.shape} vs {faulty.shape}")
    mismatch = (golden != faulty) | (golden == INVALID_CLASS) | (faulty == INVALID_CLASS)
    return 100.0 * float(mismatch.sum()) / mismatch.size


@dataclass
class MetricBundle:
    """Per-class and aggregate segmentation metrics, all in percent.

    "Global" is the micro-average over pixels; "Weighted" is the
    label-frequency-weighted mean of the per-class metrics. Vacuous
    denominators (class absent and never predicted) score 100.
    """

    per_class_recall: list
    per_class_precision: list
    per_class_iou: list
    global_recall: float
    global_precision: float
    global_iou: float
    weighted_recall: float
    weighted_precision: float
    weighted_iou: float


def segmentation_metrics(prediction: np.ndarray, labels: np.ndarray,
                         class_count: int) -> MetricBundle:
    prediction = np.asarray(prediction)
    labels = np.asarray(labels)
    if prediction.shape != labels.shape:
        raise ShapeError(f"prediction/label shapes differ: {prediction.shape} vs {labels.shape}")
    if labels.min() < 0 or labels.max() >= class_count:
        raise ValueError(f"label map contains class outside [0, {class_count})")

    pred = prediction.ravel()
    lab = labels.ravel()
    valid = (pred >= 0) & (pred < class_count)
    # confusion[i, j]: label i predicted as j; INVALID predictions live in an
    # extra per-row "invalid" count so recall denominators stay exact. Pair
    # (i, j) is counted at i * C + j.
    conf = np.bincount(lab[valid].astype(np.int64) * class_count + pred[valid],
                       minlength=class_count * class_count).reshape(class_count, class_count)
    invalid_per_label = np.bincount(lab[~valid], minlength=class_count).astype(np.int64)

    tp = np.diag(conf).astype(np.float64)
    label_totals = conf.sum(axis=1) + invalid_per_label
    pred_totals = conf.sum(axis=0)
    fn = label_totals - tp
    fp = pred_totals - tp

    def safe(num, den):
        return np.where(den > 0, 100.0 * num / np.maximum(den, 1), 100.0)

    recall = safe(tp, tp + fn)
    precision = safe(tp, tp + fp)
    iou = safe(tp, tp + fn + fp)

    total = lab.size
    correct = tp.sum()
    g_acc = 100.0 * correct / total
    g_iou = 100.0 * correct / (correct + fn.sum() + fp.sum())

    weights = label_totals / total
    return MetricBundle(
        per_class_recall=[float(x) for x in recall],
        per_class_precision=[float(x) for x in precision],
        per_class_iou=[float(x) for x in iou],
        global_recall=float(g_acc),
        global_precision=float(100.0 * correct / max(correct + fp.sum(), 1)),
        global_iou=float(g_iou),
        weighted_recall=float(np.dot(weights, recall)),
        weighted_precision=float(np.dot(weights, precision)),
        weighted_iou=float(np.dot(weights, iou)),
    )


# ---------------------------------------------------------------------------
# analytic predictors (output-conv bit-30 / sign-bit error rates)


def golden_class_shares(class_maps, class_count: int) -> np.ndarray:
    """Percent of pixels per class, pooled over the golden maps."""
    counts = np.zeros(class_count, dtype=np.int64)
    total = 0
    for m in class_maps:
        m = np.asarray(m)
        counts += np.bincount(m[m >= 0].ravel(), minlength=class_count)[:class_count]
        total += m.size
    return 100.0 * counts / total


def _bias_addends(output_bias_signs, class_shares, floods_positive: bool) -> np.ndarray:
    """Per-class error addends of a flip in output bias j: 100 - share_j where
    it floods class j (a positive bias if ``floods_positive``, else a
    non-positive one), share_j where it suppresses it."""
    signs = np.asarray(output_bias_signs, dtype=np.float64)
    shares = np.asarray(class_shares, dtype=np.float64)
    if signs.shape != shares.shape:
        raise ValueError(f"got {signs.size} signs but {shares.size} class shares")
    return np.where((signs > 0) == floods_positive, 100.0 - shares, shares)


def predict_bit30_error(output_bias_signs, class_shares) -> float:
    """Expected error rate of a bit-30 flip in a uniformly chosen output bias.

    A flip in a negative bias suppresses its class (the class-j pixels
    change: share_j); in a positive bias the class floods the map (everything
    else changes: 100 - share_j). The estimate is the mean per-class addend.
    """
    return float(_bias_addends(output_bias_signs, class_shares, floods_positive=True).mean())


@dataclass
class SignBitPrediction:
    estimate: float
    per_class: list
    high_variance: bool = True  # few biases + unbalanced terms; see report notes


def predict_sign_bit_error_quantized(output_bias_signs, class_shares) -> SignBitPrediction:
    """Sign-bit analogue: mechanisms invert, so addends are the complements
    of the bit-30 case (negative bias -> class floods -> 100 - share)."""
    addends = _bias_addends(output_bias_signs, class_shares, floods_positive=False)
    return SignBitPrediction(float(addends.mean()), [float(a) for a in addends])


def weighted_bit_error(per_bit_rates: dict) -> float:
    """Single figure from per-bit rates: linear weights w_b ~ (b - lo + 1)
    over the covered range, normalized to sum 1."""
    if not per_bit_rates:
        raise ValueError("no per-bit rates given")
    lo = min(per_bit_rates)
    weights = {b: (b - lo + 1) for b in per_bit_rates}
    total = sum(weights.values())
    return sum(weights[b] * r for b, r in per_bit_rates.items()) / total


# ---------------------------------------------------------------------------
# campaign plans


@dataclass
class CampaignPlan:
    mode: str                    # "single_bit_sweep" | "multi_bit_random"
    seed: int
    targets: list = field(default_factory=list)   # pset indices
    bit_lo: int = 0
    bit_hi: int = 31
    injections_per_target: int = None             # explicit n; else statistical sizing
    margin: float = 0.025
    z_value: float = 1.96
    prior: float = 0.5
    image_set_id: str = ""
    counts: list = None                           # multi-bit flip counts
    repetitions: int = None

    def to_json(self) -> str:
        return json.dumps({k: getattr(self, k) for k in self.__dataclass_fields__},
                          sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignPlan":
        return cls(**json.loads(text))


def _check_sweep(graph: ModelGraph, plan: CampaignPlan) -> list:
    """The parameter sets a single-bit sweep ``plan`` targets in ``graph``.

    Refuses a plan of another mode, with no target, a negative or empty bit
    range, a bit beyond a target's width, fewer than one injection per
    target or a margin, cut-off or prior that ``sample_size`` refuses (the
    plan records them even where an explicit injection count leaves them
    unused), however the plan was made.
    """
    if plan.mode != "single_bit_sweep":
        raise ValueError(f"plan mode {plan.mode!r} is not a single-bit sweep")
    targets = [graph.param(i) for i in plan.targets]
    if not targets:
        raise ValueError("sweep plan selects no parameter sets")
    lo, hi, n = plan.bit_lo, plan.bit_hi, plan.injections_per_target
    if lo < 0:
        raise ValueError(f"bit {lo} is negative; bits are numbered from 0")
    if n is not None and n < 1:
        raise ValueError(f"injections per target must be >= 1, got {n}")
    _check_sizing(plan.margin, plan.z_value, plan.prior)
    if lo > hi:
        raise ValueError(f"empty bit range [{lo}, {hi}]")
    for p in targets:
        if hi >= p.width:
            raise ValueError(
                f"bit range [{lo}-{hi}] exceeds p{p.index} ({p.tensor.encoding}, "
                f"{p.width} bits); restrict --bits to 0..{p.width - 1} or retarget")
    return targets


def plan_single_bit_sweep(graph: ModelGraph, *, roles=None, psets=None,
                          bits=(0, 31), injections_per_target=None,
                          margin=0.025, z_value=1.96, prior=0.5,
                          seed=0, image_set_id="") -> CampaignPlan:
    plan = CampaignPlan(mode="single_bit_sweep", seed=int(seed),
                        targets=[p.index for p in target_psets(graph, roles, psets)],
                        bit_lo=int(bits[0]), bit_hi=int(bits[1]),
                        injections_per_target=injections_per_target,
                        margin=margin, z_value=z_value, prior=prior,
                        image_set_id=image_set_id)
    _check_sweep(graph, plan)
    return plan


def _flip_counts(counts) -> list:
    """``counts`` as ints; refuses a negative or repeated count, which would
    silently replace the earlier count's repetitions."""
    counts = [int(c) for c in counts]
    if any(c < 0 for c in counts):
        raise ValueError("flip counts must be non-negative")
    repeated = sorted({c for c in counts if counts.count(c) > 1})
    if repeated:
        raise ValueError(f"flip count {repeated[0]} is repeated in {counts}; "
                         "give each count once")
    return counts


def plan_multi_bit_campaign(graph: ModelGraph, counts, repetitions: int,
                            seed: int = 0, image_set_id: str = "") -> CampaignPlan:
    counts = _flip_counts(counts)
    if not counts:
        raise ValueError("flip counts must be a non-empty list of non-negative ints")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    return CampaignPlan(mode="multi_bit_random", seed=int(seed),
                        targets=[p.index for p in graph.params],
                        counts=counts, repetitions=int(repetitions),
                        image_set_id=image_set_id)


def generate_sweep_faults(graph: ModelGraph, plan: CampaignPlan):
    """Serial, seed-deterministic fault list (without replacement per target)."""
    targets = _check_sweep(graph, plan)
    rng = np.random.Generator(np.random.PCG64(plan.seed))
    specs = []
    for p in targets:
        space, size = fault_space([p], (plan.bit_lo, plan.bit_hi))
        n = plan.injections_per_target
        if n is None:
            n = sample_size(size, plan.margin, plan.z_value, plan.prior)
        chosen = rng.choice(size, size=min(n, size), replace=False)
        chosen.sort()
        for flat in chosen:
            specs.append(replace(fault_at(space, int(flat)), seed_ordinal=len(specs)))
    return specs


# ---------------------------------------------------------------------------
# execution


MASKED, POISONED, RESUMED, FAILED = "masked", "poisoned", "resumed", "failed"


@dataclass(frozen=True)
class Exit:
    """How one fault set's faulted forward ended, and at which layer: masked
    or poisoned at the end E of its first faulted layer's channel chain (see
    ``_chain_exit``), resumed at the first layer it reran (at E where it
    reran none), with its class ``maps``, or failed at its first faulted
    layer, with ``error`` "{type}: {message}"."""

    kind: str
    layer: str
    maps: np.ndarray = None
    error: str = None

    def class_maps(self, golden: np.ndarray) -> np.ndarray:
        """The faulted class maps of an exit that did not fail, from the faultless ones."""
        if self.kind == MASKED:
            return golden
        if self.kind == POISONED:
            return np.full_like(golden, INVALID_CLASS)
        return self.maps


def _values(activation) -> np.ndarray:
    return activation.data if isinstance(activation, Tensor) else activation


def _chain_exit(graph: ModelGraph, chain: list, channels: np.ndarray, later: bool, source,
                after: Frontier, reach: set) -> Exit:
    """The exit of the faulted ``graph`` at ``after``, the faultless pass's
    frontier just after the chain L..E of its first faulted layer L.

    ``channels`` (D, see ``_fault_plan``) are the only channels of E that
    can differ from the faultless pass; ``later`` says whether a fault lies
    after E, ``source`` is L's faultless input and ``reach`` names the
    activations with a path to the output layer. With D empty or E unread
    (then not live after E) the set is masked, or resumes from ``after``
    with later faults. Otherwise D is recomputed (``engine.run_channels``):

    - masked: without later faults, if D's bytes equal D of the faultless
      E, every layer after E reads only faultless activations and
      parameters, so the maps are the graph's faultless maps;
    - poisoned (float): if E reaches the output and one of D is NaN at
      every position, every pixel is INVALID_CLASS (``engine.poisoned``),
      later faults or not: such a channel stays NaN through every float op;
    - otherwise the forward resumes just after E, from ``after``'s live set
      with D replaced in a copy of E.

    Each exit gives the class maps a full forward gives, bit for bit.
    """
    end = chain[-1].name
    if channels.size and end in after.live:
        faulty = run_channels(graph, chain, source, channels)
        if not later and (_values(after.live[end])[..., channels].tobytes()
                          == _values(faulty).tobytes()):
            return Exit(MASKED, end)
        if end in reach and poisoned(_values(faulty)):
            return Exit(POISONED, end)
        after = Frontier(after.start, {**after.live,
                                       end: _with_channels(after.live[end], channels, faulty)})
    elif not later:
        return Exit(MASKED, end)
    layer = graph.layers[after.start].name if after.start < len(graph.layers) else end
    return Exit(RESUMED, layer, _forward_maps(graph, after))


def _with_channels(activation, channels, values):
    """A copy of ``activation``, in its memory layout, with its channels
    ``channels`` set to ``values``."""
    out = _values(activation).copy(order="K")
    out[..., channels] = _values(values)
    if isinstance(activation, Tensor):
        return Tensor(activation.shape, activation.encoding, out)
    return out


def _forward_maps(graph: ModelGraph, inp) -> np.ndarray:
    """Class maps of a forward pass from an input batch or a golden :class:`Frontier`."""
    if graph.flags.get("quantized"):
        return run_quantized(graph, inp).class_map
    return run_float(graph, inp).class_map


def _errors(golden: np.ndarray, maps: np.ndarray) -> list:
    """Per-image error rates of ``maps`` against the faultless ``golden`` maps."""
    return [error_rate(golden[i], maps[i]) for i in range(maps.shape[0])]


def _fault_plan(graph: ModelGraph, specs, layer_index: dict):
    """(L, chain, D, later): where fault set ``specs`` is measured.

    L is the index of the first layer that reads a parameter ``specs``
    flips; every layer op reads only its own layer's parameters, so no
    activation before L can change. ``chain`` is L..E (``engine.channel_chain``),
    D the sorted channels of E that specs inside the chain flip and
    ``later`` whether a spec lies after E. Channel c owns kernel[..., c]
    (element % Cout) and bias[c] or a batch-norm vector's entry c
    (element % C). A set naming an unknown parameter set plans at layer 0,
    where applying it fails as it would anyway.
    """
    try:
        params = [graph.param(s.pset) for s in specs]
    except KeyError:
        params = []
    owners = [(layer_index[p.layer], s.element % p.tensor.shape[-1])  # (layer, channel)
              for s, p in zip(specs, params)]
    start = min((i for i, _ in owners), default=0)
    chain = channel_chain(graph, start)
    end = start + len(chain)
    channels = sorted({c for i, c in owners if i < end})
    return start, chain, np.array(channels, dtype=int), any(i >= end for i, _ in owners)


def _fault_loop(graph: ModelGraph, batch: Tensor, fault_sets):
    """Each fault set's :class:`Exit` on a copy of ``graph``, in the order of
    ``fault_sets``, and the graph's faultless class maps.

    The copy's faultless pass is walked once, through the output layer,
    whose class maps are the faultless ones. Each set is applied, its exit
    taken (``_chain_exit``) and the set reverted at the frontier just after
    the chain L..E of its first faulted layer L (``_fault_plan``), with L's
    faultless input held until then; a set that raises is recorded as failed.
    """
    work = graph.copy()
    index = {layer.name: i for i, layer in enumerate(work.layers)}
    reach = reaching_output(work)
    plans = [_fault_plan(work, specs, index) for specs in fault_sets]
    exits = [None] * len(fault_sets)
    sources = [None] * len(fault_sets)  # each set's L input, from L's frontier to its exit
    for frontier in _walk(work, batch):
        for i, (start, chain, channels, later) in enumerate(plans):
            if start == frontier.start:
                sources[i] = frontier.live[work.layers[start].inputs[0]]
            elif start + len(chain) == frontier.start:
                try:
                    exits[i] = with_faults(work, fault_sets[i], lambda g: _chain_exit(
                        g, chain, channels, later, sources[i], frontier, reach))
                except Exception as exc:  # recorded, not fatal
                    exits[i] = Exit(FAILED, work.layers[start].name,
                                    error=f"{type(exc).__name__}: {exc}")
                sources[i] = None
    return exits, finish(work, frontier.live).class_map


def _score_chunk(args):
    """Each graph's faultless score and, for each fault set, one pair per
    graph: (``score(golden, maps)``, None), or (None, failure message) for a
    set that failed. ``golden`` is the first graph's faultless class maps and
    ``maps`` the graph's faultless or faulted ones; each walk's exits are
    scored before the next walk starts. A walk's masked exits share one
    class map, its faultless one, whose score they share; its poisoned exits
    share one too, scored at the first of them. No reader changes a score."""
    graphs, fault_sets, batch, score = args
    golden, faultless, scored = None, [], []
    for graph in graphs:
        exits, own = _fault_loop(graph, batch, fault_sets)
        golden = own if golden is None else golden
        faultless.append(score(golden, own))
        shared = {}  # exit kind -> score, for the masked and poisoned kinds
        pairs = []
        for ex in exits:
            if ex.kind == FAILED:
                pairs.append((None, ex.error))
            elif ex.kind == RESUMED:
                pairs.append((score(golden, ex.maps), None))
            else:
                if ex.kind not in shared:
                    maps = ex.class_maps(own)
                    shared[ex.kind] = faultless[-1] if maps is own else score(golden, maps)
                pairs.append((shared[ex.kind], None))
        scored.append(pairs)
    return faultless, list(zip(*scored))


def run_fault_sets(graphs, fault_sets, batch: Tensor, score, workers: int = 1):
    """Each of ``graphs``' faultless score and, for each fault set in plan
    order, one (value, error) pair per graph (see ``_score_chunk``).

    The sets are dealt with ``_chunks``, one job per chunk; without sets one
    job runs, whose walks still give the faultless scores. At most one worker
    per available CPU runs the jobs (``_run_chunks``); ``score`` must pickle,
    as jobs go to worker processes. Every graph takes the same fault sets,
    so a graph whose parameter table (the index, role, shape and encoding
    of each set) differs from the first graph's is refused.
    """
    table = _param_table(graphs[0])
    for graph in graphs[1:]:
        for ours, theirs in itertools.zip_longest(table, _param_table(graph)):
            if ours != theirs:
                raise ValueError(f"graphs cannot be paired: their parameter tables differ "
                                 f"at p{(ours or theirs)[0]} ({ours} vs {theirs})")
    workers = max(1, min(workers, _available_cpus()))
    chunks = _chunks(graphs[0], batch, fault_sets, workers) or [[]]
    parts = _run_chunks(_score_chunk, [(graphs, chunk, batch, score) for chunk in chunks],
                        workers)
    return parts[0][0], _in_plan_order([pairs for _, pairs in parts])


def _param_table(graph: ModelGraph) -> list:
    """(index, role, shape, encoding) of each of ``graph``'s parameter sets, in order."""
    return [(p.index, p.role, p.tensor.shape, p.tensor.encoding) for p in graph.params]


def fault_outcomes(graph: ModelGraph, specs, batch: Tensor, workers: int = 1) -> list:
    """The :class:`FaultOutcome` of every single fault ``specs`` names, in their order."""
    _, pairs = run_fault_sets([graph], [[s] for s in specs], batch, _errors, workers)
    outcomes = []
    for spec, ((errors, failure),) in zip(specs, pairs):
        if failure is not None:
            outcomes.append(FaultOutcome(spec, 0, 0, math.nan, math.nan, evaluation_error=failure))
            continue
        outcome = decode_fault(graph, spec)
        outcome.per_image_error = list(errors)  # exits of one kind share ``errors``
        outcome.mean_error = float(np.mean(errors))
        outcomes.append(outcome)
    return outcomes


def _available_cpus() -> int:
    """The CPUs this process may run on (all of them where the platform
    cannot say which)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


def _run_chunks(worker, jobs, workers: int):
    if workers <= 1 or len(jobs) <= 1:
        return [worker(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs)),
                             mp_context=_pool_context()) as ex:
        return list(ex.map(worker, jobs))


def _pool_context():
    """Where pool workers come from: the forkserver (``_forkserver``) where
    the platform has one, else spawn, whose workers import numpy and
    seu_forge afresh. Either way the pools share the resource tracker."""
    from multiprocessing import resource_tracker
    _stop_at_exit(resource_tracker._resource_tracker)
    if "forkserver" in multiprocessing.get_all_start_methods():
        return _forkserver()
    return multiprocessing.get_context("spawn")


@functools.cache
def _forkserver():
    """The forkserver context, set up when the first pool is made.

    The server, started with that pool's first worker, imports numpy and
    seu_forge once and forks every later worker from itself, so a worker
    starts in milliseconds. (It finds seu_forge on its environment's path,
    not on this process's ``sys.path``; where it does not, each worker
    imports it.)
    """
    ctx = multiprocessing.get_context("forkserver")
    ctx.set_forkserver_preload(["numpy", "seu_forge"])
    from multiprocessing import forkserver
    _stop_at_exit(forkserver._forkserver)
    return ctx


@functools.cache
def _stop_at_exit(helper):
    """Stop multiprocessing's ``helper`` process (resource tracker or
    forkserver) at exit, the last registered first. It would otherwise
    outlive this interpreter until it sees its alive pipe close, and stay a
    zombie where nothing reaps orphans; ``_stop`` closes the pipe and waits."""
    stop = getattr(helper, "_stop", None)
    if stop is not None:
        atexit.register(stop)


def _deal(items, workers: int) -> list:
    """``items`` dealt in turn to at most ``workers`` chunks, so every chunk
    holds a share of each stretch of the plan (at a multi-bit campaign,
    repetitions of every flip count, whose costs differ widely)."""
    k = max(1, min(workers, len(items)))
    return [items[w::k] for w in range(k)] if items else []


# Resumed exits hold their class maps until their chunk's walk has ended;
# campaigns deal their fault sets to enough chunks that no walk holds more
# than this many bytes of them.
HELD_MAPS_BYTES = 16 << 20


def _chunks(graph: ModelGraph, batch: Tensor, items, workers: int) -> list:
    """``items`` dealt (``_deal``) to ``workers`` chunks, or to more where a
    chunk would otherwise hold over HELD_MAPS_BYTES of resumed class maps."""
    n, h, w, _ = infer_shapes(graph, batch.shape[1], batch.shape[2],
                              batch.shape[0])[graph.output_layer.name]
    per_chunk = max(1, HELD_MAPS_BYTES // (n * h * w * np.dtype(np.int32).itemsize))
    return _deal(items, max(workers, -(-len(items) // per_chunk)))


def _in_plan_order(parts) -> list:
    """The per-chunk results of ``_deal``'s chunks, back in the order of its items."""
    out = [None] * sum(len(part) for part in parts)
    for w, part in enumerate(parts):
        out[w::len(parts)] = part
    return out


@dataclass
class SweepResult:
    plan: CampaignPlan
    rows: list          # sweep_rows(outcomes)
    outcomes: list

    def write(self, directory, stem="sweep"):
        os.makedirs(directory, exist_ok=True)
        reports.write_lines(os.path.join(directory, f"{stem}_plan.json"),
                            [self.plan.to_json()])
        reports.write_lines(os.path.join(directory, f"{stem}_outcomes.jsonl"),
                            (o.to_json() for o in self.outcomes))
        reports.write_csv(os.path.join(directory, f"{stem}_aggregate.csv"),
                          SWEEP_COLUMNS, [sweep_cells(r) for r in self.rows])


SWEEP_COLUMNS = ["pset", "bit", "n", "mean_error", "nan_count", "inf_count"]


def sweep_cells(row) -> list:
    """A :func:`sweep_rows` row as the cells of SWEEP_COLUMNS, mean_error as its repr."""
    return [repr(row[k]) if k == "mean_error" else row[k] for k in SWEEP_COLUMNS]


def sweep_rows(outcomes) -> list:
    """One row per (pset, bit) of ``outcomes``, in that order: ``n`` evaluated
    outcomes, their mean error (None without any) and NaN and Inf counts.

    ``nan_count`` and ``inf_count`` count the evaluated faults whose flipped
    parameter value is NaN or Inf (``FaultOutcome.produced_nan`` and
    ``produced_inf``), not the faults whose output turned NaN; those show
    in the mean error, as invalid pixels."""
    grouped = {}
    for o in outcomes:
        grouped.setdefault((o.spec.pset, o.spec.bit), []).append(o)
    rows = []
    for (pset, bit) in sorted(grouped):
        evaluated = [o for o in grouped[(pset, bit)] if o.evaluation_error is None]
        rows.append({"pset": pset, "bit": bit, "n": len(evaluated),
                     "mean_error": (float(np.mean([o.mean_error for o in evaluated]))
                                    if evaluated else None),
                     "nan_count": sum(o.produced_nan for o in evaluated),
                     "inf_count": sum(o.produced_inf for o in evaluated)})
    return rows


def run_single_bit_sweep(graph: ModelGraph, plan: CampaignPlan, images,
                         workers: int = 1) -> SweepResult:
    """Apply/evaluate/revert every planned fault; aggregate per (pset, bit)."""
    outcomes = fault_outcomes(graph, generate_sweep_faults(graph, plan),
                              batch_inputs(images), workers)
    return SweepResult(plan, sweep_rows(outcomes), outcomes)


def role_bit_means(graph: ModelGraph, result: SweepResult, bit: int) -> dict:
    """Mean error per role at one bit position (over that role's evaluated outcomes)."""
    by_role = {}
    for o in result.outcomes:
        if o.spec.bit != bit or o.evaluation_error is not None:
            continue
        role = graph.param(o.spec.pset).role
        by_role.setdefault(role, []).append(o.mean_error)
    return {role: (float(np.mean(v)), float(np.std(v)), len(v))
            for role, v in by_role.items()}


@dataclass
class MultiBitResult:
    counts: list
    means: list
    stds: list
    per_rep_errors: dict    # count -> mean errors of the repetitions evaluated
    plan: CampaignPlan
    failed: list = field(default_factory=list)  # {flip_count, repetition, error}

    def write(self, directory, stem="multibit"):
        os.makedirs(directory, exist_ok=True)
        reports.write_lines(os.path.join(directory, f"{stem}_plan.json"),
                            [self.plan.to_json()])
        reports.write_csv(os.path.join(directory, f"{stem}_aggregate.csv"),
                          ["flip_count", "repetitions", "mean_error", "std_error"],
                          [[c, len(self.per_rep_errors[c]), repr(m), repr(s)]
                           for c, m, s in zip(self.counts, self.means, self.stds)])
        reps = {str(k): v for k, v in self.per_rep_errors.items()}
        if self.failed:
            reps["failed"] = self.failed
        reports.write_compact_json(os.path.join(directory, f"{stem}_reps.json"), reps)


def run_multi_bit_campaign(graph: ModelGraph, counts, repetitions: int, seed: int,
                           images, workers: int = 1) -> MultiBitResult:
    """Random MBU campaign over the whole parameter fault space."""
    plan = plan_multi_bit_campaign(graph, counts, repetitions, seed)
    counts, repetitions = plan.counts, plan.repetitions
    space, size = fault_space(graph.params)
    too_big = [c for c in counts if c > size]
    if too_big:
        raise ValueError(f"flip count {max(too_big)} exceeds fault space of {size} bits")

    rng = np.random.Generator(np.random.PCG64(plan.seed))
    reps = [[fault_at(space, int(i)) for i in rng.choice(size, size=c, replace=False)]
            if c else [] for c in counts for _ in range(repetitions)]

    # One pool for the whole campaign: every repetition of every count is
    # dealt to the workers at once, then regrouped by count in plan order.
    # A failed repetition is left out of its count's errors and recorded.
    _, pairs = run_fault_sets([graph], reps, batch_inputs(images), _errors, workers)
    per_rep, failed = {}, []
    for k, c in enumerate(counts):
        mine = [pair for pair, in pairs[k * repetitions:(k + 1) * repetitions]]
        per_rep[c] = [float(np.mean(e)) for e, error in mine if error is None]
        failed += [{"flip_count": c, "repetition": r, "error": error}
                   for r, (_, error) in enumerate(mine) if error is not None]
    means = [float(np.mean(per_rep[c])) if per_rep[c] else None for c in counts]
    stds = [float(np.std(per_rep[c])) if per_rep[c] else None for c in counts]
    return MultiBitResult(counts, means, stds, per_rep, plan, failed)
