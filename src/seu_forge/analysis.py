"""Diagnostic lenses over a model: sign censuses, risky-exponent scans,
quantized bit-width tables, calibration reports and their statistics (the
activations recorded through the executor's ``record`` hook), correlation summaries.

"Risky" is the rule of ``bits.RISKY``: one bit-flip away from a filled
(partial) exponent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bits, reports
from .engine import _execute
from .model import ModelGraph, batch_inputs

POSITIVE_RATIO_ROLES = ("conv_bias", "bn_beta", "convtr_bias")


def positive_ratio_table(graph: ModelGraph, roles=POSITIVE_RATIO_ROLES) -> list:
    """Exact sign census per parameter set (zero counts as non-positive)."""
    rows = []
    for p in graph.params_of(roles=roles):
        v = p.data
        pos = int((v > 0).sum())
        rows.append({"pset": p.index, "layer": p.layer, "role": p.role,
                     "positive": pos, "total": int(v.size),
                     "percent": 100.0 * pos / v.size})
    return rows


def risky_exponent_scan(graph: ModelGraph) -> list:
    """Classify every f32 parameter's exponent state.

    Per set: counts of full-exponent-minus-one (01111111) and the other
    risky (partial) states, the risky states protection may not move in
    either direction, and the separately flagged 10000000 state.
    """
    rows = []
    for p in graph.params:
        if p.encoding != "f32":
            continue
        exp = bits.exponent_fields(p.words)
        full = exp == 0x7F
        partial = bits.RISKY[exp] & ~full
        nonprot = bits.RISKY[exp] & ~bits.MAY_INCREMENT[exp] & ~bits.MAY_DECREMENT[exp]
        rows.append({
            "pset": p.index, "layer": p.layer, "role": p.role,
            "total": int(p.data.size),
            "full_risky": int(full.sum()),
            "partial_risky": int(partial.sum()),
            "non_protectable": int(nonprot.sum()),
            "exp_0x80": int((exp == 0x80).sum()),
        })
    return rows


def risky_pattern_count(graph: ModelGraph) -> int:
    """Total risky parameters (full + partial states) over the whole graph."""
    return sum(r["full_risky"] + r["partial_risky"] for r in risky_exponent_scan(graph))


def bits_needed_table(graph: ModelGraph) -> list:
    """Minimal two's-complement widths for each quantized set's extremes."""
    if not graph.flags.get("quantized"):
        raise ValueError("bits_needed_table takes a quantized graph")
    rows = []
    for p in graph.params:
        if p.encoding not in ("i8", "i32"):
            continue
        v = p.data
        pos = v[v > 0]
        neg = v[v < 0]
        rows.append({
            "pset": p.index, "layer": p.layer, "role": p.role,
            "positive_bits": bits.twos_complement_width(int(pos.max())) if pos.size else None,
            "negative_bits": bits.twos_complement_width(int(neg.min())) if neg.size else None,
        })
    return rows


# ---------------------------------------------------------------------------
# calibration statistics

HIST_BINS = 64
# Fixed log-spaced magnitude bin edges shared by all histograms, so reports
# from different runs are directly comparable.
HIST_EDGES = np.logspace(-12.0, 12.0, HIST_BINS + 1)


def magnitude_histogram(values: np.ndarray) -> dict:
    """64 log-spaced magnitude bins split by sign, plus zero/NaN/Inf counts."""
    v = np.asarray(values).ravel().astype(np.float64)
    nan = int(np.isnan(v).sum())
    inf = int(np.isinf(v).sum())
    finite = v[np.isfinite(v)]
    zeros = int((finite == 0).sum())
    out = {"zeros": zeros, "nan": nan, "inf": inf}
    for label, part in (("neg", finite[finite < 0]), ("pos", finite[finite > 0])):
        idx = np.digitize(np.abs(part), HIST_EDGES) - 1
        idx = np.clip(idx, 0, HIST_BINS - 1)
        out[label] = np.bincount(idx, minlength=HIST_BINS).astype(int).tolist()
    return out


@dataclass
class LayerStats:
    """Observed statistics of one recorded activation."""

    min: float
    max: float
    nan_count: int
    inf_count: int
    histogram: dict

    @classmethod
    def of(cls, values: np.ndarray) -> "LayerStats":
        """Min and max of the finite ``values`` (None without any), NaN and Inf
        counts and the magnitude histogram."""
        finite = values[np.isfinite(values)]
        return cls(float(finite.min()) if finite.size else None,
                   float(finite.max()) if finite.size else None,
                   int(np.isnan(values).sum()), int(np.isinf(values).sum()),
                   magnitude_histogram(values))

    def to_dict(self) -> dict:
        return {"min": self.min, "max": self.max, "nan_count": self.nan_count,
                "inf_count": self.inf_count, "histogram": self.histogram}


def capture_parameter_stats(graph: ModelGraph) -> dict:
    """Exact per-ParamSet min/max/histogram and sign census."""
    stats = {}
    for p in graph.params:
        v = p.data
        st = LayerStats.of(v)
        stats[p.index] = {
            "layer": p.layer,
            "role": p.role,
            "encoding": p.encoding,
            "min": st.min,
            "max": st.max,
            "positive": int((v > 0).sum()),
            "total": int(v.size),
            "histogram": st.histogram,
        }
    return stats


def calibration_report(graph: ModelGraph, inputs) -> dict:
    """Parameter ranges plus activation ranges/histograms over an input set."""
    if graph.flags.get("quantized"):
        raise ValueError("graph is quantized; calibration reports run in float")
    activations = {}

    def record(name, values):
        activations[name] = LayerStats.of(values)

    _execute(graph, batch_inputs(inputs), record=record)
    return {
        "parameters": capture_parameter_stats(graph),
        "activations": {name: st.to_dict() for name, st in activations.items()},
        "images": len(inputs),
    }


def correlate(series_a, series_b) -> float:
    """Pearson correlation; rejects short or constant series."""
    a = np.asarray(series_a, dtype=np.float64)
    b = np.asarray(series_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"series must be 1-d and equal length, got {a.shape} vs {b.shape}")
    if a.size < 2:
        raise ValueError("need at least two points")
    if np.ptp(a) == 0 or np.ptp(b) == 0:
        raise ValueError("constant series have undefined correlation")
    return float(np.corrcoef(a, b)[0, 1])


# ---------------------------------------------------------------------------
# table writers (CSV with the Name / Pos. / Total / % vocabulary)


def write_positive_ratio_csv(rows, path):
    reports.write_csv(path, ["Name", "Pos.", "Total", "%", "pset", "role"],
                      [[r["layer"], r["positive"], r["total"], f"{r['percent']:.2f}",
                        r["pset"], r["role"]] for r in rows])


def write_risky_scan_csv(rows, path):
    reports.write_csv(path, ["Name", "pset", "role", "Total", "FullRisky", "PartialRisky",
                             "NonProtectable", "Exp0x80"],
                      [[r["layer"], r["pset"], r["role"], r["total"], r["full_risky"],
                        r["partial_risky"], r["non_protectable"], r["exp_0x80"]]
                       for r in rows])


def write_bits_needed_csv(rows, path):
    reports.write_csv(path, ["Name", "pset", "role", "Positive", "Negative"],
                      [[r["layer"], r["pset"], r["role"],
                        "-" if r["positive_bits"] is None else r["positive_bits"],
                        "-" if r["negative_bits"] is None else r["negative_bits"]]
                       for r in rows])
