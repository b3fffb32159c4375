"""Diagnostic lenses over a model: sign censuses, risky-exponent scans,
quantized bit-width tables, calibration reports, correlation summaries.

"Risky" is the rule of ``bits.RISKY``: one bit-flip away from a filled
(partial) exponent.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from . import bits
from .engine import capture_parameter_stats, run_float
from .model import ModelGraph, batch_inputs

POSITIVE_RATIO_ROLES = ("conv_bias", "bn_beta", "convtr_bias")


def positive_ratio_table(graph: ModelGraph, roles=POSITIVE_RATIO_ROLES) -> list:
    """Exact sign census per parameter set (zero counts as non-positive)."""
    rows = []
    for p in graph.params_of(roles=roles):
        v = p.tensor.data
        pos = int((v > 0).sum())
        rows.append({"pset": p.index, "layer": p.layer, "role": p.role,
                     "positive": pos, "total": int(v.size),
                     "percent": 100.0 * pos / v.size})
    return rows


def risky_exponent_scan(graph: ModelGraph) -> list:
    """Classify every f32 parameter's exponent state.

    Per set: counts and element lists for full-exponent-minus-one (01111111)
    and the other risky (partial) states, the risky states protection may not
    move in either direction, and the separately flagged 10000000 state.
    """
    rows = []
    for p in graph.params:
        if p.tensor.encoding != "f32":
            continue
        exp = bits.exponent_fields(p.tensor.flat.view(np.uint32))
        full = exp == 0x7F
        partial = bits.RISKY[exp] & ~full
        nonprot = bits.RISKY[exp] & ~bits.MAY_INCREMENT[exp] & ~bits.MAY_DECREMENT[exp]
        exp80 = exp == 0x80
        rows.append({
            "pset": p.index, "layer": p.layer, "role": p.role,
            "total": int(p.tensor.size),
            "full_risky": int(full.sum()),
            "partial_risky": int(partial.sum()),
            "non_protectable": int(nonprot.sum()),
            "exp_0x80": int(exp80.sum()),
            "full_elements": np.flatnonzero(full).tolist(),
            "partial_elements": np.flatnonzero(partial).tolist(),
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
        if p.tensor.encoding not in ("i8", "i32"):
            continue
        v = p.tensor.flat
        pos = v[v > 0]
        neg = v[v < 0]
        rows.append({
            "pset": p.index, "layer": p.layer, "role": p.role,
            "positive_bits": bits.twos_complement_width(int(pos.max())) if pos.size else None,
            "negative_bits": bits.twos_complement_width(int(neg.min())) if neg.size else None,
        })
    return rows


def calibration_report(graph: ModelGraph, inputs) -> dict:
    """Parameter ranges plus activation ranges/histograms over an input set."""
    result = run_float(graph, batch_inputs(inputs), capture=True)
    return {
        "parameters": capture_parameter_stats(graph),
        "activations": {name: st.to_dict() for name, st in result.trace.items()},
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
# table writers (CSV with the Name / Pos. / Total / % vocabulary, plus JSON)


def write_positive_ratio_csv(rows, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["Name", "Pos.", "Total", "%", "pset", "role"])
        for r in rows:
            w.writerow([r["layer"], r["positive"], r["total"],
                        f"{r['percent']:.2f}", r["pset"], r["role"]])


def write_risky_scan_csv(rows, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["Name", "pset", "role", "Total", "FullRisky", "PartialRisky",
                    "NonProtectable", "Exp0x80"])
        for r in rows:
            w.writerow([r["layer"], r["pset"], r["role"], r["total"],
                        r["full_risky"], r["partial_risky"],
                        r["non_protectable"], r["exp_0x80"]])


def write_bits_needed_csv(rows, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["Name", "pset", "role", "Positive", "Negative"])
        for r in rows:
            w.writerow([r["layer"], r["pset"], r["role"],
                        r["positive_bits"] if r["positive_bits"] is not None else "-",
                        r["negative_bits"] if r["negative_bits"] is not None else "-"])


def write_json(obj, path):
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True, indent=1)
        f.write("\n")
