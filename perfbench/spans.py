"""Spans around calls into gradedshift's public functions, for the traced run.

The library is not instrumented.  Instead each listed function is replaced,
for the duration of a traced pass, by a wrapper that records a span.  The
wrapper is installed at every module binding that holds the function,
because the library imports names with ``from .x import y`` and callers
look them up in their own module (``purity.multiplier_matrix``,
``ball_identities._apply_powers``, ``cli.jsonschema.validate``, ...).

A span is ``(id, parent_id, name, start, end)``.  Spans stay in memory
until the pass ends; the self time of a span is its duration minus the
durations of its direct children.  The layer of a span is the part of its
name before the first dot, which is the name of a ``src/gradedshift``
module (or ``op`` for the benchmark's own span around one certificate).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS = ("kernels", "spaces", "operators", "purity", "ball_identities", "dilation", "cli")

# Span names whose call counts are reported, as "<name>.calls".
COUNTED = (
    "kernels",
    "spaces.basis",
    "operators.opnorm",
    "operators.multiplier_matrix",
    "operators.spectral_radius",
    "operators.shift_matrix",
    "operators.apply_powers",
    "purity.verdict",
    "ball_identities.power_grams",
    "dilation.bcl_certify",
    "cli.schema",
)

# Span names whose self time per pass is reported, as "<name>.self_s".
TIMED = COUNTED + (
    "purity.random_symbol",
    "ball_identities.residual",
    "cli.report_write",
    "cli.run",
    "dilation.transfer",
    "operators.subspaces",
)

# (module under gradedshift, function name, span name); the wrapper goes
# wherever that function object is bound.
TARGETS = (
    ("kernels", "coeff_1d", "kernels"),
    ("kernels", "ball_coeff", "kernels"),
    ("kernels", "series_1d", "kernels"),
    ("kernels", "ball_series", "kernels"),
    ("kernels", "convolve", "kernels"),
    ("kernels", "reciprocal_series", "kernels"),
    ("kernels", "cnp_certificate", "kernels"),
    ("kernels", "chen_coeffs", "kernels"),
    ("spaces", "polydisc_basis", "spaces.basis"),
    ("spaces", "ball_basis", "spaces.basis"),
    ("operators", "opnorm", "operators.opnorm"),
    ("operators", "spectral_radius", "operators.spectral_radius"),
    ("operators", "multiplier_matrix", "operators.multiplier_matrix"),
    ("operators", "shift_matrix", "operators.shift_matrix"),
    ("operators", "_apply_powers", "operators.apply_powers"),
    ("operators", "cauchy_dual", "operators.subspaces"),
    ("operators", "range_projection", "operators.subspaces"),
    ("operators", "wandering_subspace", "operators.subspaces"),
    ("operators", "orbit_frame", "operators.subspaces"),
    ("operators", "wandering_witness", "operators.subspaces"),
    ("purity", "multiplier_purity_verdict", "purity.verdict"),
    ("purity", "random_contractive_symbol", "purity.random_symbol"),
    ("ball_identities", "_power_grams", "ball_identities.power_grams"),
    ("ball_identities", "defect_identity_residual", "ball_identities.residual"),
    ("ball_identities", "chen_identity_residual", "ball_identities.residual"),
    ("dilation", "bcl_dilation_certify", "dilation.bcl_certify"),
    ("dilation", "transfer_eval", "dilation.transfer"),
    ("dilation", "transfer_jet", "dilation.transfer"),
    ("dilation", "schur_agler_purity", "dilation.transfer"),
    ("cli", "_load_schema", "cli.schema"),
    ("cli", "_write_report", "cli.report_write"),
    ("cli", "main", "cli.run"),
)


# Sizes recorded per call: each takes (args, kwargs, result).
def _matrix_dim(args: tuple, kwargs: dict, result: Any) -> int:
    op = args[0] if args else kwargs["op"]
    return int(getattr(op, "data", op).shape[0])


def _basis_key(args: tuple, kwargs: dict, result: Any) -> Tuple[tuple, int]:
    return (result.domain, result.degree_cap, result.coeff_dim), result.dim


def _gram_bytes(args: tuple, kwargs: dict, result: Any) -> int:
    basis = args[0] if args else kwargs["basis"]
    budget = args[1] if len(args) > 1 else kwargs["budget"]
    # computed, not measured: two dense complex128 dim x dim matrices (the
    # power and its Gram) per multi-index |alpha| <= budget
    return math.comb(budget + basis.n, basis.n) * 2 * 16 * basis.dim ** 2


MEASURES: Dict[str, Callable[[tuple, dict, Any], Any]] = {
    "operators.opnorm": _matrix_dim,
    "operators.spectral_radius": _matrix_dim,
    "spaces.basis": _basis_key,
    "ball_identities.power_grams": _gram_bytes,
}


class Tracer:
    """Records nested spans in memory while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self.facts: Dict[str, List[Any]] = defaultdict(list)
        self._stack: List[int] = []
        self._ids = itertools.count()
        self._patches: List[Tuple[Any, str, Any]] = []

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = self.call(name, fn, *args, **kwargs)
            if measure is not None:
                self.facts[name].append(measure(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target at every binding in gradedshift and jsonschema."""
        import jsonschema

        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "gradedshift"]
        targets = [
            (getattr(sys.modules[f"gradedshift.{mod}"], attr), span)
            for mod, attr, span in TARGETS
        ]
        targets.append((jsonschema.validate, "cli.schema"))
        for original, span in targets:
            wrapped = self._wrap(span, original)
            for module in modules + [jsonschema]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for module, key, value in reversed(self._patches):
            setattr(module, key, value)
        self._patches.clear()

    def take_pass(self) -> "PassSummary":
        """Summarise the spans recorded since the last call, and clear them."""
        summary = PassSummary(self.spans, self.facts)
        self.spans, self.facts = [], defaultdict(list)
        return summary


class PassSummary:
    """Call counts, self times and sizes of one traced pass."""

    def __init__(self, spans: list, facts: Dict[str, list]) -> None:
        child_time: Dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.op_s = 0.0
        for sid, _, name, start, end in spans:
            self.calls[name] += 1
            self.self_s[name] += (end - start) - child_time[sid]
            if name == "op":
                self.op_s += end - start
        self.facts = facts

    def counts(self) -> Dict[str, float]:
        """Metrics that depend only on the inputs; they repeat exactly."""
        c = self.calls
        facts = self.facts
        bases = facts["spaces.basis"]
        verdicts = c["purity.verdict"]
        out: Dict[str, float] = {f"{name}.calls": c[name] for name in COUNTED}
        out.update(
            {
                "operators.opnorm.max_dim": max(facts["operators.opnorm"], default=0),
                "operators.spectral_radius.max_dim": max(
                    facts["operators.spectral_radius"], default=0
                ),
                "purity.assemblies_per_verdict": _ratio(c["operators.multiplier_matrix"], verdicts),
                "purity.svds_per_verdict": _ratio(c["operators.opnorm"], verdicts),
                "purity.eigs_per_verdict": _ratio(c["operators.spectral_radius"], verdicts),
                "spaces.basis.distinct_ratio": _ratio(len({k for k, _ in bases}), len(bases)),
                "spaces.max_dim": max((d for _, d in bases), default=0),
                "ball_identities.gram_bytes_computed": sum(facts["ball_identities.power_grams"]),
            }
        )
        return out

    def times(self) -> Dict[str, float]:
        out = {f"{name}.self_s": self.self_s[name] for name in TIMED}
        for layer in LAYERS:
            own = sum(t for name, t in self.self_s.items() if name.split(".")[0] == layer)
            out[f"{layer}.self_share"] = _ratio(own, self.op_s)
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    summaries: List[PassSummary], overhead_s: float
) -> Tuple[Dict[str, float], bool]:
    """Per-layer metrics over the traced passes of one run.

    Counts come from the first traced pass; returns also whether every
    later pass repeated them exactly (each pass runs the same op list).
    Self times are the fastest pass's, for the reason the end-to-end
    latencies are (see ``run.end_to_end``); shares, being ratios, are
    medians.
    """
    counts = summaries[0].counts()
    repeat = all(s.counts() == counts for s in summaries[1:])
    times = [s.times() for s in summaries]
    metrics = dict(counts)
    for key in times[0]:
        pick = statistics.median if key.endswith(".self_share") else min
        metrics[key] = pick(t[key] for t in times)
    metrics["trace.overhead_s"] = overhead_s
    return metrics, repeat


def write_spans(path: str, spans: list) -> None:
    """One JSON object per line, in the order the spans ended."""
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, name, start, end in spans:
            record = {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
            fh.write(json.dumps(record) + "\n")
