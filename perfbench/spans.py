"""In-memory spans around the calls into each probsens layer.

The traced benchmark run replaces functions in the ``probsens.runner``
namespace by timing wrappers, so ``run_case`` runs unmodified and picks the
wrappers up by name.  A name the runner no longer has is recorded as absent
and skipped.  Spans stay in memory; the caller writes them out at the end.
"""

from __future__ import annotations

import os
import time


def _rows(args, kwargs, result):
    return int(result.shape[0])


def _kernel_evals(args, kwargs, result):
    # Computed, not counted: N samples times the grid points of every axis.
    return len(args[0]) * sum(int(ax.size) for ax in result.axes)


def _bytes_written(args, kwargs, result):
    return sum(os.path.getsize(path) for path in result)


# (runner attribute, layer, counter of the work one call does)
LAYERS = (
    ("run_case", "runner.run_case", None),
    ("sample", "distributions.sample", lambda a, k, r: int(r.n)),
    ("evaluate_outputs", "mclr.evaluate_outputs", _rows),
    ("beam_rms_ensemble", "models.forward", _rows),
    ("sensitivity_curve", "mclr.sweep", lambda a, k, r: len(r)),
    ("estimate_output_density", "mclr.density", _kernel_evals),
    ("estimate_output_fim", "mclr.fim", None),
    ("estimate_kl", "mclr.kl", None),
    ("_fd_check", "runner.fd_check", None),
    ("_pf_at_thresholds", "runner.pf_thresholds", lambda a, k, r: len(r)),
    ("check_*", "bounds.check", None),
    ("discrete_simplex_oracle", "bounds.oracle", None),
    ("write_outputs", "runner.write", _bytes_written),
)


class Tracer:
    """Records one span per wrapped call: layer, parent span, start, end, count."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._open: list[int] = []

    def install(self, module, layers=LAYERS) -> None:
        for attr, layer, count in layers:
            if attr.endswith("*"):
                names = sorted(n for n in vars(module) if n.startswith(attr[:-1]) and callable(getattr(module, n)))
            else:
                names = [attr] if callable(getattr(module, attr, None)) else []
            if not names:
                self.absent.append(attr)
            for name in names:
                setattr(module, name, self._wrap(getattr(module, name), layer, count))

    def _wrap(self, fn, layer, count):
        def traced(*args, **kwargs):
            span = {
                "layer": layer,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(),
            }
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                span["end"] = time.perf_counter()
            if count is not None:
                span["count"] = count(args, kwargs, result)
            return result

        return traced

    def layer_metrics(self) -> dict:
        """Per-layer busy time, self time, call count and work count."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out = {}
        for i, span in enumerate(self.spans):
            m = out.setdefault(span["layer"], {"s": 0.0, "self_s": 0.0, "calls": 0, "count": 0})
            dur = span["end"] - span["start"]
            m["s"] += dur
            m["self_s"] += dur - child_time[i]
            m["calls"] += 1
            m["count"] += span.get("count", 0)
        return out


def _field(layer, key):
    return lambda layers: layers.get(layer, {}).get(key, 0)


def _rate(layer):
    def rate(layers):
        m = layers.get(layer)
        return m["count"] / m["s"] if m and m["s"] > 0 else 0.0

    return rate


# Per-layer metric name, unit and how it is read from layer_metrics().
METRICS = (
    ("models.forward_s", "s", _field("models.forward", "s")),
    ("models.forward_rows", "count", _field("models.forward", "count")),
    ("models.forward_rows_per_s", "1/s", _rate("models.forward")),
    ("mclr.evaluate_outputs_s", "s", _field("mclr.evaluate_outputs", "self_s")),
    ("mclr.density_s", "s", _field("mclr.density", "s")),
    ("mclr.density_calls", "count", _field("mclr.density", "calls")),
    ("mclr.density_kernel_evals", "computed", _field("mclr.density", "count")),
    ("mclr.sweep_s", "s", _field("mclr.sweep", "s")),
    ("mclr.sweep_thresholds", "count", _field("mclr.sweep", "count")),
    ("mclr.fim_s", "s", _field("mclr.fim", "s")),
    ("mclr.kl_s", "s", _field("mclr.kl", "s")),
    ("distributions.sample_s", "s", _field("distributions.sample", "s")),
    ("distributions.sample_rows", "count", _field("distributions.sample", "count")),
    ("runner.fd_check_s", "s", _field("runner.fd_check", "s")),
    ("runner.pf_thresholds_s", "s", _field("runner.pf_thresholds", "s")),
    ("runner.write_s", "s", _field("runner.write", "s")),
    ("runner.write_bytes", "B", _field("runner.write", "count")),
    ("runner.self_s", "s", _field("runner.run_case", "self_s")),
    ("bounds.check_s", "s", _field("bounds.check", "s")),
    ("bounds.check_calls", "count", _field("bounds.check", "calls")),
    ("bounds.oracle_s", "s", _field("bounds.oracle", "s")),
    ("bounds.oracle_instances", "count", _field("bounds.oracle", "calls")),
)
