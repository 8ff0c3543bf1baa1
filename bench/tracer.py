"""Spans and counters around the calls the benchmark makes into comln's layers.

The tracer rebinds the module attributes each caller looks up (for example
``comln.dynamics.rhs_full``, which ``adapt``'s right-hand side calls, or
``comln.metagrad.adapt``, which ``task_metagrads`` calls) to wrappers that
time the call, so nothing under ``src/`` changes.  Spans nest: a span's
self time is its duration minus the time of the spans it encloses, so the
self times of all spans inside one op add up to the op's outermost span.

Exact counters (rhs evaluations, steps, state bytes, embedded rows) come from
the values the wrapped calls return or receive, never from timing.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import comln.dynamics
import comln.metagrad
import comln.trainer

# (module, attribute, span): every name a measured caller looks up.
SPANS = (
    (comln.trainer, "meta_train", "trainer.meta_train"),
    (comln.trainer, "meta_test", "trainer.meta_test"),
    (comln.trainer, "task_metagrads", "metagrad.task_metagrads"),
    (comln.metagrad, "task_metagrads", "metagrad.task_metagrads"),
    (comln.trainer, "embed_set", "embedding.forward"),
    (comln.metagrad, "embed_set", "embedding.forward"),
    (comln.metagrad, "backward", "embedding.backward"),
    (comln.trainer, "adapt", "dynamics.adapt"),
    (comln.metagrad, "adapt", "dynamics.adapt"),
    (comln.dynamics, "integrate", "solver.integrate"),
    (comln.dynamics, "rhs_full", "dynamics.rhs_full"),
    (comln.dynamics, "rhs_adapt", "dynamics.rhs_adapt"),
    (comln.dynamics, "curvature_from_probs", "loss.curvature"),
    (comln.metagrad, "outer_partials", "loss.partials"),
    (comln.metagrad, "inner_grad", "loss.partials"),
    (comln.metagrad, "outer_loss", "loss.partials"),
    (comln.trainer, "outer_loss", "loss.partials"),
    (comln.metagrad, "coupling_matrix", "metagrad.project"),
    (comln.metagrad, "project_W0", "metagrad.project"),
    (comln.metagrad, "project_phi", "metagrad.project"),
)

# The rhs callback that `integrate` receives; its self time is the FlatState
# view and packing work around rhs_full / rhs_adapt.
RHS_CALLBACK = "dynamics.rhs_callback"


class Tracer:
    """Installs the spans on entry and restores the original names on exit."""

    def __init__(self) -> None:
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._children = [0.0]
        self._active = Counter()
        self._saved = []

    def attributed_s(self) -> float:
        """Sum of all self times so far: the time covered by some span."""
        return sum(self.self_s.values())

    def span(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._children.append(0.0)
            self._active[name] += 1
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                self._active[name] -= 1
                children = self._children.pop()
                self._children[-1] += elapsed
                self.self_s[name] += elapsed - children
                self.calls[name] += 1
                # A span nested in one of the same name is already inside
                # the outer one's total.
                if not self._active[name]:
                    self.total_s[name] += elapsed
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        return traced

    def _count_adapt(self, result, args, kwargs) -> None:
        _, state, stats = result
        self.counts["solver.rhs_evals"] += stats.rhs_evals
        self.counts["solver.accepted_steps"] += stats.accepted_steps
        self.counts["solver.rejected_steps"] += stats.rejected_steps
        self.counts["dynamics.state_bytes"] = max(
            self.counts["dynamics.state_bytes"], state.nbytes
        )
        if state.track_sensitivities:
            W0, phi = args[0], args[1]
            n, (m, d) = W0.shape[0], phi.shape
            dense = 8 * ((n * d) ** 2 + m * n * d * d)
            self.counts["dynamics.dense_state_bytes_computed"] = max(
                self.counts["dynamics.dense_state_bytes_computed"], dense
            )

    def _count_rows(self, result, args, kwargs) -> None:
        self.counts["embedding.rows"] += args[1].shape[0]

    def _count_backward(self, result, args, kwargs) -> None:
        self.counts["embedding.backward_calls"] += 1

    def _traced_integrate(self, integrate):
        def integrate_with_traced_rhs(rhs, *args, **kwargs):
            return integrate(self.span(RHS_CALLBACK, rhs), *args, **kwargs)

        return integrate_with_traced_rhs

    def __enter__(self) -> "Tracer":
        hooks = {
            "adapt": self._count_adapt,
            "embed_set": self._count_rows,
            "backward": self._count_backward,
        }
        for module, attr, name in SPANS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            fn = self._traced_integrate(original) if attr == "integrate" else original
            setattr(module, attr, self.span(name, fn, hooks.get(attr)))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


# Exact counters, taken over the first `counter_ops` ops of a traced run.
EXACT_COUNTERS = (
    "solver.rhs_evals",
    "solver.accepted_steps",
    "solver.rejected_steps",
    "dynamics.state_bytes",
    "dynamics.dense_state_bytes_computed",
    "embedding.rows",
    "embedding.backward_calls",
)


def layer_metrics(tracer: Tracer, ops: int, window: Counter) -> dict:
    """Per-layer metrics from a traced run of `ops` ops.

    Returns name -> (value, unit).  Times are seconds per op over the whole
    traced run, and microseconds per rhs evaluation.  Counters are exact
    totals over the counter window, so they repeat bit-for-bit for the same
    seed and code.
    """
    t, own, counts = tracer.total_s, tracer.self_s, tracer.counts
    steps = window["solver.accepted_steps"] + window["solver.rejected_steps"]
    rhs_full_calls = tracer.calls["dynamics.rhs_full"]
    us_per_eval = {
        "solver.self_us_per_eval": (own["solver.integrate"], counts["solver.rhs_evals"]),
        "dynamics.rhs_full_us_per_eval": (t["dynamics.rhs_full"], rhs_full_calls),
    }
    seconds_per_op = {
        "solver.integrate_s": t["solver.integrate"],
        "solver.self_s": own["solver.integrate"],
        "dynamics.rhs_full_s": t["dynamics.rhs_full"],
        "dynamics.rhs_adapt_s": t["dynamics.rhs_adapt"],
        "dynamics.pack_s": own[RHS_CALLBACK],
        "dynamics.adapt_self_s": own["dynamics.adapt"],
        "loss.curvature_s": t["loss.curvature"],
        "loss.partials_s": t["loss.partials"],
        "metagrad.project_s": t["metagrad.project"],
        "metagrad.self_s": own["metagrad.task_metagrads"],
        "embedding.forward_s": t["embedding.forward"],
        "embedding.backward_s": t["embedding.backward"],
        "trainer.update_s": own["trainer.meta_train"],
        "trainer.eval_self_s": own["trainer.meta_test"],
    }
    metrics = {name: (s / ops, "s/op") for name, s in seconds_per_op.items()}
    metrics.update(
        {name: (1e6 * s / n if n else 0.0, "us") for name, (s, n) in us_per_eval.items()}
    )
    metrics["solver.evals_per_step"] = (
        window["solver.rhs_evals"] / steps if steps else 0.0, "evals/step"
    )
    metrics["solver.accept_ratio"] = (
        window["solver.accepted_steps"] / steps if steps else 0.0, "ratio"
    )
    for name in EXACT_COUNTERS:
        metrics[name] = (window[name], "B" if "bytes" in name else "count")
    return metrics
