"""Span tracing of qcorr's public functions, installed from outside the package.

``from .x import f`` copies the binding of ``f`` into every importing module,
so ``installed`` replaces each binding of each target in every loaded qcorr
module and restores every one of them on exit.  Private helpers (``_CLOSED``,
``_conditional_entropy_batch``, ``_golden_section``) are left alone: their
time counts as the self time of the public function that calls them.

A span is ``[name, start, end, parent, call]``: parent is the index of the
enclosing span or -1, and call is ``(args, kwargs, result)`` for the targets
in KEEP_CALLS (None otherwise), read only after the traced pass.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

TARGETS = {
    "cli": ("main",),
    "dynamics": ("sweep", "death_time", "verify_suite"),
    "channels": ("kraus_apply", "apply_pauli_channel", "analytic_evolve", "integrate_rk4"),
    "measures": ("concurrence", "wootters_score", "geometric_discord", "mutual_information",
                 "quantum_discord", "classical_correlation", "optimal_conditional_entropy"),
    "states": ("make_params", "initial_state", "validate_density_matrix", "bloch_decompose"),
    "linalg": ("hermitian_eigen", "von_neumann_entropy"),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns)
KEEP_CALLS = ("dynamics.death_time", "measures.optimal_conditional_entropy")
OPTIMIZER = "measures.optimal_conditional_entropy"
DEATH_TIME = "dynamics.death_time"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.originals: dict = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        keep = name in KEEP_CALLS
        self.originals[name] = fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep:
                span[4] = (args, kwargs, result)
            return result

        return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace every binding of every target in every loaded qcorr module by
    a traced wrapper; restore all of them on exit."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "qcorr" or name.startswith("qcorr.")]
    patched = []
    try:
        for layer, names in TARGETS.items():
            home = importlib.import_module(f"qcorr.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = tracer.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _ancestor(spans: list[list], index: int, accept) -> int:
    parent = spans[index][3]
    while parent >= 0 and not accept(spans[parent][0]):
        parent = spans[parent][3]
    return parent


def _bound(tracer: Tracer, span: list):
    args, kwargs, result = span[4]
    bound = inspect.signature(tracer.originals[span[0]]).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments, result


class LayerTotals:
    """Per-layer sums over the traced passes of one run."""

    def __init__(self):
        self.passes = 0
        self.wall = 0.0
        self.root = 0.0  # summed duration of the top-level spans
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.measure_evals = 0
        self.optimizer_states: set[bytes] = set()
        self.refine_passes = 0
        self.concurrence_deaths = 0
        self.death_score_evals = 0
        self.bisections = 0

    def add_pass(self, tracer: Tracer, wall: float) -> None:
        spans = tracer.spans
        self.passes += 1
        self.wall += wall
        concurrence_death = set()
        for i, span in enumerate(spans):
            if span[0] == DEATH_TIME:
                arguments, result = _bound(tracer, span)
                self.bisections += result.iterations
                if arguments["measure"] == "concurrence":
                    concurrence_death.add(i)
        self.concurrence_deaths += len(concurrence_death)
        for i, ((name, start, end, parent, _), own) in enumerate(zip(spans, self_times(spans))):
            self.calls[name] += 1
            self.self_s[name] += own
            self.incl_s[name] += end - start
            if parent < 0:
                self.root += end - start
            if name.startswith("measures.") and \
                    _ancestor(spans, i, lambda n: n.startswith("measures.")) < 0:
                self.measure_evals += 1
            if name == "measures.wootters_score" and \
                    _ancestor(spans, i, lambda n: n == DEATH_TIME) in concurrence_death:
                self.death_score_evals += 1
            if name == OPTIMIZER:
                arguments, result = _bound(tracer, spans[i])
                self.optimizer_states.add(arguments["rho"].tobytes())
                self.refine_passes += result.optimizer.refinement_iterations

    def metrics(self) -> dict[str, float]:
        """Per-pass figures for every target plus the derived ratios."""
        n = max(self.passes, 1)
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            calls = self.calls[name]
            out[f"{name}.calls"] = calls / n
            out[f"{name}.self_ms"] = 1e3 * self.self_s[name] / n
            out[f"{name}.incl_us_per_call"] = 1e6 * self.incl_s[name] / calls if calls else 0.0
        main_incl = self.incl_s["cli.main"]
        out["cli.main.self_share"] = self.self_s["cli.main"] / main_incl if main_incl else 0.0
        validations = self.calls["states.validate_density_matrix"]
        out["states.validate_density_matrix.per_oracle_measure"] = (
            validations / self.measure_evals if self.measure_evals else 0.0)
        runs = self.calls[OPTIMIZER]
        out[f"{OPTIMIZER}.runs_per_state"] = (
            runs / (len(self.optimizer_states) * n) if runs else 0.0)
        out[f"{OPTIMIZER}.refine_passes"] = self.refine_passes / runs if runs else 0.0
        out[f"{DEATH_TIME}.score_evals_per_call"] = (
            self.death_score_evals / self.concurrence_deaths if self.concurrence_deaths else 0.0)
        deaths = self.calls[DEATH_TIME]
        out[f"{DEATH_TIME}.bisections"] = self.bisections / deaths if deaths else 0.0
        out["trace.wall_s"] = self.wall / n
        out["trace.glue_s"] = (self.wall - self.root) / n
        return out


def write_spans(path, spans: list[list]) -> None:
    """Tab-separated name, start, end and parent of every span."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name\tstart_s\tend_s\tparent\n")
        for name, start, end, parent, _ in spans:
            fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\n")
