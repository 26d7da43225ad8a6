"""Per-layer tracing of groversim from outside the program.

``Tracer.install`` replaces every public function of the layer modules with
a timing wrapper in every groversim namespace that holds it: the defining
module (whose own calls, such as grover_iterate -> apply_oracle, resolve
there), each module that imported the name, and the package. The
``StateVector`` constructor is wrapped on the class. ``uninstall`` puts the
originals back, so traced and untraced rounds can alternate in one process.
Nothing under src/ changes.

Every wrapped call is a span: id, parent span, the operation it served,
name, start and end. Spans are kept in memory (the first ``SPAN_CAP`` of
them) and written out when the run ends; call counts, inclusive time and
self time (span time minus the time of the spans it caused) are kept for
all of them, with the work counters below.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import warnings
from collections import Counter, defaultdict

LAYERS = ("statevector", "twolevel", "collisions", "correspondence", "harness", "cli")
SPAN_CAP = 50_000
FORMATTERS = ("harness.format_trajectory_csv", "harness.format_sweep_csv", "harness.format_report_comments")


# Work counters, updated after a wrapped call returns. Bytes are computed
# from array sizes and the passes each kernel makes over them (8-byte
# float64 and index elements), not measured: a StateVector construction
# reads the vector once for its norm; the oracle copies it (read + write)
# and gathers and scatters the marked entries; diffusion reads it for the
# mean and again to write the reflection; sampling squares, accumulates and
# normalises it, then writes, searches and returns one index per draw.
def _state(args, kwargs):
    return args[0] if args else kwargs["state"]


def _on_construct(work, args, kwargs, result):
    work["bytes"] += 8 * args[0].amplitudes.size


def _on_init_uniform(work, args, kwargs, result):
    work["bytes"] += 8 * result.amplitudes.size


def _on_oracle(work, args, kwargs, result):
    state = _state(args, kwargs)
    work["bytes"] += 16 * state.amplitudes.size + 24 * len(state.marked)


def _on_diffusion(work, args, kwargs, result):
    work["bytes"] += 24 * _state(args, kwargs).amplitudes.size


def _on_grover_iterate(work, args, kwargs, result):
    count = args[1] if len(args) > 1 else kwargs["count"]
    work["iterations"] += count
    work["amp_updates"] += count * _state(args, kwargs).amplitudes.size


def _on_marked_probability(work, args, kwargs, result):
    work["bytes"] += 16 * len(_state(args, kwargs).marked)


def _on_measure_sample(work, args, kwargs, result):
    draws = args[2] if len(args) > 2 else kwargs["draws"]
    work["sample_draws"] += draws
    work["bytes"] += 48 * _state(args, kwargs).amplitudes.size + 24 * draws


def _on_rows(work, args, kwargs, result):
    work["rows_built"] += len(result)


def _on_text(work, args, kwargs, result):
    work["csv_bytes"] += len(result)


def _on_verify(work, args, kwargs, result):
    work["steps_checked"] += result.steps_checked


_HOOKS = {
    "statevector.StateVector": _on_construct,
    "statevector.init_uniform": _on_init_uniform,
    "statevector.apply_oracle": _on_oracle,
    "statevector.apply_diffusion": _on_diffusion,
    "statevector.grover_iterate": _on_grover_iterate,
    "statevector.marked_probability": _on_marked_probability,
    "statevector.measure_sample": _on_measure_sample,
    "harness.run_search": _on_rows,
    "harness.run_sweep": _on_rows,
    "correspondence.verify_analogy": _on_verify,
    **{name: _on_text for name in FORMATTERS},
}


class Tracer:
    def __init__(self, package) -> None:
        self.calls: Counter[str] = Counter()
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.work: defaultdict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._protocol_warning = package.collisions.ProtocolWarning
        self._warnings = None

        namespaces = [package] + [getattr(package, name) for name in (*LAYERS, "params")]
        self._patches = []
        for layer in LAYERS:
            module = getattr(package, layer)
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for namespace in namespaces:
                    for attr, value in vars(namespace).items():
                        if value is fn:
                            self._patches.append((namespace, attr, fn, wrapper))
        state_class = package.statevector.StateVector
        init = state_class.__init__
        self._patches.append((state_class, "__init__", init, self._wrap("statevector.StateVector", init)))

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            frame = [self._next_id, 0.0]
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self.calls[name] += 1
                self.inclusive_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if len(spans) < SPAN_CAP:
                    spans.append((frame[0], parent, self.op, name, start, end))
            if hook is not None:
                hook(self.work, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        # Count protocol warnings: show every one, to a counter.
        self._warnings = warnings.catch_warnings()
        self._warnings.__enter__()
        warnings.filterwarnings("always", category=self._protocol_warning)
        show = warnings.showwarning

        def count_protocol(message, category, *rest, **kwargs):
            if issubclass(category, self._protocol_warning):
                self.work["protocol_warnings"] += 1
            else:
                show(message, category, *rest, **kwargs)

        warnings.showwarning = count_protocol

    def uninstall(self) -> None:
        self._warnings.__exit__(None, None, None)
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per operation attempted while tracing."""

        def calls(name):
            return self.calls[name] / ops

        def seconds(*names):
            return sum(self.inclusive_s[name] for name in names) / ops

        def layer_self(layer):
            return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer) / ops

        work = self.work
        constructions = self.calls["statevector.StateVector"]
        grover_s = self.inclusive_s["statevector.grover_iterate"]
        return {
            "statevector.oracle_calls": (calls("statevector.apply_oracle"), "count/op"),
            "statevector.oracle_s": (seconds("statevector.apply_oracle"), "s/op"),
            "statevector.diffusion_calls": (calls("statevector.apply_diffusion"), "count/op"),
            "statevector.diffusion_s": (seconds("statevector.apply_diffusion"), "s/op"),
            "statevector.constructions": (constructions / ops, "count/op"),
            "statevector.constructions_per_iteration": (
                constructions / work["iterations"] if work["iterations"] else 0.0,
                "ratio",
            ),
            "statevector.amp_updates": (work["amp_updates"] / ops, "count/op"),
            "statevector.amp_updates_per_s": (work["amp_updates"] / grover_s if grover_s else 0.0, "1/s"),
            "statevector.bytes_moved_computed": (work["bytes"] / ops, "B/op"),
            "statevector.sample_draws": (work["sample_draws"] / ops, "count/op"),
            "statevector.sample_s": (seconds("statevector.measure_sample"), "s/op"),
            "twolevel.step_calls": (calls("twolevel.step"), "count/op"),
            "twolevel.step_s": (seconds("twolevel.step"), "s/op"),
            "twolevel.closed_form_calls": (calls("twolevel.closed_form"), "count/op"),
            "twolevel.self_s": (layer_self("twolevel"), "s/op"),
            "collisions.iterate_calls": (calls("collisions.iterate"), "count/op"),
            "collisions.iterate_s": (seconds("collisions.iterate"), "s/op"),
            "collisions.classify_calls": (calls("collisions.classify_case"), "count/op"),
            "collisions.protocol_warnings": (work["protocol_warnings"] / ops, "count/op"),
            "correspondence.verify_calls": (calls("correspondence.verify_analogy"), "count/op"),
            "correspondence.steps_checked": (work["steps_checked"] / ops, "count/op"),
            "correspondence.self_s": (layer_self("correspondence"), "s/op"),
            "harness.rows_built": (work["rows_built"] / ops, "count/op"),
            "harness.self_s": (layer_self("harness"), "s/op"),
            "harness.format_s": (seconds(*FORMATTERS), "s/op"),
            "harness.csv_bytes": (work["csv_bytes"] / ops, "B/op"),
            "cli.calls": (calls("cli.main"), "count/op"),
            "cli.self_s": (layer_self("cli"), "s/op"),
        }

    def write_spans(self, path) -> None:
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, op, name, start, end in self.spans:
                record = {"id": span_id, "parent": parent, "op": op, "name": name,
                          "start_s": start - origin, "end_s": end - origin}
                out.write(json.dumps(record) + "\n")
