"""In-memory span tracing around the package's public functions.

``Tracer.install`` replaces each named function with a wrapper at every
ctalign module attribute that holds it, so the wrapper runs whichever name a
caller looks the function up by (``ctalign.model.loss_gradients`` is the same
object the trainer calls as ``loss_gradients``). A span records its name,
start, end, parent span and request id; spans stay in lists until the run
writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# wrapped functions, as the module that defines them and the function name;
# each is patched wherever a ctalign module binds it
TRACED = (
    "ctalign.cli.run_train",
    "ctalign.model.generate_dataset",
    "ctalign.model.init_params",
    "ctalign.model.train",
    "ctalign.model.batch_objective",
    "ctalign.model.predict",
    "ctalign.model.encode",
    "ctalign.model.localization_report",
    "ctalign.model.save_checkpoint",
    "ctalign.model.save_dataset",
    "ctalign.losses.loss_gradients",
    "ctalign.losses.warmup_gradients",
    "ctalign.autodiff.backward",
    "ctalign.metrics.map_score",
    "ctalign.metrics.prf_suite",
    "ctalign.distributions.make_point_set",
    "ctalign.distributions.build_theta",
    "ctalign.distributions.build_beta",
    "ctalign.transport.ct_distance",
    "ctalign.transport.cost_matrix",
    "ctalign.transport.forward_plan",
    "ctalign.transport.backward_plan",
    "ctalign.transport.navigator_distance",
    "ctalign.transport.export_plan_grid",
    "ctalign.numerics.cosine_similarity_matrix",
)

STEP_SPANS = ("losses.loss_gradients", "losses.warmup_gradients")


def _span_name(qualified: str) -> str:
    module, _, func = qualified.rpartition(".")
    return f"{module.removeprefix('ctalign.')}.{func}"


def _reachable(root, into: set) -> None:
    stack = [root]
    into.add(id(root))
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in into:
                into.add(id(parent))
                stack.append(parent)


class Tracer:
    """Span store plus the counters kept at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.request = 0
        self.first_calls: dict[str, tuple] = {}
        self.step_nodes: dict[int, int] = {}
        self._step_sets: dict[int, set] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.process_time())
        return idx

    def begin_request(self) -> None:
        self.request += 1

    def close(self, idx: int) -> None:
        self.ends[idx] = time.process_time()
        self._stack.pop()
        nodes = self._step_sets.pop(idx, None)
        if nodes is not None:
            self.step_nodes[idx] = len(nodes)

    def note_graph(self, root) -> None:
        """Add the nodes reachable from a backward root to the enclosing
        gradient step's node set."""
        for idx in reversed(self._stack):
            if self.names[idx] in STEP_SPANS:
                _reachable(root, self._step_sets.setdefault(idx, set()))
                return

    def _wrap(self, fn, name: str, before=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name not in tracer.first_calls:
                tracer.first_calls[name] = (fn, args, kwargs)
            if before is not None:
                before(*args, **kwargs)
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "ctalign"]
        for qualified in TRACED:
            module_name, _, func = qualified.rpartition(".")
            original = getattr(sys.modules[module_name], func)
            name = _span_name(qualified)
            before = None
            if name == "autodiff.backward":
                # the node walk runs before the backward span opens, so it
                # lands in the step's self time and not in backward's
                before = lambda root: self.note_graph(root)  # noqa: E731
            wrapped = self._wrap(original, name, before)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapped)

    def tensors_built_by(self, name: str) -> int:
        """Replay the first traced call of ``name``, untraced, and count the
        autodiff Tensors it constructs; 0 if it was never called. Counting
        every construction inside the timed window would cost more than the
        spans themselves."""
        if name not in self.first_calls:
            return 0
        fn, args, kwargs = self.first_calls[name]
        tensor_cls = sys.modules["ctalign.autodiff"].Tensor
        init = tensor_cls.__init__
        built = 0

        def counting_init(obj, *a, **kw):
            nonlocal built
            built += 1
            init(obj, *a, **kw)

        tensor_cls.__init__ = counting_init
        try:
            fn(*args, **kwargs)
        finally:
            tensor_cls.__init__ = init
        return built

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": self.starts[i],
                            "end": self.ends[i],
                            "parent": self.parents[i],
                            "request": self.requests[i],
                        }
                    )
                    + "\n"
                )


def layer_metrics(tracer: Tracer, items: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced window that completed ``items``.

    A layer absent from the workload reports 0 calls and so 0 time.
    """
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    child_time = [0.0] * len(tracer.names)
    durations = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            child_time[parent] += durations[i]
    for i, name in enumerate(tracer.names):
        calls[name] += 1
        total[name] += durations[i]
        self_time[name] += durations[i] - child_time[i]

    def per_call_s(name: str) -> float:
        return total[name] / calls[name] if calls[name] else 0.0

    def per_call_ms(name: str) -> float:
        return 1e3 * per_call_s(name)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    steps = calls["losses.loss_gradients"] + calls["losses.warmup_gradients"]
    warmup_spans = {i for i, n in enumerate(tracer.names) if n == "losses.warmup_gradients"}
    backward_spans = [i for i, n in enumerate(tracer.names) if n == "autodiff.backward"]

    ms, s, count = "ms", "s", "count"
    return {
        "cli.run_train_self_s": (ratio(self_time["cli.run_train"], calls["cli.run_train"]), s),
        "losses.warmup_gradients_ms": (per_call_ms("losses.warmup_gradients"), ms),
        "losses.loss_gradients_ms": (per_call_ms("losses.loss_gradients"), ms),
        "model.batch_objective_ms": (per_call_ms("model.batch_objective"), ms),
        "autodiff.backward_ms": (per_call_ms("autodiff.backward"), ms),
        "autodiff.backward_calls_per_step": (ratio(len(backward_spans), steps), count),
        "autodiff.backward_calls_per_warmup_step": (
            ratio(sum(1 for i in backward_spans if tracer.parents[i] in warmup_spans), len(warmup_spans)),
            count,
        ),
        "autodiff.graph_nodes_per_step": (ratio(sum(tracer.step_nodes.values()), len(tracer.step_nodes)), count),
        "model.train_self_ms_per_step": (1e3 * ratio(self_time["model.train"], steps), ms),
        "model.generate_dataset_s": (per_call_s("model.generate_dataset"), s),
        "model.save_checkpoint_s": (per_call_s("model.save_checkpoint"), s),
        "model.save_dataset_s": (per_call_s("model.save_dataset"), s),
        "model.localization_report_s": (per_call_s("model.localization_report"), s),
        "metrics.prf_suite_ms": (per_call_ms("metrics.prf_suite"), ms),
        "model.predict_ms": (per_call_ms("model.predict"), ms),
        "autodiff.graph_nodes_per_predict": (tracer.tensors_built_by("model.predict"), count),
        "model.encode_ms": (per_call_ms("model.encode"), ms),
        "transport.backward_plan_ms": (per_call_ms("transport.backward_plan"), ms),
        "transport.export_plan_grid_ms": (per_call_ms("transport.export_plan_grid"), ms),
        "distributions.build_theta_ms": (per_call_ms("distributions.build_theta"), ms),
        "distributions.build_beta_ms": (per_call_ms("distributions.build_beta"), ms),
        "distributions.make_point_set_ms": (per_call_ms("distributions.make_point_set"), ms),
        "transport.ct_distance_ms": (per_call_ms("transport.ct_distance"), ms),
        "transport.cost_matrix_ms": (per_call_ms("transport.cost_matrix"), ms),
        "transport.forward_plan_ms": (per_call_ms("transport.forward_plan"), ms),
        "transport.navigator_distance_ms": (per_call_ms("transport.navigator_distance"), ms),
        "numerics.cosine_calls_per_item": (ratio(calls["numerics.cosine_similarity_matrix"], items), count),
    }
