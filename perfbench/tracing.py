"""Spans and counters around helikon's public functions, installed from outside.

Tracer.install() replaces each wrapped function wherever a helikon module
holds it, because most modules import their dependencies by name (e.g.
`from .expr import eval_expr` in surface, solver, mesh and divisor), and
replaces wrapped methods on their classes.  uninstall() puts the originals
back.

Every wrapped call pushes a frame that accumulates its children's time, so
a layer's self time is its calls' duration minus the time its wrapped
children took.  Calls of the hot leaves (eval_expr and the four kernels,
millions per pass) are aggregated only; every other call is also kept as a
span (id, parent id, name, start, end) in memory and written out by dump().
Some counters only count: the GK panels, the Dijkstra runs and the heap pops.
"""

import heapq
import json
import time
import types
from collections import defaultdict

# (module, attribute, layer, counter, hot); counter is None, a metric name
# counted once per call, or a (metric, function of (args, result)) pair.
FUNCTIONS = [
    ("helikon.kernels", "wp", "kernels", "kernels.calls", True),
    ("helikon.kernels", "wp_prime", "kernels", "kernels.calls", True),
    ("helikon.kernels", "zeta_w", "kernels", "kernels.calls", True),
    ("helikon.kernels", "sigma_w", "kernels", "kernels.calls", True),
    ("helikon.expr", "eval_expr", "expr", "expr.evals", True),
    ("helikon.paths", "integrate_path", "paths", "paths.integrals", False),
    ("helikon.divisor", "residue", "divisor", "divisor.residues", False),
    ("helikon.divisor", "laurent_coefficient", "divisor", "divisor.residues", False),
    ("helikon.divisor", "locate_divisor", "divisor", "divisor.locates", False),
    ("helikon.divisor", "divisor_audit", "divisor", None, False),
    ("helikon.divisor", "classify_fixed_point", "divisor", None, False),
    ("helikon.surface", "period_report", "surface",
     ("surface.period_triples", lambda args, res: len(res.entries)), False),
    ("helikon.surface", "flux", "surface", "surface.period_triples", False),
    ("helikon.surface", "immerse", "surface", "surface.period_triples", False),
    ("helikon.surface", "symmetry_verify", "surface", None, False),
    ("helikon.surface", "involution_report", "surface", None, False),
    ("helikon.surface", "is_vertical_flux", "surface", None, False),
    ("helikon.solver", "solve", "solver",
     ("solver.newton_iters", lambda args, res: res.iterations), False),
    ("helikon.solver", "standard_g1h_family", "solver", None, False),
    ("helikon.solver", "periodic_g1h_family", "solver", None, False),
    ("helikon.solver", "asymptotic_residual", "solver", None, False),
    ("helikon.mesh", "build_mesh", "mesh", "mesh.builds", False),
    ("helikon.mesh", "probe_self_intersection", "mesh", None, False),
    ("helikon.mesh", "lambda_sweep", "mesh", None, False),
    ("helikon.scene", "load_scene", "scene", None, False),
    ("helikon.cli", "run", "cli", None, False),
    ("helikon.cli", "_report_json", "cli", None, False),
]

# (module, class, method, layer, counter)
METHODS = [
    ("helikon.lattice", "Lattice", "__post_init__", "lattice", "lattice.builds"),
    ("helikon.solver", "FamilySpec", "residual_vector", "solver",
     "solver.residual_evals"),
    ("helikon.solver", "HorizontalPeriod", "evaluate", "solver", None),
]

# counted, not timed: (module, attribute, metric)
COUNTED = [
    ("helikon.paths", "_gk_panel", "paths.panels"),
    ("helikon.mesh", "_graph_distance", "mesh.dijkstra_runs"),
]

# inclusive wall time of every call of a function: (name, metric)
INCLUSIVE = [
    ("helikon.mesh.build_mesh", "mesh.build_s"),
    ("helikon.mesh.probe_self_intersection", "mesh.probe_s"),
    ("helikon.scene.load_scene", "scene.load_s"),
]

SELF_TIME = {
    "kernels": "kernels.self_s",
    "expr": "expr.self_s",
    "paths": "paths.self_s",
    "divisor": "divisor.self_s",
    "surface": "surface.self_s",
    "solver": "solver.self_s",
    "cli": "cli.report_s",
}

COUNTS = [
    "kernels.calls", "lattice.builds", "expr.evals", "paths.integrals",
    "paths.panels", "divisor.residues", "divisor.locates",
    "surface.period_triples", "solver.residual_evals", "solver.newton_iters",
    "mesh.builds", "mesh.dijkstra_runs", "mesh.heap_pops",
]


class Tracer:
    """Collects spans, per-layer self times and counters while installed."""

    def __init__(self, modules):
        self.modules = modules  # name -> imported helikon module
        self.reset()
        self._undo = []

    def reset(self):
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.spans = []
        self._stack = []  # frames: [span id of nearest recorded call, child s]

    def _wrap(self, fn, name, layer, counter, hot):
        stack = self._stack
        counts, self_s, inclusive_s = self.counts, self.self_s, self.inclusive_s
        spans = self.spans
        clock = time.perf_counter
        metric, count_of = (counter if isinstance(counter, tuple)
                            else (counter, None))

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            if hot:
                frame = [parent, 0.0]
            else:
                frame = [len(spans), 0.0]
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[layer] += dur - frame[1]
                inclusive_s[name] += dur
                if stack:
                    stack[-1][1] += dur
                if not hot:
                    spans[frame[0]] = (frame[0], parent, name, t0, t1)
            if metric is not None:
                counts[metric] += 1 if count_of is None else count_of(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, fn, metric):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _replace_everywhere(self, original, wrapper):
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self):
        mods = self.modules
        for modname, attr, layer, counter, hot in FUNCTIONS:
            fn = getattr(mods[modname], attr)
            self._replace_everywhere(
                fn, self._wrap(fn, f"{modname}.{attr}", layer, counter, hot))
        for modname, cls_name, attr, layer, counter in METHODS:
            cls = getattr(mods[modname], cls_name)
            fn = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(
                fn, f"{modname}.{cls_name}.{attr}", layer, counter, False))
            self._undo.append((cls, attr, fn))
        for modname, attr, metric in COUNTED:
            fn = getattr(mods[modname], attr)
            self._replace_everywhere(fn, self._counted(fn, metric))
        mesh = mods["helikon.mesh"]
        proxy = types.SimpleNamespace(
            heappush=heapq.heappush,
            heappop=self._counted(heapq.heappop, "mesh.heap_pops"),
        )
        self._undo.append((mesh, "heapq", mesh.heapq))
        mesh.heapq = proxy

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self):
        """Per-layer totals: every counter, self time and inclusive time."""
        out = {name: (self.counts[name], "count") for name in COUNTS}
        for layer, name in SELF_TIME.items():
            out[name] = (self.self_s[layer], "s")
        for fn_name, name in INCLUSIVE:
            out[name] = (self.inclusive_s[fn_name], "s")
        return out

    def dump(self, path, extra):
        """Write the spans and the totals as one JSON document."""
        doc = dict(extra)
        doc["self_s"] = dict(self.self_s)
        doc["inclusive_s"] = dict(self.inclusive_s)
        doc["counts"] = dict(self.counts)
        doc["span_fields"] = ["id", "parent", "name", "start", "end"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
