"""Per-layer spans and counts, recorded from outside the program.

A ``Tracer`` replaces the public functions of each ``ermakov`` module, in
every module that imported them, with wrappers that open a span, count the
call and hand the work back to the original.  ``install`` and ``uninstall``
bracket one traced op, so untraced ops run the unmodified program.

Spans are folded into totals as they close rather than stored: a span
charges its duration, minus the time of the spans it caused, to its layer's
self time.  A metric's time is inclusive and counts only the outermost call
of that metric, so recursion is not counted twice.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

LAYERS = ("config", "expressions", "systems", "integration", "linearize", "numerics", "cli")

# (module, attribute, layer, metric, outermost calls only)
# metric None opens a span for layer attribution without a metric of its own.
_FUNCTIONS = (
    ("config", "load_config", "config", "config.load", False),
    ("config", "build_spec", "config", None, False),
    ("config", "polar_view", "config", None, False),
    ("config", "linearizable_view", "config", None, False),
    ("expressions", "evaluate", "expressions", "expressions.evaluate", False),
    ("expressions", "differentiate", "expressions", "expressions.derive", True),
    ("expressions", "simplify", "expressions", "expressions.derive", True),
    ("expressions", "parse", "expressions", "expressions.parse", True),
    ("expressions", "substitute", "expressions", "expressions.substitute", True),
    ("systems", "potential_value_from_fg", "systems", "systems.potential", False),
    ("systems", "potential_expression", "systems", None, False),
    ("systems", "free_motion_system", "systems", None, False),
    ("systems", "winternitz_system", "systems", None, False),
    ("systems", "kepler_as_linearizable", "systems", None, False),
    ("systems", "frequency_from_linearizable", "systems", None, False),
    ("systems", "polar_rhs_function", "systems", None, False),
    ("integration", "integrate", "integration", "integration.integrate", False),
    ("integration", "integrate_polar", "integration", None, False),
    ("integration", "monitor_invariant", "integration", None, False),
    ("linearize", "auto_theta_domain", "linearize", "linearize.domain_scan", False),
    ("linearize", "build_linear_ode", "linearize", "linearize.build_ode", False),
    ("linearize", "solve_linear", "linearize", "linearize.solve_linear", False),
    ("linearize", "time_quadrature", "linearize", "linearize.time_quadrature", False),
    ("linearize", "verify_compatibility", "linearize", "linearize.compat", False),
    ("linearize", "build_pipeline", "linearize", None, False),
    ("numerics", "quad_adaptive", "numerics", "numerics.quad", False),
    ("numerics", "solve_bracketed", "numerics", "numerics.root", False),
    ("cli", "main", "cli", None, False),
    ("cli", "_write_csv", "cli", "cli.write", False),
    ("cli", "_write_json", "cli", "cli.write", False),
)

# (module, class, method, layer, metric)
_METHODS = (
    ("integration", "Trajectory", "at", "integration", "integration.dense"),
    ("integration", "Trajectory", "sample", "integration", None),
    ("linearize", "QuadratureSolution", "theta_at", "linearize", "linearize.theta_of_t"),
    ("linearize", "QuadratureSolution", "t_at", "linearize", None),
    ("numerics", "CumulativeIntegral", "__call__", "numerics", None),
)


def _layer_of(fn) -> str:
    """Layer of a callback the program hands to a numerical routine."""
    return (getattr(fn, "__module__", None) or "").rpartition(".")[2]


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.times: Counter = Counter()
        self.self_time: Counter = Counter()
        self.missing: set[str] = set()
        self._depth: Counter = Counter()
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op_integrations: list[dict] = []
        self.op_cumulative: list[object] = []
        self.disagreements: list[str] = []

    # -- spans -------------------------------------------------------------

    def _call(self, fn, layer, metric, outer_only, args, kwargs):
        depth = self._depth[metric] if metric else 0
        if outer_only and depth:
            return fn(*args, **kwargs)
        if metric:
            self.counts[metric] += 1
            self._depth[metric] = depth + 1
        frame = [0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            self.self_time[layer] += dt - frame[0]
            if self._stack:
                self._stack[-1][0] += dt
            if metric:
                self._depth[metric] = depth
                if depth == 0:
                    self.times[metric] += dt

    def _wrap(self, fn, layer, metric, outer_only=False):
        def traced(*args, **kwargs):
            return self._call(fn, layer, metric, outer_only, args, kwargs)

        return traced

    def _callback(self, fn, metric, tally=None):
        """Span and count around a callable passed into a numerical routine."""
        layer = _layer_of(fn)

        def traced(*args):
            if tally is not None:
                tally[0] += 1
            return self._call(fn, layer, metric, False, args, {})

        return traced

    # -- hooks that need the arguments or the result -------------------------

    def _integrate(self, original):
        def traced(rhs, y0, cfg, *rest, **kwargs):
            tally = [0]
            counted = self._callback(rhs, "integration.rhs", tally)
            traj = self._call(
                original, "integration", "integration.integrate", False,
                (counted, y0, cfg, *rest), kwargs,
            )
            # Every attempted step makes six RHS calls after the initial
            # derivative and, without a given first step, the step estimate.
            initial = 1 if cfg.first_step is None else 0
            attempts, leftover = divmod(tally[0] - 1 - initial, 6)
            accepted = len(traj.ts) - 1
            rejected = attempts - accepted
            self.counts["integration.steps_accepted"] += accepted
            self.counts["integration.steps_rejected"] += rejected
            own = (traj.n_rhs, traj.n_accepted, traj.n_rejected)
            if leftover or (tally[0], accepted, rejected) != own:
                self.disagreements.append(
                    f"integrate: traced rhs/accepted/rejected {(tally[0], accepted, rejected)}"
                    f" != program {own}"
                )
            self.op_integrations.append({"accepted": accepted, "rejected": rejected})
            return traj

        return traced

    def _quad(self, original):
        def traced(fn, a, b, **kwargs):
            counted = self._callback(fn, "numerics.integrand")
            return self._call(original, "numerics", "numerics.quad", False, (counted, a, b), kwargs)

        return traced

    def _root(self, original):
        def traced(fn, lo, hi, **kwargs):
            counted = self._callback(fn, "numerics.root_eval")
            return self._call(original, "numerics", "numerics.root", False, (counted, lo, hi), kwargs)

        return traced

    def _cumulative_init(self, original):
        def traced(inst, *args, **kwargs):
            original(inst, *args, **kwargs)
            self.op_cumulative.append(inst)

        return traced

    # -- installing ----------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "ermakov" or name.startswith("ermakov.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        special = {
            ("integration", "integrate"): self._integrate,
            ("numerics", "quad_adaptive"): self._quad,
            ("numerics", "solve_bracketed"): self._root,
        }
        for mod_name, attr, layer, metric, outer_only in _FUNCTIONS:
            module = sys.modules.get(f"ermakov.{mod_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(f"{mod_name}.{attr}")
                continue
            hook = special.get((mod_name, attr))
            wrapper = hook(original) if hook else self._wrap(original, layer, metric, outer_only)
            self._replace_everywhere(original, wrapper)
        for mod_name, cls_name, attr, layer, metric in _METHODS:
            cls = getattr(sys.modules.get(f"ermakov.{mod_name}"), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                self.missing.add(f"{mod_name}.{cls_name}.{attr}")
                continue
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, layer, metric))
        cls = getattr(sys.modules.get("ermakov.numerics"), "CumulativeIntegral", None)
        if cls is not None:
            self._patches.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._cumulative_init(cls.__init__)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def finish_op(self) -> tuple[list[dict], list[str]]:
        """Close one op: count its cumulative-integral knots, hand back its
        integrations and any disagreement with the program's counters."""
        for inst in self.op_cumulative:
            self.counts["numerics.cumint_knots"] += len(inst.knots[0]) - 1
        self.op_cumulative.clear()
        integrations, self.op_integrations = self.op_integrations, []
        disagreements, self.disagreements = self.disagreements, []
        return integrations, disagreements


def per_layer_metrics(tracer: Tracer, ops: int, extra: dict[str, float]) -> dict:
    """The per-layer metrics, as means per traced op (ratios from totals)."""
    c, t = tracer.counts, tracer.times
    n = max(ops, 1)

    def ratio(a, b):
        return a / b if b else 0.0

    steps = c["integration.steps_accepted"] + c["integration.steps_rejected"]
    values = {
        "config.load_s": (t["config.load"] / n, "s/op"),
        "expressions.evaluate_calls": (c["expressions.evaluate"] / n, "count/op"),
        "expressions.evaluate_s": (t["expressions.evaluate"] / n, "s/op"),
        "expressions.us_per_eval": (
            1e6 * ratio(t["expressions.evaluate"], c["expressions.evaluate"]), "us"),
        "expressions.derive_calls": (c["expressions.derive"] / n, "count/op"),
        "expressions.derive_s": (t["expressions.derive"] / n, "s/op"),
        "systems.potential_quad_calls": (c["systems.potential"] / n, "count/op"),
        "systems.potential_s": (t["systems.potential"] / n, "s/op"),
        "integration.integrate_calls": (c["integration.integrate"] / n, "count/op"),
        "integration.rhs_evals": (c["integration.rhs"] / n, "count/op"),
        "integration.steps_accepted": (c["integration.steps_accepted"] / n, "count/op"),
        "integration.steps_rejected": (c["integration.steps_rejected"] / n, "count/op"),
        "integration.accept_ratio": (ratio(c["integration.steps_accepted"], steps), "ratio"),
        "integration.integrate_s": (t["integration.integrate"] / n, "s/op"),
        "integration.dense_lookups": (c["integration.dense"] / n, "count/op"),
        "integration.dense_s": (t["integration.dense"] / n, "s/op"),
        "linearize.domain_scan_s": (t["linearize.domain_scan"] / n, "s/op"),
        "linearize.build_ode_s": (t["linearize.build_ode"] / n, "s/op"),
        "linearize.solve_linear_s": (t["linearize.solve_linear"] / n, "s/op"),
        "linearize.time_quadrature_s": (t["linearize.time_quadrature"] / n, "s/op"),
        "linearize.theta_of_t_calls": (c["linearize.theta_of_t"] / n, "count/op"),
        "linearize.theta_of_t_s": (t["linearize.theta_of_t"] / n, "s/op"),
        "linearize.us_per_theta_of_t": (
            1e6 * ratio(t["linearize.theta_of_t"], c["linearize.theta_of_t"]), "us"),
        "linearize.compat_calls": (c["linearize.compat"] / n, "count/op"),
        "linearize.compat_s": (t["linearize.compat"] / n, "s/op"),
        "numerics.quad_calls": (c["numerics.quad"] / n, "count/op"),
        "numerics.integrand_evals": (c["numerics.integrand"] / n, "count/op"),
        "numerics.quad_s": (t["numerics.quad"] / n, "s/op"),
        "numerics.root_solves": (c["numerics.root"] / n, "count/op"),
        "numerics.evals_per_root": (ratio(c["numerics.root_eval"], c["numerics.root"]), "ratio"),
        "numerics.cumint_knots": (c["numerics.cumint_knots"] / n, "count/op"),
        "cli.write_s": (t["cli.write"] / n, "s/op"),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (tracer.self_time[layer] / n, "s/op")
    values.update(extra)
    return values
