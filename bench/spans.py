"""Span tracing of calls into the public functions of each boxchrom module.

`Tracer.install()` replaces every public function of every boxchrom module
with a wrapper, in every module namespace that holds a reference to it, so the
package's own cross-module calls are traced as well as the benchmark's.  A
span opens when a call enters a module from outside it; calls that stay inside
the module ride on the open span.  A module's self time is the time its spans
were open minus the time covered by the spans they caused.  Counters are
collected at the same boundaries from the calls' arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

MODULES = ("smallgraphs", "graphs", "spectra", "bounds", "solvers",
           "colouring", "hoffman", "transfer", "cli")

# iter_bits is the bitmask iterator behind every inner loop, not a layer call;
# wrapping it would time the tracer instead of the program.
UNTRACED = {("graphs", "iter_bits")}

MIN_COLOUR_SOLVERS = ("chromatic_improper", "chromatic_clustered", "chromatic_bfold")
SOLVERS = MIN_COLOUR_SOLVERS + ("alpha_d", "clique_number", "fractional_chromatic")

# (metric, module, entry functions whose self time it sums; None means all)
SELF_TIME_METRICS = (
    ("smallgraphs.generate_s", "smallgraphs", None),
    ("graphs.product_s", "graphs", {"strong_product"}),
    ("spectra.eigensolve_s", "spectra", None),
    ("bounds.report_s", "bounds", None),
    ("solvers.search_s", "solvers", None),
    ("colouring.check_s", "colouring", None),
    ("hoffman.diagnose_s", "hoffman", None),
    ("transfer.descend_s", "transfer", {"build_incidence", "descend", "eliminate_cycles",
                                        "find_small_component", "incidence_is_acyclic"}),
    ("transfer.replay_s", "transfer", {"replay_trace"}),
    ("cli.sweep_s", "cli", None),
)


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()
        self.count: Counter = Counter()
        self.spans = 0
        self.max_n = 0
        self.lb_optimal = 0
        self.lb_seeded = 0
        self.best_lower: dict = {}  # (graph, d) -> best_lower of its bound report
        self.chi_d: dict = {}  # (graph, d) -> exact chi^d solved in the same run
        self._stack: list[list] = []  # [module, entry, start, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self, *callers) -> None:
        """Wrap the public functions, also where the `callers` modules imported them."""
        mods = {name: importlib.import_module(f"boxchrom.{name}") for name in MODULES}
        wrappers = {}
        for name, mod in mods.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if callable(fn) and not isinstance(fn, type) and (name, attr) not in UNTRACED:
                    wrappers[id(fn)] = (fn, self._wrap(name, attr, fn))
        for mod in (*mods.values(), *callers):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)][1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, module: str, name: str, fn):
        key = (module, name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            try:
                if stack and stack[-1][0] == module:
                    result = fn(*args, **kwargs)
                else:
                    frame = [module, name, time.perf_counter(), 0.0]
                    stack.append(frame)
                    self.spans += 1
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        elapsed = time.perf_counter() - frame[2]
                        stack.pop()
                        self.self_s[(module, frame[1])] += elapsed - frame[3]
                        if stack:
                            stack[-1][3] += elapsed
            except BaseException:
                self.raised[key] += 1
                raise
            self._observe(module, name, args, kwargs, result)
            return result

        return wrapper

    # -- counters -------------------------------------------------------------

    def _observe(self, module: str, name: str, args: tuple, kwargs: dict, result) -> None:
        count = self.count
        if (module, name) in (("bounds", "bound_report"), ("solvers", "chromatic_improper")):
            d = args[1] if len(args) > 1 else kwargs["d"]
            if name == "bound_report":
                self.best_lower[(args[0], d)] = result.best_lower
            elif result.status == "optimal":
                self.chi_d[(args[0], d)] = result.value
        if module == "spectra" and name == "eigensolve":
            self.max_n = max(self.max_n, len(args[0]))
        elif module == "solvers":
            if result.status == "timeout":
                count["timeouts"] += 1
            if name == "fractional_chromatic":
                count["lp_pivots"] += result.nodes
            else:
                count["nodes"] += result.nodes
            if name in MIN_COLOUR_SOLVERS and result.status == "optimal":
                self.lb_optimal += 1
                self.lb_seeded += result.lower_bound_source != "search"
        elif module == "smallgraphs" and name == "connected_graphs":
            count["graphs"] += len(result)
        elif module == "transfer" and name == "descend":
            count["rounds"] += len(result.trace.rounds)
            count["eliminations"] += sum(len(elims) for elims, _ in result.trace.rounds)

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of everything traced since installation."""
        out: dict[str, float] = {}
        for metric, module, entries in SELF_TIME_METRICS:
            out[metric] = sum(s for (m, e), s in self.self_s.items()
                              if m == module and (entries is None or e in entries))
        calls, count = self.calls, self.count
        out["spectra.calls"] = calls[("spectra", "eigensolve")]
        out["spectra.max_n"] = self.max_n
        out["solvers.solves"] = sum(calls[("solvers", s)] for s in SOLVERS)
        out["solvers.nodes"] = count["nodes"]
        search_s = out["solvers.search_s"]
        out["solvers.nodes_per_s"] = count["nodes"] / search_s if search_s else 0.0
        out["solvers.seeded_lb_optimal_frac"] = (self.lb_seeded / self.lb_optimal
                                                 if self.lb_optimal else 0.0)
        out["solvers.timeouts"] = count["timeouts"]
        out["solvers.lp_pivots"] = count["lp_pivots"]
        out["bounds.reports"] = calls[("bounds", "bound_report")] - self.raised[("bounds", "bound_report")]
        known = [key for key in self.best_lower if key in self.chi_d]
        out["bounds.tight_frac"] = (sum(self.best_lower[k] == self.chi_d[k] for k in known) / len(known)
                                    if known else 0.0)
        out["bounds.failures"] = self.raised[("bounds", "bound_report")]
        out["graphs.products"] = calls[("graphs", "strong_product")]
        out["smallgraphs.graphs"] = count["graphs"]
        out["transfer.descents"] = calls[("transfer", "descend")] - self.raised[("transfer", "descend")]
        out["transfer.rounds"] = count["rounds"]
        out["transfer.eliminations"] = count["eliminations"]
        out["hoffman.diagnoses"] = calls[("hoffman", "diagnose_hoffman")] - self.raised[("hoffman", "diagnose_hoffman")]
        out["trace.spans"] = self.spans
        return out
