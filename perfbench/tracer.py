"""Spans around the calls into cowlib's modules, recorded from outside them.

``Tracer.install`` wraps each public function named in ``SPANS`` and
rebinds the wrapper in every cowlib module that holds the function, since
``from ... import`` copies the name into the importing module.  Each call
becomes a span; a span's self time is its duration minus the time covered
by its child spans.  Spans are aggregated in memory as they close (calls,
total and self time per name, and calls per parent -> child edge), and the
aggregate is written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

# (span name, module, attribute); a class attribute is given as "Class.attr"
SPANS: List[Tuple[str, str, str]] = [
    ("cli.main", "cowlib.cli", "main"),
    ("cli.read_csv", "cowlib.cli", "read_csv"),
    ("cli.write_csv", "cowlib.cli", "write_csv"),
    ("cli.canonical_json", "cowlib.cli", "canonical_json"),
    ("diagnostics.kendall_tau", "cowlib.diagnostics", "kendall_tau"),
    ("densities.Density1D.init", "cowlib.densities", "Density1D.__init__"),
    ("densities.Density1D.pdf", "cowlib.densities", "Density1D.pdf"),
    ("quadrature.integrate", "cowlib.densities", "integrate"),
    ("quadrature.integrate", "cowlib._quadrature", "integrate"),
    ("mlfit.optimizer", "cowlib.mlfit", "minimize"),
    ("mlfit.numerical_hessian", "cowlib.mlfit", "numerical_hessian"),
    ("mlfit.fit_extended_ml", "cowlib.mlfit", "fit_extended_ml"),
    ("mlfit.fit_weighted_ml", "cowlib.mlfit", "fit_weighted_ml"),
    ("sweights.compute_W", "cowlib.sweights", "compute_W_variant_A"),
    ("sweights.compute_W", "cowlib.sweights", "compute_W_variant_B"),
    ("sweights.compute_W", "cowlib.sweights", "compute_W_variant_C"),
    ("sweights.weight_functions", "cowlib.sweights", "weight_functions"),
    ("cows.variance_fn_ml_iterative", "cowlib.cows", "variance_fn_ml_iterative"),
    ("cows.variance_fn_qm", "cowlib.cows", "variance_fn_qm"),
    ("cows.build_cow", "cowlib.cows", "build_cow"),
    ("cows.efficiency_corrected_weights", "cowlib.cows", "efficiency_corrected_weights"),
    ("wcov.corrected_covariance_fixed_shapes", "cowlib.wcov", "corrected_covariance_fixed_shapes"),
    ("wcov.corrected_covariance_cow", "cowlib.wcov", "corrected_covariance_cow"),
    ("toygen.run_toy", "cowlib.toygen", "run_toy"),
    ("toygen.generate", "cowlib.toygen", "generate"),
]
SPAN_NAMES = list(dict.fromkeys(name for name, _, _ in SPANS))


def cowlib_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cowlib" or name.startswith("cowlib."))]


def rebind(original, replacement) -> List[Tuple[object, str, object]]:
    """Point every cowlib module-level name bound to ``original`` at ``replacement``.

    Returns (module, name, previous value) triples for ``restore``.
    """
    done = []
    for mod in cowlib_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                done.append((mod, attr, original))
    return done


def restore(patches):
    for owner, attr, value in reversed(patches):
        setattr(owner, attr, value)


class Tracer:
    """Aggregating span recorder; install, run the workload, uninstall."""

    def __init__(self):
        self.calls: Dict[str, int] = Counter()
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.edges: Dict[Tuple[str, str], int] = Counter()
        self.counts: Dict[str, int] = Counter()
        self._stack: List[list] = []
        self._patches: list = []

    # -- recording ------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, on_result: Callable = None) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)  # a layer calling itself is one span
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                    self.edges[(stack[-1][0], name)] += 1
            if on_result is not None:
                on_result(result)
            return result

        return span

    def _fit_result(self, fit):
        self.counts["mlfit.nll_evals"] += int(fit.n_calls)
        self.counts["mlfit.not_converged"] += int(not fit.converged)

    def _toy_record(self, record):
        self.counts["toygen.method_failures"] += sum(
            not res.get("ok") for res in record.get("methods", {}).values())

    # -- installation ---------------------------------------------------------

    def install(self):
        on_result = {"mlfit.fit_extended_ml": self._fit_result,
                     "mlfit.fit_weighted_ml": self._fit_result,
                     "toygen.run_toy": self._toy_record}
        for name, module, attr in SPANS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self.wrap(name, original))
                self._patches.append((owner, attr, original))
            else:
                original = getattr(owner, attr)
                wrapped = self.wrap(name, original, on_result.get(name))
                self._patches.extend(rebind(original, wrapped))

    def uninstall(self):
        restore(self._patches)
        self._patches = []

    # -- results --------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_time[name]
        for name in ("mlfit.nll_evals", "mlfit.not_converged", "toygen.method_failures"):
            out[name] = self.counts[name]
        iterative = self.calls["cows.variance_fn_ml_iterative"]
        out["cows.build_cow_per_iterative_call"] = (
            self.edges[("cows.variance_fn_ml_iterative", "cows.build_cow")] / iterative
            if iterative else 0.0)
        return out

    def profile(self) -> dict:
        return {"spans": {n: {"calls": self.calls[n], "total_s": self.total[n],
                              "self_s": self.self_time[n]} for n in SPAN_NAMES},
                "edges": [{"parent": p, "child": c, "calls": k}
                          for (p, c), k in sorted(self.edges.items())]}
