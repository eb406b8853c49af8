"""Layer spans around calls into heavenlab, recorded from outside the package.

A `Tracer` wraps the public functions of each heavenlab module and the
`Operator` arithmetic methods while it is installed.  Functions that other
modules import by name (`from .besselop import check_recurrence`) are
rebound in every module that holds them, and methods are patched on their
class, so no call escapes the trace.  Leaving the `with` block restores every
original.

Each call is a span: name, start, end, parent span and verify id.  Calls,
inclusive time and self time are summed per span name as spans end.  A
span's self time is its duration minus the durations of its direct children;
children never overlap because the program is single threaded.  The spans
themselves are kept in memory while `keep_spans` is true (a float pass makes
about 20 000 of them per verify) and written out by `write`.
"""
from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Optional, Union

MODULES = ("opcore", "report", "besselop", "adjoint", "prolong", "eds", "cli")

# module -> public functions timed as "<module>.<function>" spans
FUNCTIONS = {
    "opcore": ("frobenius", "operator_exp"),
    "besselop": (
        "check_recurrence",
        "bessel_series",
        "series_eval",
        "bessel_eval",
        "sum_rule_residual",
    ),
    "adjoint": ("ad_apply", "bch_series", "bch_conjugate"),
    "prolong": (
        "solution_cal_form",
        "cal_bessel",
        "solution_L_form",
        "ode_residual",
        "prolongation_residual",
    ),
    "eds": ("closure_check", "check_proposition1", "constraint_residuals", "ideal_membership"),
    "report": ("render_structured",),
    "cli": ("parse_scenario",),
}

# span that measures exact-matmul bit lengths; it is tracing work
BITS_SPAN = "trace.bits"
VERIFY_SPAN = "verify"


class Tracer:
    """Installs layer spans into an imported heavenlab package."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.keep_spans = True
        # span name -> [calls, inclusive seconds, self seconds]
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.fraction_bits_max = 0
        self.membership_attempts = 0
        self.membership_found = 0
        self.verifies = 0
        # open spans, innermost last: [span id, seconds covered by children]
        self._stack: list[list] = [[0, 0.0]]
        self._next_id = 1
        self._verify_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installing and removing ---------------------------------------------

    def __enter__(self) -> "Tracer":
        mods = {name: sys.modules[f"heavenlab.{name}"] for name in MODULES}
        for mod_name, names in FUNCTIONS.items():
            for fn_name in names:
                original = getattr(mods[mod_name], fn_name)
                after = self._after_membership if fn_name == "ideal_membership" else None
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original, after)
                for mod in mods.values():
                    if getattr(mod, fn_name, None) is original:
                        self._patch(mod, fn_name, wrapper)
        opcore, prolong, cli = mods["opcore"], mods["prolong"], mods["cli"]
        op = opcore.Operator
        by_mode = lambda stem: lambda args: f"{stem}.{args[0].mode}"
        self._patch(op, "__matmul__", self._wrap(
            by_mode("opcore.matmul"), op.__matmul__, self._after_matmul))
        self._patch(op, "scale", self._wrap(by_mode("opcore.scale"), op.scale))
        self._patch(op, "__add__", self._wrap(by_mode("opcore.addsub"), op.__add__))
        self._patch(op, "__sub__", self._wrap(by_mode("opcore.addsub"), op.__sub__))
        inst = prolong.ProlongationInstance
        self._patch(inst, "to_float", self._wrap("prolong.to_float", inst.to_float))
        # run_suite is reached through cli's module global from run_scenario
        self._patch(cli, "run_suite", self._wrap(
            lambda args: f"cli.suite.{args[1]}", cli.run_suite))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- spans ---------------------------------------------------------------

    def _wrap(
        self,
        name: Union[str, Callable[[tuple], str]],
        fn: Callable,
        after: Optional[Callable[[object], None]] = None,
    ) -> Callable:
        def wrapper(*args, **kwargs):
            span = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._close(span, name if isinstance(name, str) else name(args), start, end)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _open(self) -> list:
        span = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span: list, name: str, start: float, end: float) -> None:
        self._stack.pop()
        parent = self._stack[-1]
        seconds = end - start
        parent[1] += seconds
        row = self.totals[name]
        row[0] += 1
        row[1] += seconds
        row[2] += seconds - span[1]
        if self.keep_spans:
            self.spans.append((span[0], name, start, end, parent[0], self._verify_id))

    def _after_matmul(self, result) -> None:
        """Peak bit length of an exact product, timed as a span of its own.

        The measuring span sits beside the matmul span, so its time counts
        towards no layer's self time; it shows in trace.overhead_ratio only.
        """
        if result.mode != "exact":
            return
        span = self._open()
        start = time.perf_counter()
        bits = max(
            max(x.numerator.bit_length(), x.denominator.bit_length())
            for x in result.data.flat
        )
        self.fraction_bits_max = max(self.fraction_bits_max, bits)
        self._close(span, BITS_SPAN, start, time.perf_counter())

    def _after_membership(self, result) -> None:
        self.membership_attempts += 1
        self.membership_found += result is not None

    def verify(self, fn: Callable[[], int]) -> int:
        """Run one verify as a root span with its own verify id."""
        self.verifies += 1
        self._verify_id = self.verifies
        return self._wrap(VERIFY_SPAN, fn)()

    # -- results -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the kept spans, gzipped, one JSON line each:
        [id, name, start, end, parent id, verify id]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
