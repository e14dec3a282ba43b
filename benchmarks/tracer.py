"""Spans and counters recorded around ``subord``'s public functions, from outside.

:class:`Tracer` replaces each traced function with a wrapper in every
``subord`` module that holds a reference to it (``from .fourier_core import
forward_ft`` copies the name into the importing module) and on the classes
whose methods it traces, then puts every original back.  The package's own
code is not touched.

A span is ``(name, start, end, parent)``; a span's self time is its duration
minus the durations of its direct children.  Spans stay in memory until
:meth:`Tracer.write` dumps them as JSON lines.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import sys
import time
from collections import Counter, defaultdict

import numpy as np

#: time spent hashing transform inputs for the distinct-input ratio; it is a
#: span of its own so that it is not charged to the caller's self time
DIGEST_SPAN = "trace.digest"

#: traced span -> the name its call count is reported under (None: time only)
TIMED_SPANS = {
    "fourier_core.forward_ft": "calls",
    "fourier_core.inverse_ft": "calls",
    "fourier_core.SampledFunction": "constructions",
    "fourier_core.lp_norm": "calls",
    "measures.wiener_norm": "calls",
    "comparison.Multiplier": "evals",
    "comparison.ratio_multiplier": None,
    "comparison.apply_multiplier": "calls",
    "comparison.verify_comparison": None,
    "summability.gw_mean": "calls",
    "summability.gw_verify": None,
    "diffops.construct_decomposition": None,
    "diffops.apply_diffop": "calls",
    "diffops.diffop_subordination": None,
    "testkit.materialize": "calls",
}
#: counters kept by the wrappers
COUNTERS = (
    "fourier_core.forward_ft.points",
    "fourier_core.inverse_ft.points",
    "measures.wiener_norm.fft_points",
    "comparison.Multiplier.points",
    "cases",
)


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []          # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._digests: set = set()           # (invocation, grid, digest) of transform inputs
        self._invocation = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._open)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the durations of direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            totals[name] += end - start - inner
        return totals

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    # -- wrappers ------------------------------------------------------------

    def _wrapper(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if after is not None:
                after(result)
            return result
        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_function(self, module, attr: str, name: str, before=None, after=None) -> None:
        original = getattr(module, attr)
        traced = self._wrapper(name, original, before, after)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "") or ""
            if mod_name == "subord" or mod_name.startswith("subord."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, traced)

    def _patch_method(self, cls, attr: str, name: str, before=None) -> None:
        self._replace(cls, attr, self._wrapper(name, getattr(cls, attr), before))

    def install(self) -> None:
        """Wrap the traced functions of every layer; undo with :meth:`remove`."""
        from subord import cli, comparison, diffops, fourier_core, measures, summability, testkit

        def forward_in(args):
            values = args[0].values
            self.counts["fourier_core.forward_ft.points"] += values.size
            index = self._begin(DIGEST_SPAN)
            digest = hashlib.blake2b(values.tobytes(), digest_size=16).digest()
            self._end(index)
            self._digests.add((self._invocation, args[0].grid, digest))

        def next_invocation(args):
            # distinct inputs are counted per CLI call: separate processes share nothing
            self._invocation += 1

        def inverse_in(args):
            points = args[0].values.size
            self.counts["fourier_core.inverse_ft.points"] += points
            if self._inside("measures.wiener_norm"):
                self.counts["measures.wiener_norm.fft_points"] += points

        def symbol_in(args):
            self.counts["comparison.Multiplier.points"] += np.size(args[1])

        def count_cases(result):
            self.counts["cases"] += len(result.cases)

        self._patch_function(fourier_core, "forward_ft", "fourier_core.forward_ft", forward_in)
        self._patch_function(fourier_core, "inverse_ft", "fourier_core.inverse_ft", inverse_in)
        self._patch_function(fourier_core, "lp_norm", "fourier_core.lp_norm")
        self._patch_method(fourier_core.SampledFunction, "__post_init__",
                           "fourier_core.SampledFunction")
        self._patch_function(measures, "wiener_norm", "measures.wiener_norm")
        self._patch_method(comparison.Multiplier, "__call__", "comparison.Multiplier", symbol_in)
        self._patch_function(comparison, "ratio_multiplier", "comparison.ratio_multiplier")
        self._patch_function(comparison, "apply_multiplier", "comparison.apply_multiplier")
        self._patch_function(comparison, "verify_comparison", "comparison.verify_comparison",
                             after=count_cases)
        self._patch_function(summability, "gw_mean", "summability.gw_mean")
        self._patch_function(summability, "gw_verify", "summability.gw_verify",
                             after=count_cases)
        self._patch_function(diffops, "construct_decomposition", "diffops.construct_decomposition")
        self._patch_function(diffops, "apply_diffop", "diffops.apply_diffop")
        self._patch_function(diffops, "diffop_subordination", "diffops.diffop_subordination",
                             after=count_cases)
        self._patch_function(testkit, "materialize", "testkit.materialize")
        self._patch_function(cli, "main", "cli.main", next_invocation)

    def remove(self) -> None:
        """Put back every original the wrappers replaced."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer counts and self times as ``name -> (value, unit)``."""
        calls = self.calls()
        own = self.self_times()
        out = {}
        for span, count_name in TIMED_SPANS.items():
            if count_name:
                out[f"{span}.{count_name}"] = (calls[span], "count")
            out[f"{span}.s"] = (own[span], "s")
        for name in COUNTERS:
            out[name] = (self.counts[name], "count")
        forward = calls["fourier_core.forward_ft"]
        out["fourier_core.forward_ft.distinct_ratio"] = (
            len(self._digests) / forward if forward else 0.0, "ratio")
        out["cli.main.self_s"] = (own["cli.main"], "s")
        cases = self.counts["cases"]
        transforms = forward + calls["fourier_core.inverse_ft"]
        out["transforms_per_case"] = (transforms / cases if cases else 0.0, "ratio")
        return out

    def write(self, path) -> None:
        """Dump the spans as JSON lines: name, start, end (seconds), parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


_IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)\s*$")


def parse_importtime(text: str) -> dict[str, float]:
    """Start-up breakdown from ``python -X importtime`` output.

    ``import_s`` is the cumulative time of the top-level ``subord`` imports;
    ``scipy_import_s`` sums the outermost ``scipy`` imports wherever they
    occur.  Children are printed before their parent and indented deeper, so
    the parent of a line is the next line below it with less indentation.
    """
    entries = []
    for line in text.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            entries.append((len(match.group(3)), match.group(4), int(match.group(2)) * 1e-6))
    top = min((depth for depth, _, _ in entries), default=0)
    subord_s = sum(cum for depth, name, cum in entries
                   if depth == top and (name == "subord" or name.startswith("subord.")))
    scipy_s = 0.0
    ancestors: list[tuple[int, str]] = []    # walked bottom-up
    for depth, name, cum in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a == "scipy" or a.startswith("scipy.") for _, a in ancestors):
            scipy_s += cum
        ancestors.append((depth, name))
    return {"startup.import_s": subord_s, "startup.scipy_import_s": scipy_s}
