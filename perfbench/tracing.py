"""In-memory spans and counters around the benchmark's calls into billiardlab.

Every call the benchmark makes into a public billiardlab function goes
through :meth:`Tracer.call` with a name ``<layer>.<function>``.  With the
tracer disabled the call is forwarded unchanged, so the untraced and the
traced runs execute the same benchmark code.  Enabled, each call becomes
a span ``(name, start, end, parent)``; the spans stay in memory and are
written out once the run ends.
"""

from __future__ import annotations

import contextlib
import time
import warnings
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._warnings: list | None = None
        self._warnings_seen = 0

    # -- spans ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()
            self._attribute_warnings(name)

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    # -- warnings ------------------------------------------------------

    @contextlib.contextmanager
    def recording_warnings(self):
        """Record every warning raised inside; the innermost open span owns it."""
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            self._warnings, self._warnings_seen = log, 0
            try:
                yield log
            finally:
                self._warnings = None

    def _attribute_warnings(self, name: str) -> None:
        log = self._warnings
        if log is None or len(log) == self._warnings_seen:
            return
        layer = name.split(".", 1)[0]
        for w in log[self._warnings_seen :]:
            kind = "quality_warnings" if w.category.__name__ == "QualityWarning" else "other_warnings"
            self.counts[f"{layer}.{kind}"] += 1
        self._warnings_seen = len(log)

    # -- analysis ------------------------------------------------------

    def self_times(self, root: int) -> tuple[dict[str, float], float]:
        """Self time by span name below span ``root``, and the root's own self time.

        A span's self time is its duration minus the durations of its direct
        children; children of one span run one after another, never overlap.
        """
        spans = self.spans[root:]
        child_total = np.zeros(len(spans))
        for name, start, end, parent in spans[1:]:
            child_total[parent - root] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(spans[1:], start=1):
            out[name] += (end - start) - child_total[i]
        root_self = (spans[0][2] - spans[0][1]) - child_total[0]
        return out, root_self


@contextlib.contextmanager
def counting_billiard_kernels(tracer: Tracer):
    """Count the ``jv`` elements and ``brentq`` calls made inside billiardlab.billiard.

    The counters wrap the two names the module imported and are attributed
    to the innermost open span.  They are installed only around traced
    operations, so untraced operations run the unwrapped functions.
    """
    from billiardlab import billiard

    real_jv, real_brentq = billiard.jv, billiard.brentq

    def jv(order, x, *args, **kwargs):
        n = x.size if isinstance(x, np.ndarray) else getattr(order, "size", 1)
        tracer.counts["jv@" + tracer.current()] += n
        return real_jv(order, x, *args, **kwargs)

    def brentq(*args, **kwargs):
        tracer.counts["brentq@" + tracer.current()] += 1
        return real_brentq(*args, **kwargs)

    billiard.jv, billiard.brentq = jv, brentq
    try:
        yield
    finally:
        billiard.jv, billiard.brentq = real_jv, real_brentq
