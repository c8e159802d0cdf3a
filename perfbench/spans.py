"""Spans around calls into the package, recorded from outside it.

A ``Tracer`` replaces functions with timing wrappers at every place the
package's modules hold them: module globals (internal calls such as
``crf._dev_f1`` -> ``crf.viterbi`` go through those), names imported with
``from x import y`` into other modules, and methods on classes. Spans are
kept in memory as (name, start, end, parent) and written out at the end.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name, fn, after=None):
        """``name`` may be a function of the call's arguments."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent)
            if after is not None:
                after(self.counts, args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap_function(self, module, attr, name=None, after=None, count_only=False):
        """Wrap ``module.attr`` and every other package-module global bound to it."""
        fn = getattr(module, attr)
        name = name or module.__name__.rsplit(".", 1)[-1] + "." + attr
        new = self._counted(name, fn) if count_only else self._timed(name, fn, after)
        package = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != package:
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._replace(mod, key, new)

    def wrap_method(self, cls, attr, name, after=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._replace(cls, attr, classmethod(self._timed(name, raw.__func__, after)))
        else:
            self._replace(cls, attr, self._timed(name, raw, after))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def span_self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.span_self_times()):
            out[span[0]] += own
        return dict(out)

    def total_times(self) -> dict[str, float]:
        """Per span name: summed duration, children included."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def calls(self) -> Counter:
        return Counter(name for name, *_ in self.spans)

    def write(self, fh, origin: float, phase: str) -> None:
        """Append the spans as JSON lines, times in seconds from ``origin``."""
        for idx, (name, start, end, parent) in enumerate(self.spans):
            record = {
                "phase": phase,
                "id": idx,
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent if parent >= 0 else None,
            }
            fh.write(json.dumps(record) + "\n")
