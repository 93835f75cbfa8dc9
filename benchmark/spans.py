"""In-memory spans recorded around the program's calls into its layers.

A span is (name, start, end, parent): ``parent`` is the index of the span
that was open when this one began, or -1. Spans are recorded by replacing a
module attribute with a wrapper, at the place where the program looks the
name up (for example ``morvit.routing.encoder_block``), so the program
itself is unchanged. ``restore`` puts every original back.
"""

import contextlib
import json
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent]
        self._open = []     # indices of the spans now open, innermost last
        self._patched = []  # (module, attribute, original)

    def begin(self, name):
        self.spans.append([name, _clock(), None, self._open[-1] if self._open else -1])
        self._open.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._open.pop()][2] = _clock()

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block; yields the span's index."""
        self.begin(name)
        try:
            yield self._open[-1]
        finally:
            self.end()

    def patch(self, module, attr, value):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def wrap(self, module, attr, name):
        """Record a span named ``name`` around every call of ``module.attr``."""
        fn = getattr(module, attr)
        spans, open_, clock = self.spans, self._open, _clock

        def traced(*args, **kwargs):
            rec = [name, clock(), None, open_[-1] if open_ else -1]
            spans.append(rec)
            open_.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()

        self.patch(module, attr, traced)

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def summary(self, root=None):
        """name -> (calls, inclusive s, self s) over the spans below span
        ``root``, or over all spans when ``root`` is None.

        Self time is a span's duration minus the durations of its children.
        """
        child = [0.0] * len(self.spans)
        under = [root is None] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                under[i] = under[i] or under[parent] or parent == root
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            if under[i]:
                calls, total, own = out.get(name, (0, 0.0, 0.0))
                out[name] = (calls + 1, total + end - start, own + end - start - child[i])
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

