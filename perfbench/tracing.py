"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces the public functions (and public methods of
classes) defined in each layer module with timing wrappers, then rebinds
every module attribute across ``cnnlstm`` that referred to an original, so
a call made through ``training.forward`` or ``model.array_lines`` is timed
just like one made through ``model.forward`` or ``textio.array_lines``.
``Tracer.uninstall`` puts every original back.

Spans stay in memory while the workload runs; ``write_spans`` saves them
afterwards. A span's self time is its duration minus the durations of the
spans it directly encloses.
"""

import importlib
import inspect
import json
import sys
from time import perf_counter_ns

LAYERS = ("cli", "pipeline", "model", "layers", "optim", "training", "textio")

# Private functions that are layers in their own right.
EXTRA = {"training._infer"}

# Called once per value or per text line: a span around each would cost more
# than the work it measures, so their time stays in the caller's self time.
SKIP = {
    "textio.fmt_float",
    "textio.fmt_vector",
    "textio.parse_kv",
    "textio.LineReader.next",
    "textio.LineReader.peek",
    "textio.LineReader.eof",
    "textio.LineReader.error",
}


def _training_flag(args, kwargs):
    """``training`` argument of ``model.forward(model, batch, training, rng)``."""
    return bool(kwargs["training"] if "training" in kwargs else args[2])


# Span name -> function of the call's arguments whose result is kept as the
# span's note.
NOTES = {"model.forward": _training_flag}


def _targets(module, layer):
    """(span name, owner, attribute, function) for every function to wrap."""
    out = []
    for attr, value in vars(module).items():
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            name = f"{layer}.{attr}"
            if (not attr.startswith("_") or name in EXTRA) and name not in SKIP:
                out.append((name, module, attr, value))
        elif inspect.isclass(value) and value.__module__ == module.__name__:
            for meth, fn in vars(value).items():
                name = f"{layer}.{attr}.{meth}"
                if inspect.isfunction(fn) and not meth.startswith("_") and name not in SKIP:
                    out.append((name, value, meth, fn))
    return out


class Tracer:
    def __init__(self):
        self.spans = []  # (op, span id, parent id, name, start ns, end ns, self ns, note)
        self.op = -1
        self._stack = []  # [span id, ns covered by child spans]
        self._next_id = 0
        self._patches = []  # (owner, attribute, original)

    def begin_op(self, op: int):
        self.op = op

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        note_of = NOTES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            note = note_of(args, kwargs) if note_of else None
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((tracer.op, span_id, parent, name, start, end, end - start - frame[1], note))

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        package = [m for n, m in list(sys.modules.items()) if n == "cnnlstm" or n.startswith("cnnlstm.")]
        wrapped = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"cnnlstm.{layer}")
            for name, owner, attr, fn in _targets(module, layer):
                wrapped[id(fn)] = self._wrap(name, fn)
                self._patch(owner, attr, fn, wrapped[id(fn)])
        # rebind names other modules imported with ``from .x import f``
        for module in package:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrapped:
                    self._patch(module, attr, value, wrapped[id(value)])
        return self

    def _patch(self, owner, attr, original, replacement):
        if vars(owner).get(attr) is replacement:
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def per_op(self):
        """op -> {span name: [calls, self ns]}, ignoring spans outside any op."""
        out = {}
        for op, _, _, name, _, _, self_ns, _ in self.spans:
            if op < 0:
                continue
            entry = out.setdefault(op, {}).setdefault(name, [0, 0])
            entry[0] += 1
            entry[1] += self_ns
        return out

    def step_intervals_ns(self):
        """Gaps between consecutive training-mode forwards of one operation.

        An inference-mode forward (per-epoch validation) breaks the chain,
        so every gap is one whole optimisation step.
        """
        forwards = sorted(
            (s[0], s[4], s[7]) for s in self.spans if s[3] == "model.forward"
        )
        gaps = []
        prev = None  # (op, start) of the last training forward in the chain
        for op, start, training in forwards:
            if training and prev is not None and prev[0] == op:
                gaps.append(start - prev[1])
            prev = (op, start) if training else None
        return gaps

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for op, span_id, parent, name, start, end, self_ns, note in self.spans:
                fh.write(json.dumps({
                    "op": op, "id": span_id, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end, "self_ns": self_ns, "note": note,
                }) + "\n")
