"""In-memory span tracing around the public functions of each qgatelab module.

The package is measured exactly as shipped: nothing under src/ changes.  A
Tracer replaces every public module-level function of the nine layer modules
with a wrapper that records one span per call, in every module namespace and
module-level dict that binds the function (the modules import each other's
functions by name, and suites dispatches through a dict).  Spans stay in
memory as four integer columns and are written out once, when the operation
ends.

A layer's self time is the summed duration of its spans minus the part of
each span covered by its direct child spans.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = (
    "qnum",
    "fock",
    "qdeform",
    "schwinger",
    "gates",
    "constraints",
    "suites",
    "report",
    "cli",
)

PACKAGE = "qgatelab"


def public_functions(module) -> dict:
    """Module-level functions defined in module whose names do not start with '_'."""
    return {
        name: value
        for name, value in vars(module).items()
        if inspect.isfunction(value) and value.__module__ == module.__name__ and not name.startswith("_")
    }


class Tracer:
    """Records a span (name, parent, start, end) for each call of a wrapped function."""

    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.parent = array("q")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self._stack = [-1]
        self._restore = []

    def wrap(self, name: str, fn):
        name_index = len(self.names)
        self.names.append(name)
        stack = self._stack
        name_of, parent, start_ns, end_ns = self.name_of, self.parent, self.start_ns, self.end_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(name_of)
            name_of.append(name_index)
            parent.append(stack[-1])
            start_ns.append(0)
            end_ns.append(0)
            stack.append(span)
            start_ns[span] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end_ns[span] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every public function of every layer module, wherever it is bound."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in public_functions(module).items():
                wrappers[fn] = self.wrap(f"{layer}.{name}", fn)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == PACKAGE or module_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._restore.append((setattr, module, attr, value))
                elif isinstance(value, dict):  # dispatch tables such as suites._SUITE_BUILDERS
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            value[key] = wrappers[item]
                            self._restore.append((dict.__setitem__, value, key, item))

    def uninstall(self) -> None:
        while self._restore:
            setter, target, key, value = self._restore.pop()
            setter(target, key, value)

    def spans(self, op_id: str) -> dict:
        """Columnar span table of one operation, as written to disk."""
        return {
            "op_id": op_id,
            "names": list(self.names),
            "name": self.name_of.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": self.start_ns.tolist(),
            "end_ns": self.end_ns.tolist(),
        }

    def write(self, path: str, op_id: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans(op_id), handle, separators=(",", ":"))


def aggregate(table: dict) -> dict:
    """Per function: [calls, total_ns, self_ns] from a columnar span table."""
    names = table["names"]
    name_of, parent = table["name"], table["parent"]
    duration = [end - start for start, end in zip(table["start_ns"], table["end_ns"])]
    covered = [0] * len(duration)
    for span, up in enumerate(parent):
        if up >= 0:
            covered[up] += duration[span]
    result = {name: [0, 0, 0] for name in names}
    for span, index in enumerate(name_of):
        entry = result[names[index]]
        entry[0] += 1
        entry[1] += duration[span]
        entry[2] += duration[span] - covered[span]
    return result
