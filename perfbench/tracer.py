"""Per-function spans for the traced benchmark run, recorded from outside the library.

Every public function of a layer module is replaced, in every genxmod
namespace that binds it by name, with a wrapper that times the call.  A
function imported into another module (``validate_gxmod`` is bound in
``search`` as well as in ``crossed``) is wrapped in both places, so calls
through either name are seen.

Spans are folded into per-(op, function) totals as they close: tracing the
a3s3 equivalence run makes millions of calls, far too many to keep one record
each.  A function's self time is its span's duration minus the time covered
by the spans of traced functions it called.  Calls made outside an op (the
output gate, set-up) are passed straight through and not recorded.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("groups", "gwa", "crossed", "cat1", "coverlift", "search", "serialize", "cli")
LAYER_MODULES = {f"genxmod.{name}": name for name in LAYERS}
# oracles is the output gate's independent checker; it is never timed.
UNTRACED_NAMESPACES = ("genxmod.oracles",)

FIELDS = ("calls", "total_s", "self_s", "accepted", "candidates")


def traced_name(name: str, value) -> str | None:
    """'<layer>.<function>' for a public layer function bound under its own name."""
    layer = LAYER_MODULES.get(getattr(value, "__module__", None))
    if layer is None or name.startswith("_") or getattr(value, "__name__", None) != name:
        return None
    if not (inspect.isfunction(value) or hasattr(value, "cache_info")):
        return None
    return f"{layer}.{name}"


class Tracer:
    """Installs timing wrappers on genxmod's namespaces and aggregates their spans.

    The benchmark names the operation in progress with ``set_op`` around
    each timed call.  ``totals[op][function]`` is
    [calls, total_s, self_s, accepted, candidates].
    """

    def __init__(self) -> None:
        self.totals: dict[str, dict[str, list]] = {}
        self._table: list = [None]  # totals[op] of the op in progress
        self._stack: list[list] = []
        self._installed: list[tuple[object, str, object]] = []

    def set_op(self, op: str | None) -> None:
        """Attribute the following calls to op; None stops recording."""
        self._table[0] = None if op is None else self.totals.setdefault(op, {})

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for modname, module in list(sys.modules.items()):
            if modname in UNTRACED_NAMESPACES:
                continue
            if modname != "genxmod" and not modname.startswith("genxmod."):
                continue
            for name, value in list(vars(module).items()):
                key = traced_name(name, value)
                if key is None:
                    continue
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    wrapper = wrappers[id(value)] = self._wrap(key, value)
                setattr(module, name, wrapper)
                self._installed.append((module, name, value))

    def uninstall(self) -> None:
        for module, name, value in reversed(self._installed):
            setattr(module, name, value)
        self._installed.clear()

    def _wrap(self, key: str, fn):
        current = self._table
        stack = self._stack
        perf = time.perf_counter
        name = key.split(".", 1)[1]
        # validators return a report whose .ok says whether the candidate was
        # accepted; *_morphisms_between accept some of the homs all_homs offers
        is_validator = name.startswith("validate_")
        is_between = name.endswith("_morphisms_between")
        offers_candidates = key == "groups.all_homs"

        def traced(*args, **kwargs):
            table = current[0]
            if table is None:
                return fn(*args, **kwargs)
            frame = [0.0, 0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
            rec = table.get(key)
            if rec is None:
                rec = table[key] = [0, 0.0, 0.0, 0, 0]
            rec[0] += 1
            rec[1] += elapsed
            rec[2] += elapsed - frame[0]
            if is_validator:
                rec[3] += result.ok
            elif is_between:
                rec[3] += len(result)
                rec[4] += frame[1]
            if offers_candidates and stack:
                stack[-1][1] += len(result)
            return result

        return traced

    def by_function(self) -> dict[str, list]:
        """Totals summed over ops, keyed by '<layer>.<function>'."""
        out: dict[str, list] = {}
        for table in self.totals.values():
            for key, rec in table.items():
                acc = out.setdefault(key, [0, 0.0, 0.0, 0, 0])
                for i, value in enumerate(rec):
                    acc[i] += value
        return out

    def rows(self) -> list[dict]:
        """Per-(op, function) rows, largest self time first."""
        rows = [
            dict(zip(("op", "function", *FIELDS), (op, key, *rec)))
            for op, table in self.totals.items()
            for key, rec in table.items()
        ]
        rows.sort(key=lambda r: -r["self_s"])
        return rows
