"""Violations, the two consumers every check is built on, and the error types.

Each law is written once, in the module that owns it, as a generator over raw
tables and maps that yields one raw violation per failing instance: a tuple
(law, witness, template, values) whose detail is
template.format(*witness, *values).  Validators chain law generators
(prefixing a component's laws, e.g. "alpha.homomorphism") into report(),
which keeps at most max_violations per law and renders only the details it
keeps; predicates and enumerators use holds(), which stops at the first
violation and renders nothing.  Validators never raise on an axiom failure:
only malformed data (wrong shapes, out-of-range indices, mismatched
references) raises StructuralError, and unmet preconditions raise
PreconditionError.

Every structure (Hom, GXMod, Lifting, ..., Violation) is declared with
@structure: a frozen dataclass with slots whose constructor writes each field
through its slot.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields

DEFAULT_MAX_VIOLATIONS = 10


def structure(cls):
    """cls as dataclass(frozen=True, slots=True) with a faster constructor.

    The fields, defaults, compare=False names, eq, hash, repr and replace()
    are the dataclass's own, setting or deleting any attribute raises
    FrozenInstanceError, and an instance has no __dict__.  The frozen
    dataclass __init__ writes each field with object.__setattr__; this one
    writes it through its slot's member descriptor (a Hom: 0.67 -> 0.40 us,
    timeit on Python 3.11), which counts when a run builds some hundred
    thousand structures.  A field with init=False starts at its default.
    """
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    names = [f.name for f in fields(cls)]
    params, body, defaults = [], [], {}
    for f in fields(cls):
        if f.default_factory is not MISSING:
            raise TypeError(f"{cls.__name__}.{f.name}: a structure field takes no default_factory")
        if f.default is not MISSING:
            defaults[f"_default_{f.name}"] = f.default
        if f.init:
            params.append(f.name if f.default is MISSING else f"{f.name}=_default_{f.name}")
            body.append(f"        _set_{f.name}(self, {f.name})")
        elif f.default is not MISSING:
            body.append(f"        _set_{f.name}(self, _default_{f.name})")
    # the setters reach __init__ as closure variables, as dataclass passes its helpers
    source = (
        f"def make({', '.join('_set_' + name for name in names)}):\n"
        f"    def __init__(self, {', '.join(params)}):\n"
        + "\n".join(body)
        + "\n    return __init__\n"
    )
    namespace: dict = {}
    exec(source, defaults, namespace)
    init = namespace["make"](*(cls.__dict__[name].__set__ for name in names))
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {f.name: f.type for f in fields(cls) if f.init} | {"return": None}
    cls.__init__ = init
    # the frozen dataclass's own pair, on Python < 3.12, raises TypeError for
    # a name that is not a field, as it calls super() on the class that
    # slots=True replaced
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    return cls


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


class StructuralError(Exception):
    """Malformed table or mismatched object references, as opposed to a failed axiom."""


class PreconditionError(Exception):
    """An operation was invoked on inputs that fail its stated precondition."""

    def __init__(self, condition: str, message: str = ""):
        self.condition = condition
        super().__init__(message or condition)


@structure
class Violation:
    """One failed axiom instance.

    law is a dotted identifier (e.g. "associativity", "gxmod.peiffer"),
    witness the tuple of element indices at which the law fails, and detail a
    human-readable rendering of the failing equation.
    """

    law: str
    witness: tuple[int, ...]
    detail: str = ""

    def prefixed(self, prefix: str) -> "Violation":
        return Violation(f"{prefix}.{self.law}", self.witness, self.detail)


# what a law generator yields: (law, witness, template, values)
RawViolation = tuple[str, tuple[int, ...], str, tuple]


@structure
class ValidationReport:
    """The violations a validator kept for subject; ok when there are none."""

    subject: str = field(compare=False, default="")
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def laws(self) -> set[str]:
        return {v.law for v in self.violations}

    def first(self, law: str) -> Violation | None:
        for v in self.violations:
            if v.law == law or v.law.endswith("." + law):
                return v
        return None

    def merged(self, other: "ValidationReport", prefix: str = "") -> "ValidationReport":
        extra = other.violations
        if prefix:
            extra = tuple(v.prefixed(prefix) for v in extra)
        return ValidationReport(self.subject, self.violations + extra)

    def summary(self) -> str:
        if self.ok:
            return f"{self.subject or 'object'}: ok"
        lines = [f"{self.subject or 'object'}: {len(self.violations)} violation(s)"]
        for v in self.violations:
            lines.append(f"  {v.law} at {v.witness}: {v.detail}")
        return "\n".join(lines)


def prefixed(prefix: str, violations: Iterable[RawViolation]) -> Iterator[RawViolation]:
    """The violations of a component, with their laws renamed to prefix.law."""
    for law, witness, template, values in violations:
        yield f"{prefix}.{law}", witness, template, values


def report(
    subject: str, violations: Iterable[RawViolation], max_violations: int = DEFAULT_MAX_VIOLATIONS
) -> ValidationReport:
    """Every law's first max_violations violations, in the order they were yielded."""
    seen: dict[str, int] = {}
    kept = []
    for law, witness, template, values in violations:
        count = seen.get(law, 0)
        if count < max_violations:
            kept.append(Violation(law, witness, template.format(*witness, *values)))
            seen[law] = count + 1
    return ValidationReport(subject, tuple(kept))


def holds(violations: Iterable[RawViolation]) -> bool:
    """True when no violation is yielded; stops at the first one."""
    return next(iter(violations), None) is None
