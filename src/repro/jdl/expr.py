"""Classad-style expression AST and evaluator.

``Requirements`` and ``Rank`` JDL attributes are expressions evaluated
against a *candidate resource* context: identifiers of the form
``other.Attr`` resolve to the resource's advertised attributes (the
Globus-MDS/GLUE values published by the information system), and bare
identifiers resolve to the job's own attributes.

Undefined references follow classad three-valued semantics: they evaluate
to :data:`UNDEFINED`, comparisons against UNDEFINED are UNDEFINED, and a
Requirements expression only matches when it evaluates to exactly ``True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Tuple, Union


class _Undefined:
    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "UNDEFINED"


UNDEFINED = _Undefined()


class EvalError(ValueError):
    """Raised when an expression cannot be evaluated (e.g. type error)."""


# -- AST nodes ------------------------------------------------------------
@dataclass(frozen=True)
class Literal:
    value: Any

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f'"{self.value}"'
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        return str(self.value)


@dataclass(frozen=True)
class Ref:
    """Attribute reference, e.g. ``other.TotalCPUs`` or ``NodeNumber``."""

    scope: Optional[str]  # "other", "self", or None for bare names
    name: str

    def __str__(self) -> str:
        return f"{self.scope}.{self.name}" if self.scope else self.name


@dataclass(frozen=True)
class Unary:
    op: str  # "!", "-"
    operand: "Expr"

    def __str__(self) -> str:
        return f"{self.op}({self.operand})"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Call:
    """Builtin function call, e.g. ``Member(x, list)``."""

    name: str
    args: Tuple["Expr", ...]

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


Expr = Union[Literal, Ref, Unary, Binary, Call]


# -- evaluation -------------------------------------------------------------
def _is_num(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _builtin_member(item: Any, collection: Any) -> Any:
    if collection is UNDEFINED or item is UNDEFINED:
        return UNDEFINED
    if not isinstance(collection, (list, tuple)):
        raise EvalError("Member() needs a list second argument")
    return item in collection


def _builtin_regexp(pattern: Any, target: Any) -> Any:
    if pattern is UNDEFINED or target is UNDEFINED:
        return UNDEFINED
    import re

    return re.search(str(pattern), str(target)) is not None


_BUILTINS: Mapping[str, Callable[..., Any]] = {
    "member": _builtin_member,
    "regexp": _builtin_regexp,
    "isundefined": lambda v: v is UNDEFINED,
}


class Context:
    """Name-resolution environment for expression evaluation."""

    def __init__(self, own: Mapping[str, Any],
                 other: Optional[Mapping[str, Any]] = None) -> None:
        # Classads are case-insensitive; normalise key lookup.
        self._own = {k.lower(): v for k, v in own.items()}
        self._other = {k.lower(): v for k, v in (other or {}).items()}

    def resolve(self, ref: Ref) -> Any:
        name = ref.name.lower()
        if ref.scope == "other":
            return self._other.get(name, UNDEFINED)
        if ref.scope == "self":
            return self._own.get(name, UNDEFINED)
        if name in self._own:
            return self._own[name]
        return self._other.get(name, UNDEFINED)


def evaluate(expr: Expr, context: Context) -> Any:
    """Evaluate with classad three-valued logic for UNDEFINED."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Ref):
        return context.resolve(expr)
    if isinstance(expr, Unary):
        value = evaluate(expr.operand, context)
        if value is UNDEFINED:
            return UNDEFINED
        if expr.op == "!":
            if not isinstance(value, bool):
                raise EvalError(f"'!' needs a boolean, got {value!r}")
            return not value
        if expr.op == "-":
            if not _is_num(value):
                raise EvalError(f"unary '-' needs a number, got {value!r}")
            return -value
        raise EvalError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, Binary):
        return _eval_binary(expr, context)
    if isinstance(expr, Call):
        fn = _BUILTINS.get(expr.name.lower())
        if fn is None:
            raise EvalError(f"unknown function {expr.name!r}")
        args = [evaluate(a, context) for a in expr.args]
        return fn(*args)
    raise EvalError(f"unknown node {expr!r}")  # pragma: no cover


def _eval_binary(expr: Binary, context: Context) -> Any:
    op = expr.op
    # Short-circuit logic with UNDEFINED absorption (classad semantics:
    # false && undefined == false; true || undefined == true).
    if op in ("&&", "||"):
        left = evaluate(expr.left, context)
        if op == "&&":
            if left is False:
                return False
            right = evaluate(expr.right, context)
            if left is UNDEFINED or right is UNDEFINED:
                return False if right is False else UNDEFINED
            _require_bool(left, right, op)
            return left and right
        if left is True:
            return True
        right = evaluate(expr.right, context)
        if left is UNDEFINED or right is UNDEFINED:
            return True if right is True else UNDEFINED
        _require_bool(left, right, op)
        return left or right

    left = evaluate(expr.left, context)
    right = evaluate(expr.right, context)
    if left is UNDEFINED or right is UNDEFINED:
        return UNDEFINED

    if op in ("==", "!="):
        if isinstance(left, str) and isinstance(right, str):
            result = left.lower() == right.lower()
        else:
            result = left == right
        return result if op == "==" else not result

    if op in ("<", "<=", ">", ">="):
        if isinstance(left, str) and isinstance(right, str):
            pass  # lexicographic comparison is allowed
        elif not (_is_num(left) and _is_num(right)):
            raise EvalError(f"{op!r} needs two numbers or two strings")
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right

    if op in ("+", "-", "*", "/"):
        if op == "+" and isinstance(left, str) and isinstance(right, str):
            return left + right
        if not (_is_num(left) and _is_num(right)):
            raise EvalError(f"{op!r} needs two numbers")
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if right == 0:
            raise EvalError("division by zero")
        return left / right

    raise EvalError(f"unknown operator {op!r}")  # pragma: no cover


def _require_bool(left: Any, right: Any, op: str) -> None:
    if not isinstance(left, bool) or not isinstance(right, bool):
        raise EvalError(f"{op!r} needs boolean operands")


def matches(requirements: Optional[Expr], own: Mapping[str, Any],
            other: Mapping[str, Any]) -> bool:
    """True iff ``requirements`` evaluates to exactly True (or is absent)."""
    if requirements is None:
        return True
    value = evaluate(requirements, Context(own, other))
    return value is True


def rank_value(rank: Optional[Expr], own: Mapping[str, Any],
               other: Mapping[str, Any]) -> float:
    """Numeric rank of a candidate (higher is better); 0.0 if absent."""
    if rank is None:
        return 0.0
    value = evaluate(rank, Context(own, other))
    if value is UNDEFINED:
        return float("-inf")
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if not _is_num(value):
        raise EvalError(f"Rank must be numeric, got {value!r}")
    return float(value)
