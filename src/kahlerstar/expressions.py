"""Complex-analytic expression language over a polarized chart.

Expressions are written over the ``2n`` formally independent variables
``z1..zn`` and ``zb1..zbn``; the barred variables are independent symbols,
not conjugates applied to the unbarred ones.  Grammar::

    expr   := '-' expr | term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' ['-'] integer)?
    base   := number | number 'i' | 'i' | var | '(' expr ')'
            | ('log'|'exp'|'-') '(' expr ')'
    var    := 'z' index | 'zb' index

Unary minus binds loosest: ``-a+b`` parses as ``-(a+b)``.  Numbers are
decimal floats without exponents; ``i`` is reserved for the imaginary
unit.  The parser folds literal constants appearing in additive position
(``1+2i`` becomes a single complex literal) and folds negation of
literals, so :func:`to_source` round-trips structurally.
"""

from __future__ import annotations

import cmath
import enum
import functools
import itertools
import operator
import re
from dataclasses import dataclass, replace
from decimal import Decimal
from typing import NamedTuple, Sequence

import numpy as np

from .jets import Jet, unit_index

__all__ = [
    "Expr",
    "Literal",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Neg",
    "Pow",
    "Log",
    "Exp",
    "Polynomial",
    "HolomorphyClass",
    "ExpressionError",
    "EvaluationError",
    "parse",
    "parse_complex",
    "to_source",
    "eval_jet",
    "eval_value",
    "substitute",
    "classify",
    "formal_conjugate",
]


class ExpressionError(ValueError):
    """Syntax or validation error in an expression source string."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationError(ArithmeticError):
    """Expression not analytic at the base point (pole or branch violation)."""


class Expr:
    __slots__ = ()
    _subtrees: tuple = ()  # the names of the fields that hold subtrees


#: the classes made by :func:`_node`
_NODES: set = set()


def _node(cls):
    """Frozen dataclass of a node that is hashed once, when it is built, from its
    children's hashes (or its terms): charts memoise jets under the expression, and a
    generated hash would walk the whole tree on every lookup.  Equality walks with an
    explicit stack, so a long sum nests to any depth.  The fields annotated ``Expr`` are
    its subtrees."""
    cls._fields = tuple(cls.__annotations__)
    cls._subtrees = tuple(name for name in cls._fields if cls.__annotations__[name] == "Expr")

    def __post_init__(self) -> None:
        self.__dict__["_hash"] = hash(tuple(map(self.__dict__.__getitem__, self._fields)))

    def __hash__(self) -> int:
        return self.__dict__["_hash"]

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            kind = a.__class__
            if kind is not b.__class__:
                return False
            if kind in _NODES:
                da, db = a.__dict__, b.__dict__
                if da["_hash"] != db["_hash"]:
                    return False
                for name in kind._fields:
                    stack.append((da[name], db[name]))
            elif a != b:
                return False
        return True

    cls.__post_init__ = __post_init__
    cls = dataclass(frozen=True)(cls)
    cls.__hash__, cls.__eq__ = __hash__, __eq__
    _NODES.add(cls)
    return cls


@dataclass(frozen=True)
class Literal(Expr):
    value: complex


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 1-based, matching the variable name
    barred: bool


@_node
class Add(Expr):
    left: Expr
    right: Expr


@_node
class Sub(Expr):
    left: Expr
    right: Expr


@_node
class Mul(Expr):
    left: Expr
    right: Expr


@_node
class Div(Expr):
    left: Expr
    right: Expr


@_node
class Neg(Expr):
    arg: Expr


@_node
class Pow(Expr):
    base: Expr
    exponent: int


@_node
class Log(Expr):
    arg: Expr


@_node
class Exp(Expr):
    arg: Expr


@_node
class Polynomial(Expr):
    """Sum of monomials as one leaf: ``terms`` is the tuple of ``(coeff, powers)`` pairs
    in the order written, ``powers`` the exponents of ``z1..zn`` then ``zb1..zbn``.
    Equal powers may repeat; their coefficients add in term order.  The generators of
    random charts build it directly, so no tree is built or walked for them."""

    terms: tuple

    @property
    def n(self) -> int:
        return len(self.terms[0][1]) // 2


class HolomorphyClass(enum.Enum):
    HOLOMORPHIC = "holomorphic"
    ANTIHOLOMORPHIC = "antiholomorphic"
    MIXED = "mixed"
    CONSTANT = "constant"


def _walk(expr: Expr, visit):
    """``visit(node, results)`` on every node of ``expr`` after its subtrees, ``results``
    being what the visits of the node's subtrees returned, in field order; returns the
    visit of ``expr``.  An explicit stack, so a long sum nests to any depth."""
    results: list = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if node.__class__ is tuple:  # ``(node,)`` once its subtrees are visited
            (node,) = node
            split = len(results) - len(node._subtrees)
            results[split:] = [visit(node, results[split:])]
        elif not isinstance(node, Expr):
            raise TypeError(f"not an expression node: {node!r}")
        elif node._subtrees:
            stack.append((node,))
            stack += [node.__dict__[name] for name in reversed(node._subtrees)]
        else:
            results.append(visit(node, []))
    return results[0]


# -- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>\d+\.\d*|\.\d+|\d+)(?P<imag>i\b)?
      | (?P<name>[A-Za-z]+\d*)
      | (?P<op>[-+*/^()])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)

_VAR_RE = re.compile(r"^(zb|z)(\d+)$")


class _Token(NamedTuple):
    kind: str  # "number", "imag", "name", or the operator character
    value: object
    pos: int


def _tokenize(src: str) -> list[_Token]:
    # every character starts a match, so the matches tile ``src``; a number's kind is
    # the last group it matched: "imag" with the suffix, "number" without
    tokens: list[_Token] = []
    for match in _TOKEN_RE.finditer(src):
        kind, text, pos = match.lastgroup, match.group(), match.start()
        if kind == "bad":
            raise ExpressionError(f"unexpected character {text!r}", pos)
        if kind in ("number", "imag"):
            tokens.append(_Token(kind, float(match.group("number")), pos))
        elif kind != "ws":
            tokens.append(_Token("name" if kind == "name" else text, text, pos))
    tokens.append(_Token("end", None, len(src)))
    return tokens


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, src: str, n: int):
        self.tokens = _tokenize(src)
        self.n = n
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExpressionError(f"expected {kind!r}", tok.pos)
        return self.advance()

    def parse_expr(self) -> Expr:
        if self.peek().kind == "-":
            self.advance()
            return _negate(self.parse_expr())
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            right = self.parse_term()
            if isinstance(node, Literal) and isinstance(right, Literal):
                node = Literal(node.value + right.value if op == "+" else node.value - right.value)
            else:
                node = Add(node, right) if op == "+" else Sub(node, right)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            right = self.parse_factor()
            node = Mul(node, right) if op == "*" else Div(node, right)
        return node

    def parse_factor(self) -> Expr:
        base = self.parse_base()
        if self.peek().kind == "^":
            self.advance()
            sign = 1
            if self.peek().kind == "-":
                self.advance()
                sign = -1
            tok = self.expect("number")
            if tok.value != int(tok.value):
                raise ExpressionError("exponents must be integers", tok.pos)
            return Pow(base, sign * int(tok.value))
        return base

    def parse_base(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Literal(complex(tok.value))
        if tok.kind == "imag":
            self.advance()
            return Literal(complex(0.0, tok.value))
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "-":
            self.advance()
            self.expect("(")
            node = self.parse_expr()
            self.expect(")")
            return _negate(node)
        if tok.kind == "name":
            self.advance()
            name = tok.value
            if name == "i":
                return Literal(1j)
            if name in ("log", "exp"):
                self.expect("(")
                node = self.parse_expr()
                self.expect(")")
                return Log(node) if name == "log" else Exp(node)
            var = _VAR_RE.match(name)
            if var:
                index = int(var.group(2))
                if not 1 <= index <= self.n:
                    raise ExpressionError(
                        f"variable {name!r} out of range for dimension {self.n}", tok.pos
                    )
                return Var(index, var.group(1) == "zb")
            raise ExpressionError(f"unknown identifier {name!r}", tok.pos)
        raise ExpressionError("expected a number, variable or '('", tok.pos)


def _negate(node: Expr) -> Expr:
    if isinstance(node, Literal):
        return Literal(-node.value)
    return Neg(node)


def parse(src: str, n: int) -> Expr:
    """Parse ``src`` into an expression tree over an ``n``-dimensional chart."""
    parser = _Parser(src, n)
    try:
        node = parser.parse_expr()
    except RecursionError:
        raise ExpressionError("expression nested too deeply", parser.peek().pos) from None
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ExpressionError(f"unexpected {trailing.kind!r}", trailing.pos)
    return node


def parse_complex(text: str) -> complex:
    """Parse a constant such as ``0.3+0.2i`` into a finite complex number.

    A literal is read without a jet; adding ``0j`` adds each part to ``+0.0``, as the
    coefficient sum of its jet would (``-0`` reads ``0j``).  Any other constant is
    evaluated with numpy's floating-point warnings off.  A value that overflows, and a
    constant with no value (a pole, a branch point), are refused with a ``ValueError``
    that names the text, and no warning before it."""
    node = parse(text, 0)
    try:
        with np.errstate(all="ignore"):
            value = node.value + 0j if isinstance(node, Literal) else eval_value(node, (), ())
    except EvaluationError as exc:
        raise ValueError(f"the constant {text!r} cannot be evaluated: {exc}") from None
    if not cmath.isfinite(value):
        raise ValueError(f"the constant {text!r} is not finite")
    return value


# -- printing ----------------------------------------------------------------


def _fmt_float(x: float) -> str:
    x = x + 0.0  # normalize -0.0
    return format(Decimal(repr(x)), "f")


def _literal_source(value: complex) -> str:
    re_, im = value.real, value.imag
    if re_ < 0 or (re_ == 0 and im < 0):
        inner = _literal_source(-value)
        if inner.startswith("(") and inner.endswith(")"):
            return f"-{inner}"
        return f"-({inner})"
    if im == 0:
        return _fmt_float(re_)
    if re_ == 0:
        return _fmt_float(im) + "i"
    # parenthesized so the inner sign cannot rebind in '*', '/' or '^' context
    sign = "+" if im > 0 else "-"
    return f"({_fmt_float(re_)}{sign}{_fmt_float(abs(im))}i)"


def _prints_with_leading_minus(node: Expr) -> bool:
    # A bare leading '-' would be re-read as the loosest-binding unary minus.
    return isinstance(node, Neg) or (
        isinstance(node, Literal)
        and (node.value.real < 0 or (node.value.real == 0 and node.value.imag < 0))
    )


def _term_tree(coeff: complex, powers: tuple) -> Expr:
    """The tree of one polynomial term: ``Mul(Literal(coeff), monomial)``, the monomial's
    factors left-nested with ``z`` before ``zb``, ``1.0`` for no factor; a coefficient of
    1 is left out of a term with factors."""
    n = len(powers) // 2
    factors = [
        Var(v % n + 1, v >= n) if e == 1 else Pow(Var(v % n + 1, v >= n), e)
        for v, e in enumerate(powers) if e
    ]
    if not factors:
        return Mul(Literal(coeff), Literal(1.0 + 0j))
    monomial = functools.reduce(Mul, factors)
    return monomial if coeff == 1 else Mul(Literal(coeff), monomial)


def to_source(expr: Expr) -> str:
    """Render an expression tree back to parseable source (for diagnostics).

    A :class:`Polynomial` prints as its terms joined by ``+``, each as its
    :func:`_term_tree` prints, so it reads as the sum of products it stands for.
    """
    return _walk(expr, _source)


def _source(node: Expr, parts: list) -> str:
    """Source of ``node``, given ``parts``, the sources of its subtrees."""
    if isinstance(node, Literal):
        return _literal_source(node.value)
    if isinstance(node, Var):
        return f"{'zb' if node.barred else 'z'}{node.index}"
    if isinstance(node, Polynomial):
        return "+".join(to_source(_term_tree(*term)) for term in node.terms)
    if isinstance(node, (Add, Sub)):
        left, right = parts
        if _prints_with_leading_minus(node.left):
            left = f"({left})"
        if isinstance(node.right, (Add, Sub, Neg, Polynomial)):
            right = f"({right})"
        return f"{left}{'+' if isinstance(node, Add) else '-'}{right}"
    if isinstance(node, (Mul, Div)):
        left, right = parts
        if isinstance(node.left, (Add, Sub, Polynomial)) or _prints_with_leading_minus(node.left):
            left = f"({left})"
        if isinstance(node.right, (Add, Sub, Neg, Mul, Div, Polynomial)):
            right = f"({right})"
        return f"{left}{'*' if isinstance(node, Mul) else '/'}{right}"
    if isinstance(node, Pow):
        base = parts[0] if isinstance(node.base, Var) else f"({parts[0]})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Neg):
        return f"-({parts[0]})"
    return f"{'log' if isinstance(node, Log) else 'exp'}({parts[0]})"


# -- evaluation ---------------------------------------------------------------


def eval_jet(expr: Expr, z0: Sequence[complex], zb0: Sequence[complex], order: int) -> Jet:
    """Jet of ``expr`` at the base point ``(z0, zb0)``, truncated at ``order``.

    Polynomial subtrees fold into one term table ``{powers: coeff}``: literals,
    variables, products and powers >= 0 of monomials and negations stay one
    ``(coeff, powers)`` term, a :class:`Polynomial` leaf gives its terms as they are,
    and a chain of sums and differences, walked with an explicit stack, collects its
    terms in one list.  :meth:`Jet.polynomial` writes the table's jet by one Taylor
    shift, so a polynomial costs no jet product and no jet addition; only division,
    ``log``, ``exp``, negative powers and products or powers of sums take jet
    arithmetic.  Raises :class:`EvaluationError` when the expression is not analytic
    at the point (pole, branch cut) or overflows.
    """
    n = len(z0)
    if len(zb0) != n:
        raise ValueError("z0 and zb0 must have the same length")
    base = tuple(complex(v) for v in (*z0, *zb0))
    units = [unit_index(2 * n, v) for v in range(2 * n)]
    zero = unit_index(2 * n)

    def jet(part) -> Jet:
        if isinstance(part, Jet):
            return part
        table: dict = {}
        for coeff, powers in [part] if isinstance(part, tuple) else part:
            table[powers] = table[powers] + coeff if powers in table else coeff
        return Jet.polynomial(n, order, table, base)

    def total(node: Expr):
        """Terms and jets of a chain of sums, differences and negations, in order."""
        terms: list = []
        jets: list[Jet] = []
        stack = [(node, False)]
        while stack:
            node, negated = stack.pop()
            if isinstance(node, (Add, Sub)):
                stack.append((node.right, negated != isinstance(node, Sub)))
                stack.append((node.left, negated))
            elif isinstance(node, Neg):
                stack.append((node.arg, not negated))
            else:
                part = rec(node)
                if isinstance(part, Jet):
                    jets.append(-part if negated else part)
                elif isinstance(part, tuple):
                    terms.append((-part[0], part[1]) if negated else part)
                else:
                    terms.extend([(-c, p) for c, p in part] if negated else part)
        if not jets:
            return terms[0] if len(terms) == 1 else terms
        result = jet(terms) if terms else jets.pop(0)
        for part in jets:
            result = result + part
        return result

    def rec(node: Expr):
        """Jet of ``node``, a ``(coeff, powers)`` term while it is a monomial, or a
        list of terms while it is a sum of them."""
        try:
            if isinstance(node, Mul):
                left, right = rec(node.left), rec(node.right)
                if isinstance(left, tuple) and isinstance(right, tuple):
                    return left[0] * right[0], tuple(map(operator.add, left[1], right[1]))
                return jet(left) * jet(right)
            if isinstance(node, Var):
                if node.index > n:
                    raise EvaluationError(
                        f"variable index {node.index} exceeds the chart dimension {n}"
                    )
                return 1.0, units[node.index - 1 + (n if node.barred else 0)]
            if isinstance(node, Pow):
                arg, k = rec(node.base), node.exponent
                if not isinstance(arg, tuple) or k < 0:
                    return jet(arg) ** k
                return arg[0] ** k, tuple(p * k for p in arg[1])
            if isinstance(node, Literal):
                return node.value, zero
            if isinstance(node, Polynomial):
                return _chart_terms(node, n)
            if isinstance(node, (Add, Sub, Neg)):
                return total(node)
            if isinstance(node, Div):
                return jet(rec(node.left)) * jet(rec(node.right)).reciprocal()
            if isinstance(node, Log):
                return jet(rec(node.arg)).log()
            if isinstance(node, Exp):
                return jet(rec(node.arg)).exp()
        except EvaluationError:
            raise
        except ArithmeticError as exc:
            raise EvaluationError(f"{exc} in '{to_source(node)}'") from exc
        raise TypeError(f"not an expression node: {node!r}")

    try:
        return jet(rec(expr))
    except OverflowError as exc:  # a monomial's value beyond the float range
        raise EvaluationError(f"{exc} in '{to_source(expr)}'") from exc
    except RecursionError:  # only sums and differences are walked without recursion
        raise ValueError("expression nested too deeply to evaluate") from None


def _chart_terms(poly: Polynomial, n: int) -> list:
    """The terms of ``poly`` over the ``2n`` variables of a chart of dimension ``n``."""
    m = poly.n
    if m > n:
        raise EvaluationError(f"polynomial in {m} variables exceeds the chart dimension {n}")
    if m == n:
        return list(poly.terms)
    pad = (0,) * (n - m)
    return [(c, p[:m] + pad + p[m:] + pad) for c, p in poly.terms]


def eval_value(expr: Expr, z0: Sequence[complex], zb0: Sequence[complex]) -> complex:
    """Numerical value of ``expr`` at the point ``(z0, zb0)``."""
    return eval_jet(expr, z0, zb0, 0).value()


# -- structural operations -----------------------------------------------------


def substitute(expr: Expr, replacements: Sequence[Expr]) -> Expr:
    """Capture-free substitution of all ``2n`` variables.

    ``replacements`` lists the images of ``z1..zn`` followed by those of
    ``zb1..zbn``.
    """
    if len(replacements) % 2 != 0:
        raise ValueError("replacement list must cover all 2n variables")
    n = len(replacements) // 2

    def leaf(node: Expr) -> Expr:
        if isinstance(node, Literal):
            return node
        if isinstance(node, Polynomial):  # the left-nested sum of its terms' trees
            tree = functools.reduce(Add, itertools.starmap(_term_tree, node.terms))
            return _map_leaves(tree, leaf)
        if node.index > n:
            raise ValueError(
                f"replacement list of length {2 * n} does not cover variable index {node.index}"
            )
        return replacements[node.index - 1 + (n if node.barred else 0)]

    return _map_leaves(expr, leaf)


def _map_leaves(expr: Expr, leaf) -> Expr:
    """``expr`` rebuilt with every literal, variable and polynomial ``node`` replaced by
    ``leaf(node)``; every field that is not a subtree is copied."""

    def visit(node: Expr, subtrees: list) -> Expr:
        if not node._subtrees:
            return leaf(node)
        return replace(node, **dict(zip(node._subtrees, subtrees)))

    return _walk(expr, visit)


def classify(expr: Expr) -> HolomorphyClass:
    """Syntactic holomorphy class: which variable groups occur at all."""
    groups = set()  # "z" and "zb" as they occur

    def visit(node: Expr, _) -> None:
        if isinstance(node, Var):
            groups.add("zb" if node.barred else "z")
        elif isinstance(node, Polynomial):
            n = node.n
            if any(any(p[:n]) for _, p in node.terms):
                groups.add("z")
            if any(any(p[n:]) for _, p in node.terms):
                groups.add("zb")

    _walk(expr, visit)
    has_z, has_zb = "z" in groups, "zb" in groups
    if has_z and has_zb:
        return HolomorphyClass.MIXED
    if has_z:
        return HolomorphyClass.HOLOMORPHIC
    if has_zb:
        return HolomorphyClass.ANTIHOLOMORPHIC
    return HolomorphyClass.CONSTANT


def formal_conjugate(expr: Expr) -> Expr:
    """Swap each ``z_k`` with ``zb_k`` and conjugate every literal.

    For a holomorphic expression this produces the antiholomorphic
    expression whose diagonal restriction is the complex conjugate.
    """

    def leaf(node: Expr) -> Expr:
        if isinstance(node, Literal):
            return Literal(node.value.conjugate())
        if isinstance(node, Polynomial):
            n = node.n
            return Polynomial(tuple((c.conjugate(), p[n:] + p[:n]) for c, p in node.terms))
        return Var(node.index, not node.barred)

    return _map_leaves(expr, leaf)
