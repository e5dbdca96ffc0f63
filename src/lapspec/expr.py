"""Graph expressions built from complete-graph atoms.

An expression denotes a finite simple graph assembled from complete graphs
``K<n>`` by four operations:

    ``a + b``   disjoint union
    ``a * b``   join (every vertex of one side adjacent to every vertex of the other)
    ``<m>a``    disjoint union of m copies of an atom
    ``~a``      complement

Repetition binds tightest, then ``*``, then ``+``; both binary operators
associate to the left and parentheses group as usual.  ``3K1 * K1`` is
therefore the join of three isolated vertices with a single vertex, i.e.
the star on four vertices.  Chains of operators and of ``~`` may be of any
length and parentheses may nest to any depth: ``parse``, ``fold`` and the
text writer of ``render`` and ``repr`` keep their own stacks, so nothing
here recurses, and ``parse(render(e)) == e`` holds for every expression.

A ``Builder``'s five constructors evaluate an expression, children before
their parent: ``parse(text, builder)`` on a text, ``fold(expr, builder)``
on a tree, and ``fold(e, b)`` makes the calls ``parse(render(e), b)``
makes.  The default, ``AST``, builds the tree; any other builder evaluates
a text without one, under the same grammar, errors and offsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile, zip_longest
from typing import Any, Callable, Iterator, NamedTuple

__all__ = [
    "GraphExpr",
    "Complete",
    "Union",
    "Join",
    "Repeat",
    "Complement",
    "ParseError",
    "LiteralOverflowError",
    "MAX_LITERAL",
    "Builder",
    "AST",
    "parse",
    "fold",
    "render",
    "order",
    "edge_count",
]

MAX_LITERAL = 10**9


class ParseError(ValueError):
    """Malformed expression text; ``pos`` is the 0-based offset of the fault."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class LiteralOverflowError(ParseError):
    """Integer literal larger than ``MAX_LITERAL``."""


class GraphExpr:
    """Base class of all expression nodes.  Nodes are immutable values.

    ``==``, ``hash()`` and ``repr()`` walk the whole tree with an explicit
    stack, so chains of any length compare, hash and print.
    """

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(a == b for a, b in zip_longest(_preorder(self), _preorder(other)))

    def __hash__(self) -> int:
        return hash(tuple(_preorder(self)))

    def __repr__(self) -> str:
        return _write(self, _repr_pieces)


_CHILD = object()  # stands for a child expression among a node's fields


def _preorder(expr: GraphExpr) -> Iterator[tuple]:
    """``(class, *fields)`` of each node in pre-order, with ``_CHILD`` for each child.

    A tuple shows which of its node's fields are children, so the sequence
    determines the tree.
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        values = [getattr(node, name) for name in node.__dataclass_fields__]
        yield (node.__class__, *(_CHILD if isinstance(value, GraphExpr) else value for value in values))
        stack.extend(value for value in reversed(values) if isinstance(value, GraphExpr))


@dataclass(frozen=True, eq=False, repr=False)
class Complete(GraphExpr):
    """Complete graph on ``n`` vertices."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a complete graph needs at least one vertex")


@dataclass(frozen=True, eq=False, repr=False)
class Union(GraphExpr):
    """Disjoint union of two graphs."""

    left: GraphExpr
    right: GraphExpr


@dataclass(frozen=True, eq=False, repr=False)
class Join(GraphExpr):
    """Join of two graphs: their union plus all edges across the two sides."""

    left: GraphExpr
    right: GraphExpr


@dataclass(frozen=True, eq=False, repr=False)
class Repeat(GraphExpr):
    """Disjoint union of ``m`` copies of ``inner``."""

    m: int
    inner: GraphExpr

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("repetition count must be at least 1")


@dataclass(frozen=True, eq=False, repr=False)
class Complement(GraphExpr):
    """Complement of ``inner`` (off-diagonal adjacency flipped)."""

    inner: GraphExpr


class Builder(NamedTuple):
    """The five constructors ``parse`` and ``fold`` call, with the node classes' arguments.

    ``complete(n)``, ``union(left, right)``, ``join(left, right)``,
    ``repeat(m, inner)`` and ``complement(inner)``, where ``left``, ``right``
    and ``inner`` are values an earlier call returned.  Each value is passed
    on once, to its parent's call, so a builder may reuse it in place.
    """

    complete: Callable[[int], Any]
    union: Callable[[Any, Any], Any]
    join: Callable[[Any, Any], Any]
    repeat: Callable[[int, Any], Any]
    complement: Callable[[Any], Any]


AST = Builder(Complete, Union, Join, Repeat, Complement)


# --- parsing -----------------------------------------------------------------

_KINDS = {"K": "K", "+": "PLUS", "*": "STAR", "~": "TILDE", "(": "LPAREN", ")": "RPAREN"}


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():  # exactly the digits ``int()`` reads
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            # A literal in range has at most ten significant digits: ``int()``
            # reads only the last ten, and a nonzero digit before them overflows.
            digits = text[i:j]
            value = int(digits[-10:])
            if value > MAX_LITERAL or (len(digits) > 10 and any(map(int, digits[:-10]))):
                raise LiteralOverflowError(f"integer literal {digits} exceeds {MAX_LITERAL}", i)
            if value < 1:
                raise ParseError("integer literals must be at least 1", i)
            tokens.append(("INT", value, i))
            i = j
            continue
        kind = _KINDS.get(ch)
        if kind is None:
            raise ParseError(f"unexpected character {ch!r}", i)
        tokens.append((kind, ch, i))
        i += 1
    tokens.append(("END", "", n))
    return tokens


def _show(text: str, token: tuple[str, object, int]) -> str:
    kind, value, pos = token
    if kind == "INT":  # the literal as written, not its value
        value = "".join(takewhile(str.isdecimal, text[pos:]))
    return "end of input" if kind == "END" else repr(str(value))


def parse(text: str, builder: Builder = AST) -> Any:
    """Parse expression text under the declared precedence.

    Returns the unique AST, or with another ``builder`` what its
    constructors make of the text.  One loop reads operands
    ``[INT] '~'* ('K' INT | '(')``.  An open parenthesis saves the
    enclosing partial union, partial join, count and ``~``s on a stack, so
    nesting depth is bounded only by memory.
    """
    make_complete, make_union, make_join, make_repeat, make_complement = builder
    tokens = _tokenize(text)
    saved: list[tuple[Any, Any, int | None, int]] = []
    union = join = None
    k = 0
    while True:
        count = None
        if tokens[k][0] == "INT":
            count = tokens[k][1]
            k += 1
        tildes = 0
        while tokens[k][0] == "TILDE":
            tildes += 1
            k += 1
        kind, _, pos = tokens[k]
        if kind == "LPAREN":
            saved.append((union, join, count, tildes))
            union = join = None
            k += 1
            continue
        if kind != "K":
            raise ParseError(f"expected 'K', '~', '(' or an integer, found {_show(text, tokens[k])}", pos)
        kind, value, pos = tokens[k + 1]
        if kind != "INT":
            raise ParseError(f"expected an integer, found {_show(text, tokens[k + 1])}", pos)
        k += 2
        e = make_complete(value)
        # Fold the operand in, then close every group that ends after it.
        while True:
            for _ in range(tildes):
                e = make_complement(e)
            if count is not None:
                e = make_repeat(count, e)
            join = e if join is None else make_join(join, e)
            kind, _, pos = tokens[k]
            if kind == "STAR":
                break
            union = join if union is None else make_union(union, join)
            join = None
            if kind == "PLUS":
                break
            if not saved:
                if kind != "END":
                    raise ParseError(f"expected end of input, found {_show(text, tokens[k])}", pos)
                return union
            if kind != "RPAREN":
                raise ParseError(f"expected ')', found {_show(text, tokens[k])}", pos)
            k += 1
            e = union
            union, join, count, tildes = saved.pop()
        k += 1


# --- evaluation ----------------------------------------------------------------


def fold(expr: GraphExpr, builder: Builder) -> Any:
    """Evaluate ``expr`` bottom-up: the calls ``parse(render(expr), builder)`` makes.

    Children come before their parent and left before right.  Each value is
    passed on once, to its parent's call, even where one node object occurs
    several times in the tree.  Any node of another class is a ``TypeError``.
    The walk keeps its own stacks, so no recursion limit bounds its depth.
    """
    make_complete, make_union, make_join, make_repeat, make_complement = builder
    # Pre-order with the right child first, reversed, is post-order with the left first.
    calls: list[tuple[Callable[..., Any], tuple[int, ...], tuple[GraphExpr, ...]]] = []
    stack = [expr]
    while stack:
        match stack.pop():
            case Complete(n):
                call = make_complete, (n,), ()
            case Union(left, right):
                call = make_union, (), (left, right)
            case Join(left, right):
                call = make_join, (), (left, right)
            case Repeat(m, inner):
                call = make_repeat, (m,), (inner,)
            case Complement(inner):
                call = make_complement, (), (inner,)
            case node:
                raise TypeError(f"not a GraphExpr: {node!r}")
        calls.append(call)
        stack += call[2]
    values: list[Any] = []
    for make, fields, children in reversed(calls):
        split = len(values) - len(children)
        values[split:] = [make(*fields, *values[split:])]
    return values[0]


# --- printing ----------------------------------------------------------------


def _write(root: GraphExpr, pieces: Callable[[GraphExpr], tuple[GraphExpr | str, ...]]) -> str:
    """Text of ``root`` in one pre-order pass; ``pieces(node)`` lists its texts and children.

    A node's closing text waits on the stack while its children are written,
    so the time is linear in the length of the text.
    """
    texts: list[str] = []
    stack: list[GraphExpr | str] = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            texts.append(item)
        else:
            stack += reversed(pieces(item))
    return "".join(texts)


def _repr_pieces(node: GraphExpr) -> tuple[GraphExpr | str, ...]:
    pieces: list[GraphExpr | str] = [f"{node.__class__.__qualname__}("]
    for i, name in enumerate(node.__dataclass_fields__):
        value = getattr(node, name)
        pieces += [f"{', ' if i else ''}{name}=", value if isinstance(value, GraphExpr) else repr(value)]
    return (*pieces, ")")


def _checked(value: object) -> GraphExpr:
    if not isinstance(value, GraphExpr):
        raise TypeError(f"not a GraphExpr: {value!r}")
    return value


def _atom(inner: GraphExpr) -> tuple[GraphExpr | str, ...]:
    # Repeat is the one node whose text is not itself an atom.
    return ("(", inner, ")") if isinstance(inner, Repeat) else (_checked(inner),)


def _render_pieces(node: GraphExpr) -> tuple[GraphExpr | str, ...]:
    match node:
        case Complete(n):
            return (f"K{n}",)
        case Union(left, right):
            return ("(", _checked(left), " + ", _checked(right), ")")
        case Join(left, right):
            return ("(", _checked(left), " * ", _checked(right), ")")
        case Repeat(m, inner):
            return (f"{m}", *_atom(inner))
        case Complement(inner):
            return ("~", *_atom(inner))
        case _:
            raise TypeError(f"not a GraphExpr: {node!r}")


def render(expr: GraphExpr) -> str:
    """Canonical, fully parenthesized text; ``parse(render(e)) == e``."""
    return _write(_checked(expr), _render_pieces)


# --- structural counts ---------------------------------------------------------

# ``(vertices, edges)`` of a node from those of its children.
_SIZE = Builder(
    complete=lambda n: (n, n * (n - 1) // 2),
    union=lambda a, b: (a[0] + b[0], a[1] + b[1]),
    join=lambda a, b: (a[0] + b[0], a[1] + b[1] + a[0] * b[0]),
    repeat=lambda k, a: (k * a[0], k * a[1]),
    complement=lambda a: (a[0], a[0] * (a[0] - 1) // 2 - a[1]),
)


def order(expr: GraphExpr) -> int:
    """Number of vertices of the denoted graph."""
    return fold(expr, _SIZE)[0]


def edge_count(expr: GraphExpr) -> int:
    """Number of edges of the denoted graph."""
    return fold(expr, _SIZE)[1]
