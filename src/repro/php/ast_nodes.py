"""Typed AST node definitions for the PHP frontend.

Every node derives from :class:`Node` and carries a source position
(``line``/``col``).  Nodes are plain dataclasses; child discovery for the
generic visitor is done by inspecting dataclass fields, so adding a node type
requires no visitor changes.

Naming follows the PHP grammar where practical: a *statement* node ends up in
``Program.body`` or a ``Block``; an *expression* node appears inside
statements.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union


@dataclass(slots=True)
class Node:
    """Base class for all AST nodes."""

    line: int = field(default=0, kw_only=True)
    col: int = field(default=0, kw_only=True)

    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes (recursing into lists/tuples)."""
        for f in dataclasses.fields(self):
            if f.name in ("line", "col"):
                continue
            value = getattr(self, f.name)
            yield from _iter_nodes(value)

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


def _iter_nodes(value: object) -> Iterator[Node]:
    if isinstance(value, Node):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _iter_nodes(item)


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Program(Node):
    """A whole PHP file: a sequence of statements (including inline HTML)."""

    body: list[Node] = field(default_factory=list)


@dataclass(slots=True)
class InlineHTML(Node):
    """Raw HTML text outside ``<?php ... ?>``."""

    text: str = ""


@dataclass(slots=True)
class Block(Node):
    """A ``{ ... }`` statement list."""

    body: list[Node] = field(default_factory=list)


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Variable(Node):
    """``$name``. ``name`` excludes the dollar sign."""

    name: str = ""


@dataclass(slots=True)
class VariableVariable(Node):
    """``$$expr`` or ``${expr}``."""

    expr: Node | None = None


@dataclass(slots=True)
class Literal(Node):
    """A scalar literal.

    ``kind`` is one of ``int``, ``float``, ``string``, ``bool``, ``null``;
    ``value`` is the corresponding Python value.
    """

    value: object = None
    kind: str = "null"


@dataclass(slots=True)
class InterpolatedString(Node):
    """A double-quoted string / heredoc with interpolation.

    ``parts`` alternates literal text (``Literal`` nodes with kind 'string')
    and embedded expressions.
    """

    parts: list[Node] = field(default_factory=list)


@dataclass(slots=True)
class ShellExec(Node):
    """A backtick string: executes a shell command (an OSCI sink)."""

    parts: list[Node] = field(default_factory=list)


@dataclass(slots=True)
class ArrayItem(Node):
    """One element of an array literal: optional key, value, by-ref flag."""

    key: Node | None = None
    value: Node | None = None
    by_ref: bool = False
    spread: bool = False


@dataclass(slots=True)
class ArrayLiteral(Node):
    """``array(...)`` or ``[...]``."""

    items: list[ArrayItem] = field(default_factory=list)


@dataclass(slots=True)
class ArrayAccess(Node):
    """``base[index]``; index is None for ``base[] = ...`` appends."""

    base: Node | None = None
    index: Node | None = None


@dataclass(slots=True)
class PropertyAccess(Node):
    """``obj->name``; ``name`` is a string or an expression node."""

    obj: Node | None = None
    name: Union[str, Node] = ""
    nullsafe: bool = False


@dataclass(slots=True)
class StaticPropertyAccess(Node):
    """``Cls::$name``."""

    cls: Union[str, Node] = ""
    name: Union[str, Node] = ""


@dataclass(slots=True)
class ClassConstAccess(Node):
    """``Cls::NAME``."""

    cls: Union[str, Node] = ""
    name: str = ""


@dataclass(slots=True)
class Argument(Node):
    """A call argument: expression, optional by-ref / spread / name."""

    value: Node | None = None
    by_ref: bool = False
    spread: bool = False
    name: str | None = None  # PHP 8 named arguments


@dataclass(slots=True)
class FunctionCall(Node):
    """``name(args)``; ``name`` is a string for plain calls or an
    expression for variable functions (``$f()``)."""

    name: Union[str, Node] = ""
    args: list[Argument] = field(default_factory=list)


@dataclass(slots=True)
class MethodCall(Node):
    """``obj->name(args)``."""

    obj: Node | None = None
    name: Union[str, Node] = ""
    args: list[Argument] = field(default_factory=list)
    nullsafe: bool = False


@dataclass(slots=True)
class StaticCall(Node):
    """``Cls::name(args)``."""

    cls: Union[str, Node] = ""
    name: Union[str, Node] = ""
    args: list[Argument] = field(default_factory=list)


@dataclass(slots=True)
class New(Node):
    """``new Cls(args)``."""

    cls: Union[str, Node] = ""
    args: list[Argument] = field(default_factory=list)


@dataclass(slots=True)
class Clone(Node):
    expr: Node | None = None


@dataclass(slots=True)
class Assign(Node):
    """``target op value`` where op is ``=``, ``.=``, ``+=``, ... .

    ``by_ref`` marks ``$a = &$b``.
    """

    target: Node | None = None
    op: str = "="
    value: Node | None = None
    by_ref: bool = False


@dataclass(slots=True)
class ListAssign(Node):
    """``list($a, $b) = expr`` / ``[$a, $b] = expr``."""

    targets: list[Optional[Node]] = field(default_factory=list)
    value: Node | None = None


@dataclass(slots=True)
class BinaryOp(Node):
    """Any binary operator, including ``.`` concatenation."""

    op: str = ""
    left: Node | None = None
    right: Node | None = None


@dataclass(slots=True)
class UnaryOp(Node):
    """Prefix ``!``, ``-``, ``+``, ``~``; ``op`` stores the operator text."""

    op: str = ""
    operand: Node | None = None


@dataclass(slots=True)
class IncDec(Node):
    """``++$x`` / ``$x--`` etc.  ``prefix`` distinguishes the two forms."""

    op: str = "++"
    operand: Node | None = None
    prefix: bool = True


@dataclass(slots=True)
class Cast(Node):
    """``(int)$x`` — ``to`` is the normalized cast type."""

    to: str = ""
    expr: Node | None = None


@dataclass(slots=True)
class Ternary(Node):
    """``cond ? then : else`` (``then`` is None for the short form)."""

    cond: Node | None = None
    then: Node | None = None
    otherwise: Node | None = None


@dataclass(slots=True)
class ErrorSuppress(Node):
    """``@expr``."""

    expr: Node | None = None


@dataclass(slots=True)
class Isset(Node):
    vars: list[Node] = field(default_factory=list)


@dataclass(slots=True)
class Empty(Node):
    expr: Node | None = None


@dataclass(slots=True)
class PrintExpr(Node):
    """``print expr`` (an expression in PHP)."""

    expr: Node | None = None


@dataclass(slots=True)
class ExitExpr(Node):
    """``exit(expr)`` / ``die(expr)`` (usable as an expression)."""

    expr: Node | None = None


@dataclass(slots=True)
class Include(Node):
    """``include/include_once/require/require_once expr``.

    ``kind`` is the keyword used (lowercase).
    """

    kind: str = "include"
    expr: Node | None = None


@dataclass(slots=True)
class InstanceOf(Node):
    expr: Node | None = None
    cls: Union[str, Node] = ""


@dataclass(slots=True)
class ConstFetch(Node):
    """A bare identifier used as a constant (``PHP_EOL``, ``SORT_ASC``...)."""

    name: str = ""


@dataclass(slots=True)
class MatchArm(Node):
    """One arm of a ``match`` expression; ``conditions`` is None for
    ``default``."""

    conditions: list[Node] | None = None
    body: Node | None = None


@dataclass(slots=True)
class Match(Node):
    """PHP 8 ``match (subject) { cond, ... => expr, default => expr }``."""

    subject: Node | None = None
    arms: list[MatchArm] = field(default_factory=list)


@dataclass(slots=True)
class Closure(Node):
    """``function (params) use (...) { body }`` and arrow functions."""

    params: list["Param"] = field(default_factory=list)
    uses: list[tuple[str, bool]] = field(default_factory=list)  # (name, by_ref)
    body: list[Node] = field(default_factory=list)
    by_ref: bool = False
    is_arrow: bool = False


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class ExpressionStatement(Node):
    expr: Node | None = None


@dataclass(slots=True)
class Echo(Node):
    exprs: list[Node] = field(default_factory=list)


@dataclass(slots=True)
class If(Node):
    cond: Node | None = None
    then: list[Node] = field(default_factory=list)
    elifs: list[tuple[Node, list[Node]]] = field(default_factory=list)
    otherwise: list[Node] | None = None

    def children(self) -> Iterator[Node]:  # tuples inside elifs need help
        if self.cond is not None:
            yield self.cond
        yield from self.then
        for cond, body in self.elifs:
            yield cond
            yield from body
        if self.otherwise:
            yield from self.otherwise


@dataclass(slots=True)
class While(Node):
    cond: Node | None = None
    body: list[Node] = field(default_factory=list)


@dataclass(slots=True)
class DoWhile(Node):
    body: list[Node] = field(default_factory=list)
    cond: Node | None = None


@dataclass(slots=True)
class For(Node):
    init: list[Node] = field(default_factory=list)
    cond: list[Node] = field(default_factory=list)
    step: list[Node] = field(default_factory=list)
    body: list[Node] = field(default_factory=list)


@dataclass(slots=True)
class Foreach(Node):
    subject: Node | None = None
    key_var: Node | None = None
    value_var: Node | None = None
    by_ref: bool = False
    body: list[Node] = field(default_factory=list)


@dataclass(slots=True)
class SwitchCase(Node):
    """One ``case expr:`` arm; ``test`` is None for ``default:``."""

    test: Node | None = None
    body: list[Node] = field(default_factory=list)


@dataclass(slots=True)
class Switch(Node):
    subject: Node | None = None
    cases: list[SwitchCase] = field(default_factory=list)


@dataclass(slots=True)
class Break(Node):
    level: int = 1


@dataclass(slots=True)
class Continue(Node):
    level: int = 1


@dataclass(slots=True)
class Goto(Node):
    """``goto label;`` — a no-op for the flow-insensitive analysis."""

    label: str = ""


@dataclass(slots=True)
class Label(Node):
    """``label:`` target of a goto."""

    name: str = ""


@dataclass(slots=True)
class Return(Node):
    expr: Node | None = None


@dataclass(slots=True)
class Global(Node):
    names: list[str] = field(default_factory=list)


@dataclass(slots=True)
class StaticVarDecl(Node):
    """``static $x = 1, $y;`` inside a function."""

    vars: list[tuple[str, Optional[Node]]] = field(default_factory=list)

    def children(self) -> Iterator[Node]:
        for _name, default in self.vars:
            if default is not None:
                yield default


@dataclass(slots=True)
class Unset(Node):
    vars: list[Node] = field(default_factory=list)


@dataclass(slots=True)
class Throw(Node):
    expr: Node | None = None


@dataclass(slots=True)
class CatchClause(Node):
    types: list[str] = field(default_factory=list)
    var: str | None = None
    body: list[Node] = field(default_factory=list)


@dataclass(slots=True)
class Try(Node):
    body: list[Node] = field(default_factory=list)
    catches: list[CatchClause] = field(default_factory=list)
    finally_body: list[Node] | None = None


@dataclass(slots=True)
class Param(Node):
    """A function/method parameter."""

    name: str = ""
    default: Node | None = None
    by_ref: bool = False
    variadic: bool = False
    type_hint: str | None = None


@dataclass(slots=True)
class FunctionDecl(Node):
    name: str = ""
    params: list[Param] = field(default_factory=list)
    body: list[Node] = field(default_factory=list)
    by_ref: bool = False
    return_type: str | None = None


@dataclass(slots=True)
class PropertyDecl(Node):
    """``public $x = 1, $y;`` inside a class body."""

    modifiers: list[str] = field(default_factory=list)
    vars: list[tuple[str, Optional[Node]]] = field(default_factory=list)
    type_hint: str | None = None

    def children(self) -> Iterator[Node]:
        for _name, default in self.vars:
            if default is not None:
                yield default


@dataclass(slots=True)
class ClassConstDecl(Node):
    modifiers: list[str] = field(default_factory=list)
    consts: list[tuple[str, Node]] = field(default_factory=list)

    def children(self) -> Iterator[Node]:
        for _name, value in self.consts:
            yield value


@dataclass(slots=True)
class MethodDecl(Node):
    name: str = ""
    params: list[Param] = field(default_factory=list)
    body: list[Node] | None = None  # None for abstract/interface methods
    modifiers: list[str] = field(default_factory=list)
    by_ref: bool = False
    return_type: str | None = None


@dataclass(slots=True)
class UseTrait(Node):
    names: list[str] = field(default_factory=list)


@dataclass(slots=True)
class ClassDecl(Node):
    name: str = ""
    parent: str | None = None
    interfaces: list[str] = field(default_factory=list)
    members: list[Node] = field(default_factory=list)
    modifiers: list[str] = field(default_factory=list)
    kind: str = "class"  # class | interface | trait


@dataclass(slots=True)
class NamespaceDecl(Node):
    name: str = ""
    body: list[Node] | None = None


@dataclass(slots=True)
class UseDecl(Node):
    """``use Foo\\Bar as Baz;`` — recorded but not resolved."""

    imports: list[tuple[str, Optional[str]]] = field(default_factory=list)

    def children(self) -> Iterator[Node]:
        return iter(())


@dataclass(slots=True)
class ConstStatement(Node):
    """Top-level ``const NAME = value;``."""

    consts: list[tuple[str, Node]] = field(default_factory=list)

    def children(self) -> Iterator[Node]:
        for _name, value in self.consts:
            yield value
