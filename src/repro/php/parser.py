"""Recursive-descent parser for the PHP subset used by the taint analyzer.

The grammar follows PHP 5/7 precedence.  The parser is deliberately lenient
in a few places where real-world PHP is sloppy (e.g. ``declare(strict_types=1)``
parses as a call with an assignment argument) because the taint analyzer only
cares about data flow, not full language validation.

Entry point: :func:`parse`.
"""

from __future__ import annotations

import re

from repro.exceptions import PhpSyntaxError
from repro.php import ast_nodes as ast
from repro.php.lexer import tokenize
from repro.php.tokens import Token, TokenType as T

# assignment token -> Assign.op text
_ASSIGN_OPS = {
    T.ASSIGN: "=",
    T.PLUS_ASSIGN: "+=",
    T.MINUS_ASSIGN: "-=",
    T.MUL_ASSIGN: "*=",
    T.DIV_ASSIGN: "/=",
    T.MOD_ASSIGN: "%=",
    T.CONCAT_ASSIGN: ".=",
    T.POW_ASSIGN: "**=",
    T.AND_ASSIGN: "&=",
    T.OR_ASSIGN: "|=",
    T.XOR_ASSIGN: "^=",
    T.SHL_ASSIGN: "<<=",
    T.SHR_ASSIGN: ">>=",
    T.COALESCE_ASSIGN: "??=",
}

# binary precedence levels, low to high; each entry: {token: op-text}
_BINARY_LEVELS: list[dict[T, str]] = [
    {T.BOOL_OR: "||"},
    {T.BOOL_AND: "&&"},
    {T.PIPE: "|"},
    {T.CARET: "^"},
    {T.AMP: "&"},
    {T.EQ: "==", T.NEQ: "!=", T.IDENTICAL: "===",
     T.NOT_IDENTICAL: "!=="},
    {T.LT: "<", T.GT: ">", T.LE: "<=", T.GE: ">=", T.SPACESHIP: "<=>"},
    {T.SHL: "<<", T.SHR: ">>"},
    {T.PLUS: "+", T.MINUS: "-", T.DOT: "."},
    {T.MUL: "*", T.DIV: "/", T.MOD: "%"},
]

# flattened for precedence climbing: token -> (level, op-text)
_BINARY_PREC: dict[T, tuple[int, str]] = {
    tok: (level, op)
    for level, ops in enumerate(_BINARY_LEVELS)
    for tok, op in ops.items()
}

# every KW_* token type, precomputed so keyword-as-name checks avoid
# string inspection of the enum member name
_KEYWORD_TYPES = frozenset(t for t in T if t.name.startswith("KW_"))

_MAGIC_CONSTANTS = {
    "__file__", "__line__", "__dir__", "__function__", "__class__",
    "__method__", "__namespace__", "__trait__",
}

_DQ_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "v": "\v", "f": "\f", "e": "\x1b",
    "\\": "\\", "$": "$", '"': '"', "`": "`",
}


class Parser:
    """Parses a token stream into a :class:`repro.php.ast_nodes.Program`."""

    #: recovery gives up after this many damaged statements in one file
    MAX_WARNINGS = 200

    def __init__(self, tokens: list[Token], filename: str = "<source>",
                 recover: bool = False) -> None:
        self.tokens = tokens
        self.filename = filename
        self.pos = 0
        self.recover = recover
        self.warnings: list[PhpSyntaxError] = []

    # ------------------------------------------------------------------
    # token helpers
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        if offset:
            idx = min(self.pos + offset, len(self.tokens) - 1)
            return self.tokens[idx]
        # the cursor never passes the trailing EOF token
        return self.tokens[self.pos]

    def _at(self, *types: T) -> bool:
        return self.tokens[self.pos].type in types

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type is not T.EOF:
            self.pos += 1
        return tok

    def _accept(self, *types: T) -> Token | None:
        if self._at(*types):
            return self._advance()
        return None

    def _expect(self, type_: T, what: str | None = None) -> Token:
        tok = self._peek()
        if tok.type is not type_:
            expected = what or type_.value
            raise PhpSyntaxError(
                f"expected {expected}, found {tok.type.value!r} ({tok.value!r})",
                tok.line, tok.col, self.filename)
        return self._advance()

    def _error(self, message: str) -> PhpSyntaxError:
        tok = self._peek()
        return PhpSyntaxError(message, tok.line, tok.col, self.filename)

    # ------------------------------------------------------------------
    # program / statements
    # ------------------------------------------------------------------
    def parse_program(self) -> ast.Program:
        body: list[ast.Node] = []
        first = self._peek()
        while not self._at(T.EOF):
            stmt = (self._parse_statement_recovering()
                    if self.recover else self._parse_statement())
            if stmt is not None:
                body.append(stmt)
        return ast.Program(body, line=first.line, col=first.col)

    def _parse_statement_list(self, *stop: T) -> list[ast.Node]:
        body: list[ast.Node] = []
        while not self._at(T.EOF, *stop):
            stmt = (self._parse_statement_recovering(stop)
                    if self.recover else self._parse_statement())
            if stmt is not None:
                body.append(stmt)
        return body

    def _parse_statement_recovering(
            self, stop: tuple[T, ...] = ()) -> ast.Node | None:
        """One statement; on a syntax error, record it and resynchronize.

        Damaged statements become warnings instead of killing the whole
        file: we skip forward to the next plausible statement boundary
        (``;``, a balanced ``}``, a close tag or a *stop* token) and keep
        going, guaranteeing at least one token of progress per attempt.
        """
        start = self.pos
        try:
            return self._parse_statement()
        except PhpSyntaxError as exc:
            self.warnings.append(exc)
            if len(self.warnings) > self.MAX_WARNINGS:
                raise  # the file is hopeless; report it as a parse error
            self._synchronize(stop)
            if self.pos == start and not self._at(T.EOF, *stop):
                self._advance()
            return None

    def _synchronize(self, stop: tuple[T, ...]) -> None:
        """Skip tokens until a likely statement boundary.

        Consumes through the next ``;``, but stops *before* close tags,
        stray HTML, ``}``, EOF and the caller's *stop* tokens so the
        enclosing construct can resume normally.  A truly stray ``}`` at
        the top level is swallowed (there is nothing for it to close).
        """
        while not self._at(T.EOF):
            tt = self._peek().type
            if tt is T.SEMI:
                self._advance()
                return
            if tt in stop or tt in (T.CLOSE_TAG, T.OPEN_TAG, T.INLINE_HTML):
                return
            if tt is T.RBRACE:
                if not stop:
                    self._advance()  # stray closing brace at top level
                return
            self._advance()

    def _parse_block_or_single(self) -> list[ast.Node]:
        """Parse ``{ ... }`` or a single statement, returning a list."""
        if self._accept(T.LBRACE):
            body = self._parse_statement_list(T.RBRACE)
            self._expect(T.RBRACE)
            return body
        stmt = self._parse_statement()
        return [stmt] if stmt is not None else []

    def _parse_statement(self) -> ast.Node | None:  # noqa: C901
        tok = self._peek()
        tt = tok.type

        if tt is T.INLINE_HTML:
            self._advance()
            return ast.InlineHTML(tok.value, line=tok.line, col=tok.col)
        if tt in (T.OPEN_TAG, T.CLOSE_TAG):
            self._advance()
            return None
        if tt is T.SEMI:
            self._advance()
            return None
        if tt is T.LBRACE:
            self._advance()
            body = self._parse_statement_list(T.RBRACE)
            self._expect(T.RBRACE)
            return ast.Block(body, line=tok.line, col=tok.col)

        if tt is T.KW_IF:
            return self._parse_if()
        if tt is T.KW_WHILE:
            return self._parse_while()
        if tt is T.KW_DO:
            return self._parse_do_while()
        if tt is T.KW_FOR:
            return self._parse_for()
        if tt is T.KW_FOREACH:
            return self._parse_foreach()
        if tt is T.KW_SWITCH:
            return self._parse_switch()
        if tt is T.KW_BREAK or tt is T.KW_CONTINUE:
            self._advance()
            level = 1
            num = self._accept(T.INT)
            if num:
                level = int(num.value, 0)
            self._expect_semi()
            cls = ast.Break if tt is T.KW_BREAK else ast.Continue
            return cls(level, line=tok.line, col=tok.col)
        if tt is T.KW_RETURN:
            self._advance()
            expr = None
            if not self._at(T.SEMI, T.CLOSE_TAG, T.EOF):
                expr = self.parse_expression()
            self._expect_semi()
            return ast.Return(expr, line=tok.line, col=tok.col)
        if tt is T.KW_ECHO:
            self._advance()
            exprs = [self.parse_expression()]
            while self._accept(T.COMMA):
                exprs.append(self.parse_expression())
            self._expect_semi()
            return ast.Echo(exprs, line=tok.line, col=tok.col)
        if tt is T.KW_GLOBAL:
            self._advance()
            names = [self._expect(T.VARIABLE).value]
            while self._accept(T.COMMA):
                names.append(self._expect(T.VARIABLE).value)
            self._expect_semi()
            return ast.Global(names, line=tok.line, col=tok.col)
        if tt is T.KW_STATIC and self._peek(1).type is T.VARIABLE:
            return self._parse_static_vars()
        if tt is T.KW_UNSET:
            self._advance()
            self._expect(T.LPAREN)
            vars_: list[ast.Node] = [self.parse_expression()]
            while self._accept(T.COMMA):
                vars_.append(self.parse_expression())
            self._expect(T.RPAREN)
            self._expect_semi()
            return ast.Unset(vars_, line=tok.line, col=tok.col)
        if tt is T.KW_THROW:
            self._advance()
            expr = self.parse_expression()
            self._expect_semi()
            return ast.Throw(expr, line=tok.line, col=tok.col)
        if tt is T.KW_TRY:
            return self._parse_try()
        if tt is T.KW_FUNCTION and self._peek(1).type in (T.IDENT, T.AMP):
            # "function &name" or "function name" is a declaration;
            # "function (" is a closure expression.
            nxt = self._peek(1)
            if nxt.type is T.IDENT or (
                    nxt.type is T.AMP and self._peek(2).type is T.IDENT):
                return self._parse_function_decl()
        if tt in (T.KW_CLASS, T.KW_INTERFACE, T.KW_TRAIT):
            return self._parse_class_decl([])
        if tt in (T.KW_ABSTRACT, T.KW_FINAL):
            modifiers = []
            while self._at(T.KW_ABSTRACT, T.KW_FINAL):
                modifiers.append(self._advance().value.lower())
            return self._parse_class_decl(modifiers)
        if tt is T.KW_NAMESPACE:
            return self._parse_namespace()
        if tt is T.KW_USE:
            return self._parse_use()
        if tt is T.KW_CONST:
            self._advance()
            consts: list[tuple[str, ast.Node]] = []
            while True:
                name = self._expect(T.IDENT).value
                self._expect(T.ASSIGN)
                consts.append((name, self.parse_expression()))
                if not self._accept(T.COMMA):
                    break
            self._expect_semi()
            return ast.ConstStatement(consts, line=tok.line, col=tok.col)

        if tt is T.IDENT and tok.value.lower() == "goto" \
                and self._peek(1).type is T.IDENT:
            self._advance()
            label = self._advance().value
            self._expect_semi()
            return ast.Goto(label, line=tok.line, col=tok.col)
        if tt is T.IDENT and self._peek(1).type is T.COLON:
            # "label:" goto target (":" after a bare name can be nothing
            # else at statement level — "::" lexes as one token)
            self._advance()
            self._advance()
            return ast.Label(tok.value, line=tok.line, col=tok.col)

        # expression statement
        expr = self.parse_expression()
        self._expect_semi()
        return ast.ExpressionStatement(expr, line=tok.line, col=tok.col)

    def _expect_semi(self) -> None:
        """Consume a statement terminator (``;`` or an implicit one)."""
        if self._accept(T.SEMI):
            return
        # a close tag or EOF also terminates a statement in PHP
        if self._at(T.CLOSE_TAG, T.EOF):
            return
        raise self._error(
            f"expected ';', found {self._peek().type.value!r}")

    # ------------------------------------------------------------------
    # control flow statements
    # ------------------------------------------------------------------
    def _parse_if(self) -> ast.If:
        tok = self._expect(T.KW_IF)
        self._expect(T.LPAREN)
        cond = self.parse_expression()
        self._expect(T.RPAREN)
        if self._accept(T.COLON):  # alternative syntax
            then = self._parse_statement_list(
                T.KW_ELSEIF, T.KW_ELSE, T.KW_ENDIF)
            elifs: list[tuple[ast.Node, list[ast.Node]]] = []
            otherwise: list[ast.Node] | None = None
            while self._at(T.KW_ELSEIF):
                self._advance()
                self._expect(T.LPAREN)
                econd = self.parse_expression()
                self._expect(T.RPAREN)
                self._expect(T.COLON)
                ebody = self._parse_statement_list(
                    T.KW_ELSEIF, T.KW_ELSE, T.KW_ENDIF)
                elifs.append((econd, ebody))
            if self._accept(T.KW_ELSE):
                self._expect(T.COLON)
                otherwise = self._parse_statement_list(T.KW_ENDIF)
            self._expect(T.KW_ENDIF)
            self._expect_semi()
            return ast.If(cond, then, elifs, otherwise, line=tok.line, col=tok.col)

        then = self._parse_block_or_single()
        elifs = []
        otherwise = None
        while True:
            if self._at(T.KW_ELSEIF):
                self._advance()
                self._expect(T.LPAREN)
                econd = self.parse_expression()
                self._expect(T.RPAREN)
                elifs.append((econd, self._parse_block_or_single()))
            elif self._at(T.KW_ELSE) and self._peek(1).type is T.KW_IF:
                self._advance()
                self._advance()
                self._expect(T.LPAREN)
                econd = self.parse_expression()
                self._expect(T.RPAREN)
                elifs.append((econd, self._parse_block_or_single()))
            elif self._at(T.KW_ELSE):
                self._advance()
                otherwise = self._parse_block_or_single()
                break
            else:
                break
        return ast.If(cond, then, elifs, otherwise, line=tok.line, col=tok.col)

    def _parse_while(self) -> ast.While:
        tok = self._expect(T.KW_WHILE)
        self._expect(T.LPAREN)
        cond = self.parse_expression()
        self._expect(T.RPAREN)
        if self._accept(T.COLON):
            body = self._parse_statement_list(T.KW_ENDWHILE)
            self._expect(T.KW_ENDWHILE)
            self._expect_semi()
        else:
            body = self._parse_block_or_single()
        return ast.While(cond, body, line=tok.line, col=tok.col)

    def _parse_do_while(self) -> ast.DoWhile:
        tok = self._expect(T.KW_DO)
        body = self._parse_block_or_single()
        self._expect(T.KW_WHILE)
        self._expect(T.LPAREN)
        cond = self.parse_expression()
        self._expect(T.RPAREN)
        self._expect_semi()
        return ast.DoWhile(body, cond, line=tok.line, col=tok.col)

    def _parse_for(self) -> ast.For:
        tok = self._expect(T.KW_FOR)
        self._expect(T.LPAREN)

        def exprs_until(stop: T) -> list[ast.Node]:
            out: list[ast.Node] = []
            if not self._at(stop):
                out.append(self.parse_expression())
                while self._accept(T.COMMA):
                    out.append(self.parse_expression())
            return out

        init = exprs_until(T.SEMI)
        self._expect(T.SEMI)
        cond = exprs_until(T.SEMI)
        self._expect(T.SEMI)
        step = exprs_until(T.RPAREN)
        self._expect(T.RPAREN)
        if self._accept(T.COLON):
            body = self._parse_statement_list(T.KW_ENDFOR)
            self._expect(T.KW_ENDFOR)
            self._expect_semi()
        else:
            body = self._parse_block_or_single()
        return ast.For(init, cond, step, body, line=tok.line, col=tok.col)

    def _parse_foreach(self) -> ast.Foreach:
        tok = self._expect(T.KW_FOREACH)
        self._expect(T.LPAREN)
        subject = self.parse_expression()
        self._expect(T.KW_AS)
        by_ref = bool(self._accept(T.AMP))
        first = self.parse_expression()
        key_var: ast.Node | None = None
        value_var = first
        if self._accept(T.DOUBLE_ARROW):
            key_var = first
            by_ref = bool(self._accept(T.AMP))
            value_var = self.parse_expression()
        self._expect(T.RPAREN)
        if self._accept(T.COLON):
            body = self._parse_statement_list(T.KW_ENDFOREACH)
            self._expect(T.KW_ENDFOREACH)
            self._expect_semi()
        else:
            body = self._parse_block_or_single()
        return ast.Foreach(subject, key_var, value_var, by_ref, body,
                           line=tok.line, col=tok.col)

    def _parse_switch(self) -> ast.Switch:
        tok = self._expect(T.KW_SWITCH)
        self._expect(T.LPAREN)
        subject = self.parse_expression()
        self._expect(T.RPAREN)
        alt = False
        if self._accept(T.COLON):
            alt = True
        else:
            self._expect(T.LBRACE)
        cases: list[ast.SwitchCase] = []
        end = (T.KW_ENDSWITCH,) if alt else (T.RBRACE,)
        while not self._at(T.EOF, *end):
            if self._at(T.CLOSE_TAG, T.OPEN_TAG, T.INLINE_HTML):
                # "?> ... <?php" between the switch brace and its cases
                self._advance()
                continue
            ctok = self._peek()
            if self._accept(T.KW_CASE):
                test: ast.Node | None = self.parse_expression()
            elif self._accept(T.KW_DEFAULT):
                test = None
            else:
                raise self._error("expected 'case' or 'default' in switch")
            if not self._accept(T.COLON):
                self._expect(T.SEMI)  # "case 1;" legacy form
            body = self._parse_statement_list(
                T.KW_CASE, T.KW_DEFAULT, *end)
            cases.append(ast.SwitchCase(test, body, line=ctok.line, col=ctok.col))
        if alt:
            self._expect(T.KW_ENDSWITCH)
            self._expect_semi()
        else:
            self._expect(T.RBRACE)
        return ast.Switch(subject, cases, line=tok.line, col=tok.col)

    def _parse_try(self) -> ast.Try:
        tok = self._expect(T.KW_TRY)
        self._expect(T.LBRACE)
        body = self._parse_statement_list(T.RBRACE)
        self._expect(T.RBRACE)
        catches: list[ast.CatchClause] = []
        while self._at(T.KW_CATCH):
            ctok = self._advance()
            self._expect(T.LPAREN)
            types = [self._parse_qualified_name()]
            while self._accept(T.PIPE):
                types.append(self._parse_qualified_name())
            var_tok = self._accept(T.VARIABLE)
            self._expect(T.RPAREN)
            self._expect(T.LBRACE)
            cbody = self._parse_statement_list(T.RBRACE)
            self._expect(T.RBRACE)
            catches.append(ast.CatchClause(
                types, var_tok.value if var_tok else None, cbody,
                line=ctok.line, col=ctok.col))
        finally_body: list[ast.Node] | None = None
        if self._accept(T.KW_FINALLY):
            self._expect(T.LBRACE)
            finally_body = self._parse_statement_list(T.RBRACE)
            self._expect(T.RBRACE)
        return ast.Try(body, catches, finally_body, line=tok.line, col=tok.col)

    def _parse_static_vars(self) -> ast.StaticVarDecl:
        tok = self._expect(T.KW_STATIC)
        vars_: list[tuple[str, ast.Node | None]] = []
        while True:
            name = self._expect(T.VARIABLE).value
            default = None
            if self._accept(T.ASSIGN):
                default = self.parse_expression()
            vars_.append((name, default))
            if not self._accept(T.COMMA):
                break
        self._expect_semi()
        return ast.StaticVarDecl(vars_, line=tok.line, col=tok.col)

    # ------------------------------------------------------------------
    # declarations
    # ------------------------------------------------------------------
    def _parse_qualified_name(self) -> str:
        """Parse a possibly-namespaced name: ``\\Foo\\Bar`` or ``Bar``."""
        parts: list[str] = []
        leading = bool(self._accept(T.BACKSLASH))
        parts.append(self._expect_name())
        while self._at(T.BACKSLASH) and self._peek(1).type is T.IDENT:
            self._advance()
            parts.append(self._expect(T.IDENT).value)
        name = "\\".join(parts)
        return ("\\" + name) if leading else name

    def _expect_name(self) -> str:
        """Accept an identifier, allowing (semi-)keywords used as names."""
        tok = self._peek()
        if tok.type is T.IDENT:
            return self._advance().value
        # PHP allows many keywords as method/const names
        if tok.type in _KEYWORD_TYPES:
            return self._advance().value
        raise self._error(
            f"expected name, found {tok.type.value!r}")

    def _parse_type_hint(self) -> str | None:
        """Parse an optional parameter/return type hint."""
        if self._at(T.QUESTION) and self._peek(1).type in (
                T.IDENT, T.KW_ARRAY, T.KW_STATIC, T.BACKSLASH):
            self._advance()
            return "?" + (self._parse_type_hint() or "")
        if self._at(T.KW_ARRAY):
            self._advance()
            return "array"
        if self._at(T.KW_STATIC):
            self._advance()
            return "static"
        if self._at(T.IDENT, T.BACKSLASH):
            name = self._parse_qualified_name()
            # union types: a|b
            while self._at(T.PIPE) and self._peek(1).type in (
                    T.IDENT, T.KW_ARRAY):
                self._advance()
                if self._at(T.KW_ARRAY):
                    self._advance()
                    name += "|array"
                else:
                    name += "|" + self._parse_qualified_name()
            return name
        return None

    def _parse_params(self) -> list[ast.Param]:
        self._expect(T.LPAREN)
        params: list[ast.Param] = []
        while not self._at(T.RPAREN, T.EOF):
            ptok = self._peek()
            # visibility modifiers for constructor promotion
            while self._at(T.KW_PUBLIC, T.KW_PRIVATE, T.KW_PROTECTED):
                self._advance()
            type_hint = None
            if not self._at(T.VARIABLE, T.AMP, T.ELLIPSIS):
                type_hint = self._parse_type_hint()
            by_ref = bool(self._accept(T.AMP))
            variadic = bool(self._accept(T.ELLIPSIS))
            name = self._expect(T.VARIABLE).value
            default = None
            if self._accept(T.ASSIGN):
                default = self.parse_expression()
            params.append(ast.Param(name, default, by_ref, variadic,
                                    type_hint, line=ptok.line, col=ptok.col))
            if not self._accept(T.COMMA):
                break
        self._expect(T.RPAREN)
        return params

    def _parse_function_decl(self) -> ast.FunctionDecl:
        tok = self._expect(T.KW_FUNCTION)
        by_ref = bool(self._accept(T.AMP))
        name = self._expect_name()
        params = self._parse_params()
        return_type = None
        if self._accept(T.COLON):
            return_type = self._parse_type_hint()
        self._expect(T.LBRACE)
        body = self._parse_statement_list(T.RBRACE)
        self._expect(T.RBRACE)
        return ast.FunctionDecl(name, params, body, by_ref, return_type,
                                line=tok.line, col=tok.col)

    def _parse_class_decl(self, modifiers: list[str]) -> ast.ClassDecl:
        tok = self._advance()  # class / interface / trait
        kind = tok.value.lower()
        name = self._expect_name()
        parent = None
        interfaces: list[str] = []
        if self._accept(T.KW_EXTENDS):
            first = self._parse_qualified_name()
            if kind == "interface":
                interfaces.append(first)  # interfaces extend interfaces
            else:
                parent = first
            while self._accept(T.COMMA):
                interfaces.append(self._parse_qualified_name())
        if self._accept(T.KW_IMPLEMENTS):
            interfaces.append(self._parse_qualified_name())
            while self._accept(T.COMMA):
                interfaces.append(self._parse_qualified_name())
        self._expect(T.LBRACE)
        members: list[ast.Node] = []
        while not self._at(T.RBRACE, T.EOF):
            members.append(self._parse_class_member())
        self._expect(T.RBRACE)
        return ast.ClassDecl(name, parent, interfaces, members, modifiers,
                             kind, line=tok.line, col=tok.col)

    def _parse_class_member(self) -> ast.Node:  # noqa: C901
        tok = self._peek()
        mods: list[str] = []
        while self._at(T.KW_PUBLIC, T.KW_PRIVATE, T.KW_PROTECTED,
                       T.KW_STATIC, T.KW_ABSTRACT, T.KW_FINAL, T.KW_VAR):
            mods.append(self._advance().value.lower())
        if self._at(T.KW_USE):  # trait use
            self._advance()
            names = [self._parse_qualified_name()]
            while self._accept(T.COMMA):
                names.append(self._parse_qualified_name())
            if self._accept(T.LBRACE):  # conflict-resolution block: skip
                depth = 1
                while depth and not self._at(T.EOF):
                    if self._at(T.LBRACE):
                        depth += 1
                    elif self._at(T.RBRACE):
                        depth -= 1
                    self._advance()
            else:
                self._expect_semi()
            return ast.UseTrait(names, line=tok.line, col=tok.col)
        if self._at(T.KW_CONST):
            self._advance()
            consts: list[tuple[str, ast.Node]] = []
            while True:
                name = self._expect_name()
                self._expect(T.ASSIGN)
                consts.append((name, self.parse_expression()))
                if not self._accept(T.COMMA):
                    break
            self._expect_semi()
            return ast.ClassConstDecl(mods, consts, line=tok.line, col=tok.col)
        if self._at(T.KW_FUNCTION):
            self._advance()
            by_ref = bool(self._accept(T.AMP))
            name = self._expect_name()
            params = self._parse_params()
            return_type = None
            if self._accept(T.COLON):
                return_type = self._parse_type_hint()
            body: list[ast.Node] | None = None
            if self._accept(T.LBRACE):
                body = self._parse_statement_list(T.RBRACE)
                self._expect(T.RBRACE)
            else:
                self._expect_semi()
            return ast.MethodDecl(name, params, body, mods, by_ref,
                                  return_type, line=tok.line, col=tok.col)
        # property, possibly typed
        type_hint = None
        if not self._at(T.VARIABLE):
            type_hint = self._parse_type_hint()
            if type_hint is None:
                raise self._error("expected class member")
        vars_: list[tuple[str, ast.Node | None]] = []
        while True:
            name = self._expect(T.VARIABLE).value
            default = None
            if self._accept(T.ASSIGN):
                default = self.parse_expression()
            vars_.append((name, default))
            if not self._accept(T.COMMA):
                break
        self._expect_semi()
        return ast.PropertyDecl(mods or ["public"], vars_, type_hint,
                                line=tok.line, col=tok.col)

    def _parse_namespace(self) -> ast.NamespaceDecl:
        tok = self._expect(T.KW_NAMESPACE)
        name = ""
        if self._at(T.IDENT):
            name = self._parse_qualified_name()
        if self._accept(T.LBRACE):
            body = self._parse_statement_list(T.RBRACE)
            self._expect(T.RBRACE)
            return ast.NamespaceDecl(name, body, line=tok.line, col=tok.col)
        self._expect_semi()
        return ast.NamespaceDecl(name, None, line=tok.line, col=tok.col)

    def _parse_use(self) -> ast.UseDecl:
        tok = self._expect(T.KW_USE)
        # "use function foo" / "use const foo" — the qualifier is irrelevant
        if self._at(T.KW_FUNCTION, T.KW_CONST):
            self._advance()
        imports: list[tuple[str, str | None]] = []
        while True:
            name = self._parse_qualified_name()
            alias = None
            if self._accept(T.KW_AS):
                alias = self._expect_name()
            imports.append((name, alias))
            if not self._accept(T.COMMA):
                break
        self._expect_semi()
        return ast.UseDecl(imports, line=tok.line, col=tok.col)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def parse_expression(self) -> ast.Node:
        """Parse a full expression, including low-precedence and/or/xor."""
        left = self._parse_assignment()
        while self._at(T.KW_AND, T.KW_OR, T.KW_XOR):
            op_tok = self._advance()
            op = {"and": "&&", "or": "||", "xor": "xor"}[
                op_tok.value.lower()]
            right = self._parse_assignment()
            left = ast.BinaryOp(op, left, right, line=op_tok.line, col=op_tok.col)
        return left

    def _parse_assignment(self) -> ast.Node:
        target = self._parse_ternary()
        tok = self._peek()
        if tok.type in _ASSIGN_OPS:
            self._advance()
            by_ref = False
            if tok.type is T.ASSIGN and self._accept(T.AMP):
                by_ref = True
            value = self._parse_assignment()  # right associative
            if isinstance(target, ast.ArrayLiteral) and \
                    tok.type is T.ASSIGN and not by_ref:
                targets = [item.value for item in target.items]
                return ast.ListAssign(targets, value, line=tok.line, col=tok.col)
            return ast.Assign(target, _ASSIGN_OPS[tok.type], value, by_ref,
                              line=tok.line, col=tok.col)
        return target

    def _parse_ternary(self) -> ast.Node:
        cond = self._parse_coalesce()
        tok = self._peek()
        if tok.type is T.QUESTION:
            self._advance()
            then: ast.Node | None = None
            if not self._at(T.COLON):
                then = self.parse_expression()
            self._expect(T.COLON)
            otherwise = self._parse_assignment()
            return ast.Ternary(cond, then, otherwise, line=tok.line, col=tok.col)
        return cond

    def _parse_coalesce(self) -> ast.Node:
        left = self._parse_binary(0)
        tok = self._peek()
        if tok.type is T.COALESCE:
            self._advance()
            right = self._parse_coalesce()  # right associative
            return ast.BinaryOp("??", left, right, line=tok.line, col=tok.col)
        return left

    def _parse_binary(self, level: int) -> ast.Node:
        # precedence climbing: one loop over the flattened operator table
        # replaces a ten-deep recursion per operand (all levels here are
        # left-associative)
        prec = _BINARY_PREC
        left = self._parse_instanceof()
        while True:
            tok = self.tokens[self.pos]
            entry = prec.get(tok.type)
            if entry is None or entry[0] < level:
                return left
            self.pos += 1  # the operator token (never EOF)
            right = self._parse_binary(entry[0] + 1)
            left = ast.BinaryOp(entry[1], left, right,
                                line=tok.line, col=tok.col)

    def _parse_instanceof(self) -> ast.Node:
        expr = self._parse_unary()
        while self._at(T.KW_INSTANCEOF):
            tok = self._advance()
            if self._at(T.IDENT, T.BACKSLASH):
                cls: str | ast.Node = self._parse_qualified_name()
            else:
                cls = self._parse_unary()
            expr = ast.InstanceOf(expr, cls, line=tok.line, col=tok.col)
        return expr

    def _parse_unary(self) -> ast.Node:  # noqa: C901
        tok = self._peek()
        tt = tok.type
        if tt is T.NOT:
            self._advance()
            return ast.UnaryOp("!", self._parse_unary(), line=tok.line, col=tok.col)
        if tt is T.MINUS or tt is T.PLUS or tt is T.TILDE:
            self._advance()
            return ast.UnaryOp(tok.value, self._parse_unary(),
                               line=tok.line, col=tok.col)
        if tt is T.INC or tt is T.DEC:
            self._advance()
            return ast.IncDec(tok.value, self._parse_unary(), True,
                              line=tok.line, col=tok.col)
        if tt is T.CAST:
            self._advance()
            return ast.Cast(tok.value, self._parse_unary(),
                            line=tok.line, col=tok.col)
        if tt is T.AT:
            self._advance()
            return ast.ErrorSuppress(self._parse_unary(),
                                     line=tok.line, col=tok.col)
        if tt is T.KW_PRINT:
            self._advance()
            return ast.PrintExpr(self.parse_expression(),
                                 line=tok.line, col=tok.col)
        if tt in (T.KW_INCLUDE, T.KW_INCLUDE_ONCE,
                  T.KW_REQUIRE, T.KW_REQUIRE_ONCE):
            self._advance()
            return ast.Include(tok.value.lower(), self.parse_expression(),
                               line=tok.line, col=tok.col)
        if tt is T.KW_NEW:
            self._advance()
            if self._at(T.IDENT, T.BACKSLASH, T.KW_STATIC):
                if self._at(T.KW_STATIC):
                    self._advance()
                    cls: str | ast.Node = "static"
                else:
                    cls = self._parse_qualified_name()
            elif self._at(T.VARIABLE):
                # only property/index postfix here: the "(" belongs to the
                # constructor arguments, not a call on the class expression
                cls = self._parse_new_class_expr()
            elif self._at(T.KW_CLASS):  # anonymous class
                return self._parse_anonymous_class(tok)
            else:
                raise self._error("expected class name after 'new'")
            args: list[ast.Argument] = []
            if self._at(T.LPAREN):
                args = self._parse_args()
            node: ast.Node = ast.New(cls, args, line=tok.line, col=tok.col)
            return self._parse_postfix(node)
        if tt is T.KW_CLONE:
            self._advance()
            return ast.Clone(self._parse_unary(), line=tok.line, col=tok.col)
        if tt is T.KW_EXIT:
            self._advance()
            expr = None
            if self._accept(T.LPAREN):
                if not self._at(T.RPAREN):
                    expr = self.parse_expression()
                self._expect(T.RPAREN)
            return ast.ExitExpr(expr, line=tok.line, col=tok.col)
        return self._parse_power()

    def _parse_new_class_expr(self) -> ast.Node:
        """Parse the class operand of ``new $expr(...)`` without treating the
        trailing parenthesis as a call on the expression."""
        node = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.type in (T.ARROW, T.NULLSAFE_ARROW):
                self._advance()
                if self._at(T.VARIABLE):
                    vtok = self._advance()
                    name: str | ast.Node = ast.Variable(
                        vtok.value, line=vtok.line, col=vtok.col)
                else:
                    name = self._expect_name()
                node = ast.PropertyAccess(node, name,
                                          tok.type is T.NULLSAFE_ARROW,
                                          line=tok.line, col=tok.col)
            elif tok.type is T.LBRACKET:
                self._advance()
                index = None
                if not self._at(T.RBRACKET):
                    index = self.parse_expression()
                self._expect(T.RBRACKET)
                node = ast.ArrayAccess(node, index, line=tok.line, col=tok.col)
            else:
                return node

    def _parse_anonymous_class(self, new_tok: Token) -> ast.Node:
        self._expect(T.KW_CLASS)
        args: list[ast.Argument] = []
        if self._at(T.LPAREN):
            args = self._parse_args()
        parent = None
        interfaces: list[str] = []
        if self._accept(T.KW_EXTENDS):
            parent = self._parse_qualified_name()
        if self._accept(T.KW_IMPLEMENTS):
            interfaces.append(self._parse_qualified_name())
            while self._accept(T.COMMA):
                interfaces.append(self._parse_qualified_name())
        self._expect(T.LBRACE)
        members: list[ast.Node] = []
        while not self._at(T.RBRACE, T.EOF):
            members.append(self._parse_class_member())
        self._expect(T.RBRACE)
        cls_node = ast.ClassDecl("", parent, interfaces, members, [],
                                 "class", line=new_tok.line, col=new_tok.col)
        return ast.New(cls_node, args, line=new_tok.line, col=new_tok.col)

    def _parse_power(self) -> ast.Node:
        base = self._parse_postfix(self._parse_primary())
        if self._at(T.POW):
            tok = self._advance()
            exponent = self._parse_unary()  # ** is right assoc, binds unary
            return ast.BinaryOp("**", base, exponent, line=tok.line, col=tok.col)
        return base

    def _parse_args(self) -> list[ast.Argument]:
        self._expect(T.LPAREN)
        args: list[ast.Argument] = []
        while not self._at(T.RPAREN, T.EOF):
            atok = self._peek()
            name = None
            if atok.type is T.IDENT and self._peek(1).type is T.COLON \
                    and self._peek(2).type is not T.COLON:
                name = self._advance().value
                self._advance()  # colon
            by_ref = bool(self._accept(T.AMP))
            spread = bool(self._accept(T.ELLIPSIS))
            value = self.parse_expression()
            args.append(ast.Argument(value, by_ref, spread, name,
                                     line=atok.line, col=atok.col))
            if not self._accept(T.COMMA):
                break
        self._expect(T.RPAREN)
        return args

    def _parse_postfix(self, node: ast.Node) -> ast.Node:  # noqa: C901
        while True:
            tok = self._peek()
            tt = tok.type
            if tt in (T.ARROW, T.NULLSAFE_ARROW):
                self._advance()
                nullsafe = tt is T.NULLSAFE_ARROW
                name: str | ast.Node
                if self._at(T.LBRACE):
                    self._advance()
                    name = self.parse_expression()
                    self._expect(T.RBRACE)
                elif self._at(T.VARIABLE):
                    vtok = self._advance()
                    name = ast.Variable(vtok.value, line=vtok.line, col=vtok.col)
                else:
                    name = self._expect_name()
                if self._at(T.LPAREN):
                    args = self._parse_args()
                    node = ast.MethodCall(node, name, args, nullsafe,
                                          line=tok.line, col=tok.col)
                else:
                    node = ast.PropertyAccess(node, name, nullsafe,
                                              line=tok.line, col=tok.col)
            elif tt is T.DOUBLE_COLON:
                self._advance()
                cls = _node_class_name(node)
                if self._at(T.VARIABLE):
                    vtok = self._advance()
                    node = ast.StaticPropertyAccess(
                        cls, vtok.value, line=tok.line, col=tok.col)
                elif self._at(T.KW_CLASS):
                    self._advance()
                    node = ast.ClassConstAccess(cls, "class",
                                                line=tok.line, col=tok.col)
                else:
                    name = self._expect_name()
                    if self._at(T.LPAREN):
                        args = self._parse_args()
                        node = ast.StaticCall(cls, name, args,
                                              line=tok.line, col=tok.col)
                    else:
                        node = ast.ClassConstAccess(cls, name,
                                                    line=tok.line, col=tok.col)
            elif tt is T.LBRACKET:
                self._advance()
                index = None
                if not self._at(T.RBRACKET):
                    index = self.parse_expression()
                self._expect(T.RBRACKET)
                node = ast.ArrayAccess(node, index, line=tok.line, col=tok.col)
            elif tt is T.LBRACE and isinstance(
                    node, (ast.Variable, ast.ArrayAccess,
                           ast.PropertyAccess)):
                # legacy string/array offset: $s{0}
                self._advance()
                index = self.parse_expression()
                self._expect(T.RBRACE)
                node = ast.ArrayAccess(node, index, line=tok.line, col=tok.col)
            elif tt is T.LPAREN and isinstance(
                    node, (ast.Variable, ast.ArrayAccess,
                           ast.PropertyAccess, ast.StaticPropertyAccess,
                           ast.Closure, ast.FunctionCall, ast.MethodCall,
                           ast.StaticCall)):
                args = self._parse_args()
                node = ast.FunctionCall(node, args, line=tok.line, col=tok.col)
            elif tt in (T.INC, T.DEC):
                self._advance()
                node = ast.IncDec(tok.value, node, False,
                                  line=tok.line, col=tok.col)
            else:
                return node

    def _parse_primary(self) -> ast.Node:  # noqa: C901
        tok = self._peek()
        tt = tok.type

        if tt is T.VARIABLE:
            self._advance()
            return ast.Variable(tok.value, line=tok.line, col=tok.col)
        if tt is T.DOLLAR:
            self._advance()
            if self._accept(T.LBRACE):
                expr = self.parse_expression()
                self._expect(T.RBRACE)
                return ast.VariableVariable(expr, line=tok.line, col=tok.col)
            inner = self._parse_primary()
            return ast.VariableVariable(inner, line=tok.line, col=tok.col)
        if tt is T.INT:
            self._advance()
            text = tok.value.replace("_", "")
            return ast.Literal(int(text, 0), "int", line=tok.line, col=tok.col)
        if tt is T.FLOAT:
            self._advance()
            return ast.Literal(float(tok.value.replace("_", "")), "float",
                               line=tok.line, col=tok.col)
        if tt is T.SQ_STRING or tt is T.NOWDOC:
            self._advance()
            return ast.Literal(tok.value, "string", line=tok.line, col=tok.col)
        if tt is T.DQ_STRING or tt is T.HEREDOC:
            self._advance()
            return parse_interpolated(tok.value, tok.line, tok.col,
                                      self.filename)
        if tt is T.BACKTICK:
            self._advance()
            interp = parse_interpolated(tok.value, tok.line, tok.col,
                                        self.filename)
            parts = (interp.parts if isinstance(interp, ast.InterpolatedString)
                     else [interp])
            return ast.ShellExec(parts, line=tok.line, col=tok.col)
        if tt is T.LPAREN:
            self._advance()
            expr = self.parse_expression()
            self._expect(T.RPAREN)
            return self._parse_postfix(expr)
        if tt is T.LBRACKET:
            return self._parse_array_literal(T.LBRACKET, T.RBRACKET)
        if tt is T.KW_ARRAY:
            nxt = self._peek(1)
            if nxt.type is T.LPAREN:
                self._advance()
                return self._parse_array_literal(T.LPAREN, T.RPAREN)
            self._advance()  # bare 'array' as a type-ish constant
            return ast.ConstFetch("array", line=tok.line, col=tok.col)
        if tt is T.KW_LIST:
            self._advance()
            self._expect(T.LPAREN)
            targets: list[ast.Node | None] = []
            while not self._at(T.RPAREN, T.EOF):
                if self._at(T.COMMA):
                    targets.append(None)
                else:
                    targets.append(self.parse_expression())
                if not self._accept(T.COMMA):
                    break
            self._expect(T.RPAREN)
            if self._accept(T.ASSIGN):
                value = self.parse_expression()
                return ast.ListAssign(targets, value,
                                      line=tok.line, col=tok.col)
            # bare list(...) pattern (foreach destructuring target)
            return ast.ListAssign(targets, None, line=tok.line, col=tok.col)
        if tt is T.KW_ISSET:
            self._advance()
            self._expect(T.LPAREN)
            vars_ = [self.parse_expression()]
            while self._accept(T.COMMA):
                vars_.append(self.parse_expression())
            self._expect(T.RPAREN)
            return ast.Isset(vars_, line=tok.line, col=tok.col)
        if tt is T.KW_EMPTY:
            self._advance()
            self._expect(T.LPAREN)
            expr = self.parse_expression()
            self._expect(T.RPAREN)
            return ast.Empty(expr, line=tok.line, col=tok.col)
        if tt is T.KW_FUNCTION:
            return self._parse_closure()
        if tt is T.KW_FN:
            return self._parse_arrow_function()
        if tt is T.KW_MATCH:
            return self._parse_match()
        if tt is T.KW_STATIC:
            nxt = self._peek(1)
            if nxt.type is T.KW_FUNCTION:
                self._advance()
                return self._parse_closure()
            if nxt.type is T.DOUBLE_COLON:
                self._advance()
                return self._parse_postfix_static("static", tok)
            self._advance()
            return ast.ConstFetch("static", line=tok.line, col=tok.col)
        if tt is T.IDENT or tt is T.BACKSLASH:
            name = self._parse_qualified_name()
            lowered = name.lower().lstrip("\\")
            if self._at(T.LPAREN):
                args = self._parse_args()
                return ast.FunctionCall(name, args, line=tok.line, col=tok.col)
            if self._at(T.DOUBLE_COLON):
                return self._parse_postfix_static(name, tok)
            if lowered == "true":
                return ast.Literal(True, "bool", line=tok.line, col=tok.col)
            if lowered == "false":
                return ast.Literal(False, "bool", line=tok.line, col=tok.col)
            if lowered == "null":
                return ast.Literal(None, "null", line=tok.line, col=tok.col)
            if lowered in _MAGIC_CONSTANTS:
                return ast.ConstFetch(name, line=tok.line, col=tok.col)
            return ast.ConstFetch(name, line=tok.line, col=tok.col)
        if tt is T.AMP:
            # stray by-ref in expression context (e.g. args list quirk)
            self._advance()
            return self._parse_unary()

        raise self._error(
            f"unexpected token {tt.value!r} ({tok.value!r}) in expression")

    def _parse_postfix_static(self, cls: str, tok: Token) -> ast.Node:
        """Continue parsing after ``Name::``."""
        self._expect(T.DOUBLE_COLON)
        if self._at(T.VARIABLE):
            vtok = self._advance()
            node: ast.Node = ast.StaticPropertyAccess(
                cls, vtok.value, line=tok.line, col=tok.col)
        elif self._at(T.KW_CLASS):
            self._advance()
            node = ast.ClassConstAccess(cls, "class", line=tok.line, col=tok.col)
        else:
            name = self._expect_name()
            if self._at(T.LPAREN):
                args = self._parse_args()
                node = ast.StaticCall(cls, name, args, line=tok.line, col=tok.col)
            else:
                node = ast.ClassConstAccess(cls, name, line=tok.line, col=tok.col)
        return self._parse_postfix(node)

    def _parse_array_literal(self, open_: T, close: T) -> ast.ArrayLiteral:
        tok = self._expect(open_)
        items: list[ast.ArrayItem] = []
        while not self._at(close, T.EOF):
            itok = self._peek()
            spread = bool(self._accept(T.ELLIPSIS))
            by_ref = bool(self._accept(T.AMP))
            first = self.parse_expression()
            if self._accept(T.DOUBLE_ARROW):
                by_ref = bool(self._accept(T.AMP))
                value = self.parse_expression()
                items.append(ast.ArrayItem(first, value, by_ref, spread,
                                           line=itok.line, col=itok.col))
            else:
                items.append(ast.ArrayItem(None, first, by_ref, spread,
                                           line=itok.line, col=itok.col))
            if not self._accept(T.COMMA):
                break
        self._expect(close)
        return ast.ArrayLiteral(items, line=tok.line, col=tok.col)

    def _parse_arrow_function(self) -> ast.Node:
        """PHP 7.4 arrow function: ``fn($x) => expr``.

        A bare ``fn`` identifier (legacy code using it as a name) falls
        back to constant/function-call parsing.
        """
        tok = self._expect(T.KW_FN)
        by_ref = bool(self._accept(T.AMP))
        if not self._at(T.LPAREN):
            # legacy: "fn" used as a plain identifier
            return ast.ConstFetch(tok.value, line=tok.line, col=tok.col)
        params = self._parse_params()
        if self._accept(T.COLON):
            self._parse_type_hint()
        if not self._at(T.DOUBLE_ARROW):
            # it was a call: fn(...) in pre-7.4 code
            args = [ast.Argument(_param_to_expr(p), line=tok.line, col=tok.col)
                    for p in params]
            return self._parse_postfix(
                ast.FunctionCall(tok.value, args, line=tok.line, col=tok.col))
        self._expect(T.DOUBLE_ARROW)
        body_expr = self.parse_expression()
        body: list[ast.Node] = [ast.Return(body_expr,
                                           line=body_expr.line,
                                           col=body_expr.col)]
        return ast.Closure(params, [], body, by_ref, True,
                           line=tok.line, col=tok.col)

    def _parse_match(self) -> ast.Node:
        """PHP 8 ``match`` expression, with a fallback for legacy code
        calling a function named ``match``."""
        tok = self._expect(T.KW_MATCH)
        if not self._at(T.LPAREN):
            return ast.ConstFetch(tok.value, line=tok.line, col=tok.col)
        save = self.pos
        self._expect(T.LPAREN)
        subject = self.parse_expression()
        if not self._at(T.RPAREN) or self._peek(1).type is not T.LBRACE:
            # legacy function call named "match"
            self.pos = save
            args = self._parse_args()
            return self._parse_postfix(
                ast.FunctionCall(tok.value, args, line=tok.line, col=tok.col))
        self._expect(T.RPAREN)
        self._expect(T.LBRACE)
        arms: list[ast.MatchArm] = []
        while not self._at(T.RBRACE, T.EOF):
            atok = self._peek()
            conditions: list[ast.Node] | None
            if self._accept(T.KW_DEFAULT):
                conditions = None
            else:
                conditions = [self.parse_expression()]
                while self._accept(T.COMMA):
                    if self._at(T.DOUBLE_ARROW):
                        break
                    conditions.append(self.parse_expression())
            self._expect(T.DOUBLE_ARROW)
            body = self.parse_expression()
            arms.append(ast.MatchArm(conditions, body,
                                     line=atok.line, col=atok.col))
            if not self._accept(T.COMMA):
                break
        self._expect(T.RBRACE)
        return ast.Match(subject, arms, line=tok.line, col=tok.col)

    def _parse_closure(self) -> ast.Closure:
        tok = self._expect(T.KW_FUNCTION)
        by_ref = bool(self._accept(T.AMP))
        params = self._parse_params()
        uses: list[tuple[str, bool]] = []
        if self._accept(T.KW_USE):
            self._expect(T.LPAREN)
            while not self._at(T.RPAREN, T.EOF):
                uref = bool(self._accept(T.AMP))
                uses.append((self._expect(T.VARIABLE).value, uref))
                if not self._accept(T.COMMA):
                    break
            self._expect(T.RPAREN)
        if self._accept(T.COLON):
            self._parse_type_hint()
        self._expect(T.LBRACE)
        body = self._parse_statement_list(T.RBRACE)
        self._expect(T.RBRACE)
        return ast.Closure(params, uses, body, by_ref, False,
                           line=tok.line, col=tok.col)


def _param_to_expr(param: ast.Param) -> ast.Node:
    """Best-effort conversion of a misparsed 'param' back to an argument
    expression (legacy ``fn(...)`` call fallback)."""
    return ast.Variable(param.name, line=param.line, col=param.col)


def _node_class_name(node: ast.Node) -> str | ast.Node:
    """Turn a parsed node used before ``::`` into a class-name operand."""
    if isinstance(node, ast.ConstFetch):
        return node.name
    return node


# ---------------------------------------------------------------------------
# double-quoted string interpolation
# ---------------------------------------------------------------------------

_SIMPLE_VAR_RE = re.compile(
    r"\$([A-Za-z_\x80-\xff][A-Za-z0-9_\x80-\xff]*)"
    r"(\[(?P<idx>[^\[\]]*)\]|->(?P<prop>[A-Za-z_][A-Za-z0-9_]*))?"
)
_IDX_NUM_RE = re.compile(r"^-?\d+$")
_IDX_VAR_RE = re.compile(r"^\$([A-Za-z_][A-Za-z0-9_]*)$")
_OCTAL_ESC_RE = re.compile(r"[0-7]{1,3}")
_HEX_ESC_RE = re.compile(r"x[0-9a-fA-F]{1,2}")
_UNI_ESC_RE = re.compile(r"u\{([0-9a-fA-F]+)\}")


def parse_interpolated(raw: str, line: int, col: int,
                       filename: str = "<source>") -> ast.Node:
    """Parse the raw inner text of a double-quoted string or heredoc.

    Returns a plain :class:`~repro.php.ast_nodes.Literal` when the string has
    no interpolation, otherwise an
    :class:`~repro.php.ast_nodes.InterpolatedString`.
    """
    parts: list[ast.Node] = []
    buf: list[str] = []
    i = 0
    n = len(raw)

    def flush() -> None:
        if buf:
            parts.append(ast.Literal("".join(buf), "string",
                                     line=line, col=col))
            buf.clear()

    while i < n:
        ch = raw[i]
        if ch == "\\" and i + 1 < n:
            nxt = raw[i + 1]
            if nxt in _DQ_ESCAPES:
                buf.append(_DQ_ESCAPES[nxt])
                i += 2
                continue
            m = _HEX_ESC_RE.match(raw, i + 1)
            if m:
                buf.append(chr(int(m.group(0)[1:], 16)))
                i = m.end()  # match positions are absolute
                continue
            m = _UNI_ESC_RE.match(raw, i + 1)
            if m:
                buf.append(chr(int(m.group(1), 16)))
                i = m.end()
                continue
            m = _OCTAL_ESC_RE.match(raw, i + 1)
            if m:
                buf.append(chr(int(m.group(0), 8) & 0xFF))
                i = m.end()
                continue
            buf.append("\\" + nxt)
            i += 2
            continue
        if ch == "$":
            m = _SIMPLE_VAR_RE.match(raw, i)
            if m:
                flush()
                var: ast.Node = ast.Variable(m.group(1), line=line, col=col)
                idx = m.group("idx")
                prop = m.group("prop")
                if idx is not None:
                    var = ast.ArrayAccess(var, _parse_simple_index(idx, line,
                                                                   col),
                                          line=line, col=col)
                elif prop is not None:
                    var = ast.PropertyAccess(var, prop, line=line, col=col)
                parts.append(var)
                i = m.end()
                continue
            buf.append(ch)
            i += 1
            continue
        if ch == "{" and i + 1 < n and raw[i + 1] == "$":
            end = _find_matching_brace(raw, i)
            if end != -1:
                flush()
                inner = raw[i + 1:end]
                parts.append(_parse_embedded_expr(inner, line, col, filename))
                i = end + 1
                continue
            buf.append(ch)
            i += 1
            continue
        if ch == "$" or ch == "{":
            buf.append(ch)
            i += 1
            continue
        buf.append(ch)
        i += 1

    flush()
    if not parts:
        return ast.Literal("", "string", line=line, col=col)
    if len(parts) == 1 and isinstance(parts[0], ast.Literal):
        return parts[0]
    return ast.InterpolatedString(parts, line=line, col=col)


def _parse_simple_index(text: str, line: int, col: int) -> ast.Node:
    """Parse the inside of ``$a[...]`` in simple interpolation syntax."""
    text = text.strip()
    if _IDX_NUM_RE.match(text):
        return ast.Literal(int(text), "int", line=line, col=col)
    m = _IDX_VAR_RE.match(text)
    if m:
        return ast.Variable(m.group(1), line=line, col=col)
    # bare word index: $a[key] means $a['key'] inside strings
    return ast.Literal(text, "string", line=line, col=col)


def _find_matching_brace(raw: str, start: int) -> int:
    depth = 0
    i = start
    n = len(raw)
    while i < n:
        ch = raw[i]
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return i
        elif ch == "'" or ch == '"':
            quote = ch
            i += 1
            while i < n and raw[i] != quote:
                if raw[i] == "\\":
                    i += 1
                i += 1
        i += 1
    return -1


def _parse_embedded_expr(source: str, line: int, col: int,
                         filename: str) -> ast.Node:
    """Parse a ``{$...}`` complex-interpolation expression."""
    try:
        tokens = tokenize("<?php " + source + ";", filename)
        parser = Parser(tokens, filename)
        parser._accept(T.OPEN_TAG)
        expr = parser.parse_expression()
        return expr
    except PhpSyntaxError:
        # fall back to a literal so one bad interpolation never kills a file
        return ast.Literal("{" + source + "}", "string", line=line, col=col)


def parse(source: str, filename: str = "<source>") -> ast.Program:
    """Lex and parse *source*, returning the :class:`Program` AST."""
    return Parser(tokenize(source, filename), filename).parse_program()


def parse_with_recovery(
        source: str,
        filename: str = "<source>",
        tokens: list[Token] | None = None) -> tuple[ast.Program,
                                                    list[PhpSyntaxError]]:
    """Parse *source* with statement-level error recovery.

    Returns the program plus the syntax errors that were skipped over
    (one per damaged statement).  Lexer errors and files with more than
    :attr:`Parser.MAX_WARNINGS` damaged statements still raise
    :class:`PhpSyntaxError` — those files are genuinely unparseable.
    *tokens*, when given, are *source* already lexed.
    """
    if tokens is None:
        tokens = tokenize(source, filename)
    parser = Parser(tokens, filename, recover=True)
    program = parser.parse_program()
    return program, list(parser.warnings)
