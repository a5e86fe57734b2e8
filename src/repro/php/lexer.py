"""A hand-written lexer for the PHP subset used by the taint analyzer.

The lexer is a single-pass scanner over the raw source text.  It starts in
*HTML mode* (everything up to ``<?php`` / ``<?=`` is emitted as a single
:data:`~repro.php.tokens.TokenType.INLINE_HTML` token) and switches to *PHP
mode* until a closing ``?>`` is found.

Double-quoted strings, heredocs and backtick strings are emitted with their
raw inner text; interpolation is resolved later by the parser (see
:mod:`repro.php.interpolation`), keeping the lexer free of recursion.

PHP mode is driven by a single master regular expression whose alternatives
cover whitespace, comments, tags, variables, names, numbers, casts and
operators; one ``re.match`` per token replaces the per-character dispatch the
lexer used to do, and line/col positions are derived from a precomputed
newline-offset table instead of being maintained character by character.
Quoted strings and unusual characters fall through to dedicated handlers.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_right
from functools import lru_cache

from repro.exceptions import PhpSyntaxError
from repro.php.tokens import CAST_TYPES, KEYWORDS, Token, TokenType

_HEREDOC_OPEN_RE = re.compile(
    r"<<<[ \t]*(?:\"(?P<nowq>[A-Za-z_][A-Za-z0-9_]*)\""
    r"|'(?P<now>[A-Za-z_][A-Za-z0-9_]*)'"
    r"|(?P<here>[A-Za-z_][A-Za-z0-9_]*))\r?\n"
)

# Multi-character operators, longest first so maximal munch works: the master
# regex tries the alternatives in this order.
_OPERATORS: list[tuple[str, TokenType]] = [
    ("<<=", TokenType.SHL_ASSIGN),
    (">>=", TokenType.SHR_ASSIGN),
    ("**=", TokenType.POW_ASSIGN),
    ("===", TokenType.IDENTICAL),
    ("!==", TokenType.NOT_IDENTICAL),
    ("<=>", TokenType.SPACESHIP),
    ("??=", TokenType.COALESCE_ASSIGN),
    ("...", TokenType.ELLIPSIS),
    ("?->", TokenType.NULLSAFE_ARROW),
    ("==", TokenType.EQ),
    ("!=", TokenType.NEQ),
    ("<>", TokenType.NEQ),
    ("<=", TokenType.LE),
    (">=", TokenType.GE),
    ("&&", TokenType.BOOL_AND),
    ("||", TokenType.BOOL_OR),
    ("??", TokenType.COALESCE),
    ("->", TokenType.ARROW),
    ("::", TokenType.DOUBLE_COLON),
    ("=>", TokenType.DOUBLE_ARROW),
    ("++", TokenType.INC),
    ("--", TokenType.DEC),
    ("+=", TokenType.PLUS_ASSIGN),
    ("-=", TokenType.MINUS_ASSIGN),
    ("*=", TokenType.MUL_ASSIGN),
    ("/=", TokenType.DIV_ASSIGN),
    ("%=", TokenType.MOD_ASSIGN),
    (".=", TokenType.CONCAT_ASSIGN),
    ("&=", TokenType.AND_ASSIGN),
    ("|=", TokenType.OR_ASSIGN),
    ("^=", TokenType.XOR_ASSIGN),
    ("**", TokenType.POW),
    ("<<", TokenType.SHL),
    (">>", TokenType.SHR),
    ("=", TokenType.ASSIGN),
    ("+", TokenType.PLUS),
    ("-", TokenType.MINUS),
    ("*", TokenType.MUL),
    ("/", TokenType.DIV),
    ("%", TokenType.MOD),
    (".", TokenType.DOT),
    ("!", TokenType.NOT),
    ("<", TokenType.LT),
    (">", TokenType.GT),
    ("&", TokenType.AMP),
    ("|", TokenType.PIPE),
    ("^", TokenType.CARET),
    ("~", TokenType.TILDE),
    ("?", TokenType.QUESTION),
    (":", TokenType.COLON),
    (";", TokenType.SEMI),
    (",", TokenType.COMMA),
    ("(", TokenType.LPAREN),
    (")", TokenType.RPAREN),
    ("[", TokenType.LBRACKET),
    ("]", TokenType.RBRACKET),
    ("{", TokenType.LBRACE),
    ("}", TokenType.RBRACE),
    ("@", TokenType.AT),
    ("$", TokenType.DOLLAR),
    ("\\", TokenType.BACKSLASH),
]

_SQ_ESCAPES = {"\\": "\\", "'": "'"}

# Operator dispatch: matched text -> (token type, canonical shared string).
# Reusing the dict's own key as the token value keeps one string per
# operator alive instead of a fresh slice per occurrence.
_OP_MAP: dict[str, tuple[TokenType, str]] = {
    text: (type_, text) for text, type_ in _OPERATORS
}

_intern = sys.intern

# One master regex for the PHP-mode hot path.  Alternative order matters:
# comments before "/" operators, "?>" before "?", heredoc openers before
# "<<", numbers before ".", casts before "(", and the operator alternation
# itself is longest-first (regexes take the first alternative that matches,
# which gives maximal munch for free).  Quote characters are absent on
# purpose — they fall through to the string handlers.
_MASTER_RE = re.compile(
    r"(?P<ws>[ \t\r\n]+)"
    r"|(?P<lcomment>(?://|\#)(?:[^\n?]|\?(?!>))*)"
    r"|(?P<bcomment>/\*)"
    r"|(?P<close>\?>)"
    r"|(?P<heredoc><<<[ \t]*(?:\"[A-Za-z_][A-Za-z0-9_]*\""
    r"|'[A-Za-z_][A-Za-z0-9_]*'"
    r"|[A-Za-z_][A-Za-z0-9_]*)\r?\n)"
    r"|(?P<var>\$[A-Za-z_\x80-\xff][A-Za-z0-9_\x80-\xff]*)"
    r"|(?P<name>[A-Za-z_\x80-\xff][A-Za-z0-9_\x80-\xff]*)"
    r"|(?P<num>0[xX][0-9a-fA-F]+|0[bB][01]+"
    r"|\d[\d_]*\.\d[\d_]*(?:[eE][+-]?\d+)?"
    r"|\.\d[\d_]*(?:[eE][+-]?\d+)?"
    r"|\d[\d_]*\.(?!\.)(?:[eE][+-]?\d+)?"
    r"|\d[\d_]*[eE][+-]?\d+"
    r"|\d[\d_]*)"
    r"|(?P<cast>\(\s*(?i:integer|int|float|double|real|string|binary"
    r"|boolean|bool|array|object|unset)\s*\))"
    r"|(?P<op>" + "|".join(re.escape(text) for text, _ in _OPERATORS) + r")"
)

# Raw string bodies: escapes are kept verbatim (DOTALL so "\<newline>"
# counts as an escape pair, matching the old char-by-char scanner).
_SQ_BODY_RE = re.compile(r"(?:[^'\\]|\\.)*'", re.DOTALL)
_DQ_BODY_RE = re.compile(r'(?:[^"\\]|\\.)*"', re.DOTALL)
_BT_BODY_RE = re.compile(r"(?:[^`\\]|\\.)*`", re.DOTALL)
_SQ_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


def _sq_unescape(m: re.Match) -> str:
    ch = m.group(1)
    return _SQ_ESCAPES.get(ch, "\\" + ch)


@lru_cache(maxsize=256)
def _heredoc_close_re(label: str) -> re.Pattern:
    # the closing label at the start of a line (allow indentation,
    # PHP 7.3+ flexible heredoc)
    return re.compile(r"^[ \t]*" + re.escape(label) + r"\b", re.MULTILINE)


class Lexer:
    """Tokenizes PHP source text.

    Args:
        source: the full text of a PHP file (may contain inline HTML).
        filename: used in error messages only.
    """

    def __init__(self, source: str, filename: str = "<source>") -> None:
        self.source = source
        self.filename = filename
        self.pos = 0
        self.tokens: list[Token] = []
        # offset of the first character of each line; token positions are
        # derived from this table instead of per-character counters
        self._line_starts = [0]
        self._line_starts.extend(
            m.end() for m in re.finditer("\n", source))
        self._line_idx = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def tokenize(self) -> list[Token]:
        """Lex the entire source and return the token list (ends with EOF)."""
        n = len(self.source)
        while self.pos < n:
            self._lex_html()
            if self.pos >= n:
                break
            self._lex_php()
        line, col = self._loc(self.pos)
        self.tokens.append(Token(TokenType.EOF, "", line, col))
        return self.tokens

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _loc(self, pos: int) -> tuple[int, int]:
        """(line, col) of *pos*; amortized O(1) for monotonic queries."""
        starts = self._line_starts
        i = self._line_idx
        if starts[i] > pos:  # rare backwards query
            i = bisect_right(starts, pos) - 1
        else:
            n = len(starts)
            while i + 1 < n and starts[i + 1] <= pos:
                i += 1
        self._line_idx = i
        return i + 1, pos - starts[i] + 1

    def _emit(self, type_: TokenType, value: str, pos: int) -> None:
        line, col = self._loc(pos)
        self.tokens.append(Token(type_, value, line, col))

    def _error(self, message: str, pos: int) -> PhpSyntaxError:
        line, col = self._loc(pos)
        return PhpSyntaxError(message, line, col, self.filename)

    # ------------------------------------------------------------------
    # HTML mode
    # ------------------------------------------------------------------
    def _lex_html(self) -> None:
        src = self.source
        start = self.pos
        open_idx = src.find("<?", start)
        if open_idx == -1:
            if start < len(src):
                self._emit(TokenType.INLINE_HTML, src[start:], start)
            self.pos = len(src)
            return
        if open_idx > start:
            self._emit(TokenType.INLINE_HTML, src[start:open_idx], start)
        # consume the open tag
        if src.startswith("<?php", open_idx):
            self._emit(TokenType.OPEN_TAG, "<?php", open_idx)
            self.pos = open_idx + 5
        elif src.startswith("<?=", open_idx):
            self._emit(TokenType.OPEN_TAG, "<?=", open_idx)
            # <?= behaves like "echo"
            self._emit(TokenType.KW_ECHO, "echo", open_idx)
            self.pos = open_idx + 3
        else:  # short open tag <?
            self._emit(TokenType.OPEN_TAG, "<?", open_idx)
            self.pos = open_idx + 2

    # ------------------------------------------------------------------
    # PHP mode
    # ------------------------------------------------------------------
    def _lex_php(self) -> None:  # noqa: C901 - a lexer dispatch is a big switch
        src = self.source
        n = len(src)
        pos = self.pos
        master = _MASTER_RE.match
        tokens = self.tokens
        loc = self._loc
        op_map = _OP_MAP
        keywords = KEYWORDS
        while pos < n:
            m = master(src, pos)
            if m is None:
                ch = src[pos]
                if ch == "'":
                    pos = self._lex_sq_string(pos)
                    continue
                if ch == '"':
                    pos = self._lex_dq_string(pos)
                    continue
                if ch == "`":
                    pos = self._lex_backtick(pos)
                    continue
                self.pos = pos
                raise self._error(f"unexpected character {ch!r}", pos)
            kind = m.lastgroup
            end = m.end()
            if kind == "name":
                word = m.group()
                if (word == "b" or word == "B") and end < n \
                        and (src[end] == "'" or src[end] == '"'):
                    # binary string prefix (b"..."): the prefix is a no-op
                    # in our model; drop it, the string handler takes over
                    pos = end
                    continue
                line, col = loc(pos)
                kw = keywords.get(word.lower())
                if kw is not None:
                    tokens.append(Token(kw, _intern(word), line, col))
                else:
                    tokens.append(Token(TokenType.IDENT, _intern(word),
                                        line, col))
                pos = end
                continue
            if kind == "var":
                line, col = loc(pos)
                tokens.append(Token(TokenType.VARIABLE,
                                    _intern(m.group()[1:]), line, col))
                pos = end
                continue
            if kind == "op":
                type_, text = op_map[m.group()]
                line, col = loc(pos)
                tokens.append(Token(type_, text, line, col))
                pos = end
                continue
            if kind == "ws" or kind == "lcomment":
                pos = end
                continue
            if kind == "num":
                text = m.group()
                line, col = loc(pos)
                prefix = text[:2]
                if prefix == "0x" or prefix == "0X" \
                        or prefix == "0b" or prefix == "0B":
                    type_ = TokenType.INT
                elif "." in text or "e" in text or "E" in text:
                    type_ = TokenType.FLOAT
                else:
                    type_ = TokenType.INT
                tokens.append(Token(type_, text, line, col))
                pos = end
                continue
            if kind == "cast":
                word = m.group()[1:-1].strip().lower()
                self._emit(TokenType.CAST, CAST_TYPES[word], pos)
                pos = end
                continue
            if kind == "bcomment":
                idx = src.find("*/", end)
                if idx == -1:
                    raise self._error("unterminated block comment", end)
                pos = idx + 2
                continue
            if kind == "heredoc":
                pos = self._lex_heredoc(pos)
                continue
            if kind == "close":
                self._emit(TokenType.CLOSE_TAG, "?>", pos)
                pos = end
                # PHP eats a single newline right after ?>
                if pos < n and src[pos] == "\n":
                    pos += 1
                elif src.startswith("\r\n", pos):
                    pos += 2
                self.pos = pos
                return
        self.pos = pos

    def _lex_sq_string(self, pos: int) -> int:
        m = _SQ_BODY_RE.match(self.source, pos + 1)
        if m is None:
            raise self._error("unterminated single-quoted string",
                              len(self.source))
        raw = m.group()[:-1]
        if "\\" in raw:
            value = _SQ_ESCAPE_RE.sub(_sq_unescape, raw)
        else:
            value = raw
        self._emit(TokenType.SQ_STRING, value, pos)
        return m.end()

    def _lex_dq_string(self, pos: int) -> int:
        m = _DQ_BODY_RE.match(self.source, pos + 1)
        if m is None:
            raise self._error("unterminated double-quoted string",
                              len(self.source))
        # raw inner text, escapes kept verbatim: interpolation is resolved
        # later by the parser
        self._emit(TokenType.DQ_STRING, m.group()[:-1], pos)
        return m.end()

    def _lex_backtick(self, pos: int) -> int:
        m = _BT_BODY_RE.match(self.source, pos + 1)
        if m is None:
            raise self._error("unterminated backtick string",
                              len(self.source))
        self._emit(TokenType.BACKTICK, m.group()[:-1], pos)
        return m.end()

    def _lex_heredoc(self, pos: int) -> int:
        m = _HEREDOC_OPEN_RE.match(self.source, pos)
        assert m is not None  # the master regex already matched the opener
        label = m.group("here") or m.group("now") or m.group("nowq")
        is_nowdoc = m.group("now") is not None
        mm = _heredoc_close_re(label).search(self.source, m.end())
        if not mm:
            raise self._error(f"unterminated heredoc <<<{label}", m.end())
        body = self.source[m.end():mm.start()]
        # strip the final newline that belongs to the terminator line
        if body.endswith("\r\n"):
            body = body[:-2]
        elif body.endswith("\n"):
            body = body[:-1]
        self._emit(TokenType.NOWDOC if is_nowdoc else TokenType.HEREDOC,
                   body, pos)
        return mm.end()


def tokenize(source: str, filename: str = "<source>") -> list[Token]:
    """Convenience wrapper: lex *source* and return the token list."""
    return Lexer(source, filename).tokenize()
