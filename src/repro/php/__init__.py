"""PHP frontend: lexer, parser, typed AST, visitors and unparser.

This package is the substrate the rest of the tool stands on.  The public
surface is small:

>>> from repro.php import parse, unparse
>>> tree = parse("<?php echo $_GET['q']; ?>")
>>> print(unparse(tree))  # doctest: +SKIP
"""

from repro.php import ast_nodes as ast  # noqa: F401  (re-export namespace)
from repro.php.ast_store import AstCache, AstStore  # noqa: F401
from repro.php.lexer import Lexer, tokenize  # noqa: F401
from repro.php.parser import (  # noqa: F401
    Parser,
    parse,
    parse_interpolated,
    parse_with_recovery,
)
from repro.php.unparser import (  # noqa: F401
    Unparser,
    quote_php_string,
    unparse,
    unparse_expr,
)
from repro.php.visitor import (  # noqa: F401
    NodeTransformer,
    NodeVisitor,
    count_nodes,
    find_all,
    walk,
)

__all__ = [
    "ast",
    "AstCache",
    "AstStore",
    "Lexer",
    "tokenize",
    "Parser",
    "parse",
    "parse_interpolated",
    "parse_with_recovery",
    "Unparser",
    "unparse",
    "unparse_expr",
    "quote_php_string",
    "NodeVisitor",
    "NodeTransformer",
    "walk",
    "find_all",
    "count_nodes",
]
