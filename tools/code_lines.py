"""Count the code lines of a tree's src/: lines that hold a token other
than a comment or a docstring, so blank lines, comment lines and
docstrings do not count. A docstring is any statement that is a bare
string literal (module, class and function docstrings, and string
statements elsewhere); every other token counts on each line it spans.

    python tools/code_lines.py [TREE ...]

prints the count of each .py file under TREE/src and the total, for each
TREE given (default: the tree this script lives in).
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docs.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def count_tree(tree: Path) -> dict:
    src = tree / "src"
    return {str(p.relative_to(src)): code_lines(p.read_text())
            for p in sorted(src.rglob("*.py"))}


def main(argv):
    for tree in argv or [Path(__file__).resolve().parent.parent]:
        counts = count_tree(Path(tree))
        for name, k in counts.items():
            print(f"{k:6d}  {name}")
        print(f"{sum(counts.values()):6d}  total ({Path(tree) / 'src'})")


if __name__ == "__main__":
    main(sys.argv[1:])
