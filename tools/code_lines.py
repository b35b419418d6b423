"""Count the code lines of a tree's src/: lines that hold a token other
than a comment or a docstring, so blank lines, comment lines and
docstrings do not count. A docstring is any statement that is a bare
string literal (module, class and function docstrings, and string
statements elsewhere); every other token counts on each line it spans.

    python tools/code_lines.py [TREE ...]
    python tools/code_lines.py [TREE] --against BASE

prints the count of each .py file under TREE/src and the total, for each
TREE given (default: the tree this script lives in). With --against, it
prints each module's count in BASE and in TREE, and its net change, and
the same for the total; a module that only one side has counts 0 on the
other. BASE is a tree, or else a git revision of the repository this
script lives in (for example HEAD~1), whose src/ is read from git.
"""

import argparse
import ast
import io
import subprocess
import tokenize
from pathlib import Path

_HERE = Path(__file__).resolve().parent.parent
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


def count_rev(rev: str) -> dict:
    """count_tree for src/ at the git revision rev of this repository."""
    def git(*args):
        return subprocess.run(["git", "-C", str(_HERE), *args], check=True,
                              capture_output=True, text=True).stdout
    return {name.removeprefix("src/"): code_lines(git("show", f"{rev}:{name}"))
            for name in git("ls-tree", "-r", "--name-only", rev, "--",
                            "src").split() if name.endswith(".py")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path, metavar="TREE")
    parser.add_argument("--against", metavar="BASE",
                        help="print each module's net change against BASE")
    args = parser.parse_args(argv)
    if args.against is None:
        for tree in args.trees or [_HERE]:
            counts = count_tree(tree)
            for name, k in counts.items():
                print(f"{k:6d}  {name}")
            print(f"{sum(counts.values()):6d}  total ({tree / 'src'})")
        return
    if len(args.trees) > 1:
        parser.error("--against takes one TREE")
    tree = args.trees[0] if args.trees else _HERE
    try:
        base = (count_tree(Path(args.against)) if Path(args.against).is_dir()
                else count_rev(args.against))
    except subprocess.CalledProcessError as e:
        parser.error(f"BASE {args.against!r} is neither a tree nor a git "
                     f"revision: {e.stderr.strip()}")
    new = count_tree(tree)
    rows = [(name, base.get(name, 0), new.get(name, 0))
            for name in sorted(base.keys() | new.keys())]
    rows.append(("total", sum(base.values()), sum(new.values())))
    print(f"{'BASE':>6}  {'TREE':>6}  {'change':>6}  module")
    for name, b, k in rows:
        print(f"{b:6d}  {k:6d}  {k - b:+6d}  {name}")


if __name__ == "__main__":
    main()
