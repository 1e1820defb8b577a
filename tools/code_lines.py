"""Count the code lines of the package: the lines that hold a token other
than a docstring, a comment or layout.

Run from the repository root:

    python tools/code_lines.py [directory]

It prints one line per module and then the total. The directory defaults
to src/cocycle_forge.
"""

import ast
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers spanned by the docstrings of a module, its classes
    and its functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code lines in one Python file."""
    text = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(text))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in LAYOUT:
                continue
            for line in range(tok.start[0], tok.end[0] + 1):
                if line not in skip:
                    lines.add(line)
    return len(lines)


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src/cocycle_forge")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv)
