"""Count each module's lines as code, docstring-and-comment, and blank.

    python tools/source_lines.py src/evalmat/*.py
    python tools/source_lines.py src/evalmat

A directory stands for its *.py files, in sorted order. A blank line is
empty or whitespace only, inside a docstring too. Of the rest, docstring
lines are those that a module, class or function docstring spans (found by
ast), and comment lines hold only a comment (found by tokenize). Every
other line is code. Prints one row per file and their total; with no path,
a usage line, and exits 2.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

USAGE = "usage: python tools/source_lines.py FILE_OR_DIRECTORY ..."


# tokens that carry no code: line ends, indentation, the end of the file
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_WITH_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def classify(source: str) -> tuple[int, int, int]:
    """(code, docstring and comment, blank) lines of one module."""
    lines = source.splitlines()
    blank = {i for i, line in enumerate(lines, 1) if not line.strip()}
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _WITH_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    prose = len((doc | comment - code) - blank)
    return len(lines) - prose - len(blank), prose, len(blank)


def main(paths: list[str]) -> int:
    if not paths:
        print(USAGE, file=sys.stderr)
        return 2
    total = [0, 0, 0]
    print(f"{'code':>6} {'doc':>6} {'blank':>6}  file")
    for path in paths:
        files = sorted(map(str, Path(path).glob("*.py"))) if Path(path).is_dir() else [path]
        for file in files:
            with open(file, encoding="utf-8") as fh:
                counts = classify(fh.read())
            total = [t + c for t, c in zip(total, counts)]
            print(f"{counts[0]:6d} {counts[1]:6d} {counts[2]:6d}  {file}")
    print(f"{total[0]:6d} {total[1]:6d} {total[2]:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
