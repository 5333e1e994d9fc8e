"""Count each module's lines as code, docstring-and-comment, and blank.

    python tools/source_lines.py src/evalmat/*.py

A blank line is empty or whitespace only, inside a docstring too. Of the
rest, docstring lines are those that a module, class or function docstring
spans (found by ast), and comment lines hold only a comment (found by
tokenize). Every other line is code. Prints one row per file and their
total.
"""

import ast
import io
import sys
import tokenize


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


def main(paths: list[str]) -> None:
    total = [0, 0, 0]
    print(f"{'code':>6} {'doc':>6} {'blank':>6}  file")
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            counts = classify(fh.read())
        total = [t + c for t, c in zip(total, counts)]
        print(f"{counts[0]:6d} {counts[1]:6d} {counts[2]:6d}  {path}")
    print(f"{total[0]:6d} {total[1]:6d} {total[2]:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
