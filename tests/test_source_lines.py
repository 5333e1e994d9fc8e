"""The line rule of tools/source_lines.py, which CI prints for src/evalmat."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "source_lines.py"
_SPEC = importlib.util.spec_from_file_location("source_lines", _PATH)
source_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(source_lines)

SAMPLE = '''"""Module docstring,

over three lines."""

# a comment line
X = """not a docstring,
but code"""  # a trailing comment


class C:
    """One line."""

    def f(self):
        """Two
        lines."""
        return [1,
                2]
'''


def test_classify_counts_code_prose_and_blank():
    # code: X (2 lines), class, def, return (2 lines); prose: the module
    # docstring's 2 lines of text, the comment line, C's and f's docstrings
    # (1 + 2); blank: 4 between blocks, 1 inside the module docstring
    assert source_lines.classify(SAMPLE) == (6, 6, 5)


def test_classify_splits_every_line():
    text = _PATH.read_text(encoding="utf-8")
    assert sum(source_lines.classify(text)) == len(text.splitlines())


def test_directory_counts_its_python_files_in_sorted_order(capsys):
    src = _PATH.parent.parent / "src" / "evalmat"
    files = sorted(str(p) for p in src.glob("*.py"))
    assert source_lines.main(files) == 0
    by_file = capsys.readouterr().out
    assert source_lines.main([str(src)]) == 0
    assert capsys.readouterr().out == by_file


def test_no_path_prints_usage(capsys):
    assert source_lines.main([]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == source_lines.USAGE + "\n"
