"""The package's settable knobs, counted with ast: defaulted parameters and
defaulted dataclass fields over src/rhwznw.  A tolerance, step or limit with
one value in use is a module constant, not a parameter (README, "Numerical
constants"), so the count only falls; a change that adds a knob raises
KNOB_BOUND with it.  The decision when a loop set is built has one owner
too: WeightSystem.loops is the one place that calls MonodromyLoops.

count_code_lines is the size measure that ROADMAP and CHANGES quote:
python tests/test_knobs.py prints it per module of src/rhwznw.  Its total
only falls too: a change that adds code raises CODE_LINE_BOUND with it."""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rhwznw"
KNOB_BOUND = 17
CODE_LINE_BOUND = 2_413


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def count_knobs(root: Path) -> dict[str, int]:
    """Defaulted parameters (functions and lambdas) plus defaulted dataclass
    fields of every module under root, by file name."""
    counts = {}
    for path in sorted(root.glob("*.py")):
        n = 0
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                n += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                n += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
        counts[path.name] = n
    return counts


def test_knob_count_does_not_grow():
    counts = count_knobs(SRC)
    assert sum(counts.values()) <= KNOB_BOUND, counts


def test_knob_count_sees_parameters_and_fields(tmp_path):
    (tmp_path / "m.py").write_text(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, *, c=2, d): pass\n"
        "g = lambda x=0: x\n"
        "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n    z: list = field(default_factory=list)\n"
        "class B:\n    w: int = 3\n"
    )
    assert count_knobs(tmp_path) == {"m.py": 5}


# tokens that are no code of their own line
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def count_code_lines(root: Path) -> dict[str, int]:
    """Code lines of every module under root, by file name: the lines that
    a token other than a comment spans (tokenize), less the docstrings of
    modules, classes and functions (ast), so comments and blank lines are
    left out too."""
    counts = {}
    for path in sorted(root.glob("*.py")):
        text = path.read_text()
        lines = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = node.body[0] if node.body else None
                if isinstance(doc, ast.Expr) and isinstance(getattr(doc.value, "value", None), str):
                    lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
        counts[path.name] = len(lines)
    return counts


def test_code_line_count_leaves_out_docstrings_comments_and_blanks(tmp_path):
    (tmp_path / "m.py").write_text(
        '"""Module\ndocstring."""\n\n# a comment\nimport os  # trailing\n\n'
        'def f(a,\n      b):\n    """One line."""\n    s = """two\n    lines"""\n    return s\n\n'
        'class C:\n    """Class\n    docstring."""\n\n    x = 1\n'
    )
    assert count_code_lines(tmp_path) == {"m.py": 8}


def test_code_lines_do_not_grow():
    counts = count_code_lines(SRC)
    assert sum(counts.values()) <= CODE_LINE_BOUND, counts


def loop_set_builds(root: Path) -> list[tuple[str, int]]:
    """(file name, line) of every MonodromyLoops(...) call under root, by
    plain name or as an attribute."""
    sites = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "MonodromyLoops":
                    sites.append((path.name, node.lineno))
    return sites


def test_one_place_builds_loop_sets():
    assert len(loop_set_builds(SRC)) == 1, loop_set_builds(SRC)


def test_loop_set_builds_see_both_spellings(tmp_path):
    (tmp_path / "m.py").write_text(
        "from . import fuchs\nfrom .fuchs import MonodromyLoops\n"
        "a = fuchs.MonodromyLoops(w)\nb = MonodromyLoops(w)\nc = fuchs.MonodromyLoops\n"
    )
    assert loop_set_builds(tmp_path) == [("m.py", 3), ("m.py", 4)]


if __name__ == "__main__":
    counts = count_code_lines(SRC)
    for name, n in counts.items():
        print(f"{name:14} {n:6,}")
    print(f"{'total':14} {sum(counts.values()):6,}")
