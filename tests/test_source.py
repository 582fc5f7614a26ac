"""Source-level checks on the package."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "topzeta"


def test_no_assert_in_package():
    # python -O strips assert statements, so exactness checks must raise
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert not offenders, offenders
