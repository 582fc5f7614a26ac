"""Source-level checks on the package."""
import ast
import importlib
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "topzeta"


def test_no_assert_in_package():
    # python -O strips assert statements, so exactness checks must raise
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert not offenders, offenders


# Callers of the package that tier-1 does not run: removing a name they read
# would break them without failing any other test.
UNTESTED_CALLERS = ["perfbench/workloads.py", "perfbench/capture.py",
                    "scripts/bench.py"]


def _topzeta_reads(tree: ast.AST) -> set[tuple[str, str | None]]:
    """(module, attribute) for each topzeta module a file imports (attribute
    None) and each attribute it reads from one."""
    aliases: dict[str, str] = {}
    reads: set[tuple[str, str | None]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "topzeta":
            for name in node.names:
                aliases[name.asname or name.name] = f"topzeta.{name.name}"
                reads.add((f"topzeta.{name.name}", None))
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.startswith("topzeta."):
            reads |= {(node.module, name.name) for name in node.names}
        elif isinstance(node, ast.Import):
            reads |= {(name.name, None) for name in node.names
                      if name.name.startswith("topzeta")}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id in aliases:
            reads.add((aliases[node.value.id], node.attr))
    return reads


def test_untested_callers_find_their_api():
    missing = []
    for caller in UNTESTED_CALLERS:
        path = SRC.parent.parent / caller
        reads = _topzeta_reads(ast.parse(path.read_text(encoding="utf-8")))
        assert reads, caller
        for module, attr in sorted(reads, key=str):
            mod = importlib.import_module(module)
            if attr is not None and not hasattr(mod, attr):
                missing.append(f"{caller}: {module}.{attr}")
    assert not missing, missing


def test_cli_import_loads_every_module():
    # the benchmark's tracer wraps only the topzeta modules already in
    # sys.modules after `import topzeta.cli`; a module that import leaves
    # out would drop out of the traced layers without any error
    modules = sorted(f"topzeta.{p.stem}" for p in SRC.glob("*.py")
                     if p.stem != "__init__")
    # and, since every CLI process pays for it, loads neither dataclasses
    # nor inspect (about 30 ms of import between them)
    probe = ("import sys, topzeta.cli; "
             f"print([m for m in {modules!r} if m not in sys.modules], "
             "[m for m in ('dataclasses', 'inspect') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[] []"
