"""Package layout: no heavenlab module imports another module's private name."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "heavenlab"


def _private_imports(source: str) -> list[str]:
    """Each `from .module import _name` (or `from heavenlab.module import
    _name`) in source, at any depth, as "module._name"."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and not module.startswith("heavenlab"):
            continue  # another package: its private names are its own business
        out += [f"{module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return out


def test_no_module_imports_a_private_name_of_another():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 8
    found = {f.name: _private_imports(f.read_text()) for f in files}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_private_imports_are_seen_at_any_depth():
    source = (
        "from .opcore import Operator, _quotient\n"
        "def f():\n"
        "    from heavenlab.eds import _eliminate\n"
        "from numpy import _private_numpy_name\n"
    )
    assert _private_imports(source) == ["opcore._quotient", "heavenlab.eds._eliminate"]
