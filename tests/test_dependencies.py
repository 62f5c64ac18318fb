import ast
import sys
from pathlib import Path

import probeforge

PACKAGE = Path(probeforge.__file__).parent


def test_package_imports_only_stdlib_and_numpy():
    # numpy is the only runtime dependency; an import anywhere in the package
    # that names another third-party module would break a numpy-only install
    allowed = set(sys.stdlib_module_names) | {"numpy", "probeforge"}
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert foreign == []
