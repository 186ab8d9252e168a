import ast
from pathlib import Path


def test_oracles_do_not_import_the_package():
    # a reference that imports beamlink could share the code it checks
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            roots.add(node.module.split(".")[0])
    assert roots and "beamlink" not in roots
