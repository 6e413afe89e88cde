"""The README's "Contracts and the tests that pin them" table names tests
that exist: every id in its "Pinned by" column resolves, through `ast`, to
a test class, method or function under tests/.

A full id is `test_x.py::Name` or `test_x.py::Class::name`. A cell may
shorten the ids after the first: `::name` keeps the file and class of the
id before it, and `Class::name` keeps its file."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECTION = "## Contracts and the tests that pin them"
TEST_ID = re.compile(r"`((?:test_\w+\.py|Test\w+)?::\w+(?:::\w+)?)`")


def pinned_by_cells() -> list[str]:
    text = (ROOT / "README.md").read_text()
    section = text[text.index(SECTION) :].split("\n## ", 1)[0]
    header, _, *rows = [line for line in section.splitlines() if line.startswith("|")]
    column = [cell.strip() for cell in header.strip("|").split("|")].index("Pinned by")
    return [row.strip("|").split("|")[column] for row in rows]


def full_ids(cell: str) -> list[tuple[str, ...]]:
    """Each test id of the cell as (file, name) or (file, class, name)."""
    ids: list[tuple[str, ...]] = []
    for short in TEST_ID.findall(cell):
        parts = short.split("::")
        if parts[0].endswith(".py"):
            ids.append(tuple(parts))
        elif parts[0]:  # Class::name, in the file of the id before it
            ids.append((ids[-1][0], *parts))
        else:  # ::name, in the file and class of the id before it
            ids.append((*ids[-1][:-1], parts[1]))
    return ids


def defines(body, name: str):
    return next((node for node in body if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name), None)


def resolves(test_id: tuple[str, ...]) -> bool:
    path = ROOT / "tests" / test_id[0]
    if not path.is_file():
        return False
    body = ast.parse(path.read_text()).body
    for name in test_id[1:]:
        node = defines(body, name)
        if node is None:
            return False
        body = node.body
    return True


def test_every_row_names_a_test():
    cells = pinned_by_cells()
    assert cells
    assert all(full_ids(cell) for cell in cells)


def test_every_named_test_exists():
    missing = ["::".join(i) for cell in pinned_by_cells() for i in full_ids(cell) if not resolves(i)]
    assert missing == []
