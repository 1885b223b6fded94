"""README's public-surface table lists exactly the names ``pegrowth`` exports."""

import re
import types
from pathlib import Path

import pegrowth

README = Path(__file__).resolve().parent.parent / "README.md"


def table_names():
    """The first-column names of the table under "## Public surface"."""
    section = README.read_text().split("\n## Public surface\n", 1)[1].split("\n## ", 1)[0]
    return [m.group(1) for m in re.finditer(r"^\| `(\w+)` \|", section, re.M)]


def test_table_lists_every_exported_name():
    names = table_names()
    assert len(names) == len(set(names))
    exported = {n for n, v in vars(pegrowth).items()
                if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert set(names) == exported
