"""README's tables list exactly the names ``pegrowth`` exports, exactly
the defaulted parameters of its modules' public functions and dataclasses,
and exactly the command-line flags of each subcommand."""

import argparse
import dataclasses
import inspect
import re
import types
from pathlib import Path

import pegrowth
from pegrowth import cli

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("matcore", "signals", "lie", "control", "rates", "projective", "spinchk")


def section(title):
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def table_names():
    """The first-column names of the table under "## Public surface"."""
    return [m.group(1) for m in re.finditer(r"^\| `(\w+)` \|", section("Public surface"), re.M)]


def test_table_lists_every_exported_name():
    names = table_names()
    assert len(names) == len(set(names))
    exported = {n for n, v in vars(pegrowth).items()
                if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert set(names) == exported


def test_settings_table_lists_every_defaulted_parameter():
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| `(\w+)` \| `([^`]*)` \| ([^|]*\S) \|$",
                      section("Settings"), re.M)
    listed = [row[:4] for row in rows]
    assert len(listed) == len(set(listed))
    defaulted = set()
    for module in MODULES:
        mod = getattr(pegrowth, module)
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj) or dataclasses.is_dataclass(obj):
                defaulted.update((module, name, p.name, repr(p.default))
                                 for p in inspect.signature(obj).parameters.values()
                                 if p.default is not p.empty)
    assert set(listed) == defaulted


def test_command_line_table_names_every_flag():
    """README's "Command line" table names exactly the flags that the
    parser registers for each subcommand, so a flag cannot come or go
    without its doc."""
    rows = re.findall(r"^\| `([\w-]+)` \| ([^|]*) \|", section("Command line"), re.M)
    listed = {sub: sorted(re.findall(r"`(--[\w-]+)`", flags)) for sub, flags in rows}
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    registered = {sub: sorted(opt for action in p._actions for opt in action.option_strings
                              if opt not in ("-h", "--help"))
                  for sub, p in subparsers.choices.items()}
    assert len(rows) == len(listed) and listed == registered
