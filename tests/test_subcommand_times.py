import importlib.util
import json
from pathlib import Path

from pegrowth import cli

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("subcommand_times",
                                              ROOT / "tools" / "subcommand_times.py")
subcommand_times = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(subcommand_times)


def test_times_one_row():
    report = subcommand_times.measure({"here": ROOT}, ["acc-cert"], 2)
    row = report["here"]["acc-cert"]
    assert row["exit"] == 0 and len(row["summary_sha256"]) == 64
    assert 0.0 < row["q1_s"] <= row["median_s"] <= row["q3_s"]


def test_every_subcommand_has_a_committed_config():
    rows = json.loads((ROOT / "BENCH_subcommands.json").read_text())["configs"]
    assert rows == subcommand_times.ROWS
    assert set(rows) == {"import", *cli.SUBCOMMANDS}
    for path in filter(None, rows.values()):
        assert (ROOT / path).is_file()
