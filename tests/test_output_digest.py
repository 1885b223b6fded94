import importlib.util
from pathlib import Path

from pegrowth import cli

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("output_digest", ROOT / "tools" / "output_digest.py")
output_digest = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(output_digest)

# The digest of the 168 runs, recorded on the program before the rc and
# rd_mirror rows of the duality checks shared one engine pass.
RECORDED = "76d0775b82c60e0e122d073be07c0957b7739c1a6c0286d1b94e34f61ed2e7bc"


def test_grid_is_every_subcommand_on_every_committed_config():
    """7 subcommands, then the 8 configs in sorted order, then the seeds."""
    grid = output_digest.runs()
    configs = sorted([*(ROOT / "bench" / "configs").glob("*.json"),
                      *(ROOT / "tools" / "configs").glob("*.json")])
    assert len(configs) == 8 and len(grid) == 168
    assert set(output_digest.SUBCOMMANDS) == set(cli.SUBCOMMANDS)
    assert grid[:4] == [("lie-check", configs[0], None), ("lie-check", configs[0], 1),
                        ("lie-check", configs[0], 5), ("lie-check", configs[1], None)]


def test_outputs_are_the_recorded_bytes():
    assert output_digest.digest(output_digest.runs()) == RECORDED
