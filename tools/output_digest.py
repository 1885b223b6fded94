"""One sha256 over the outputs of every subcommand on the committed configs.

    PYTHONPATH=src python3 tools/output_digest.py

The program is imported from ``PYTHONPATH``, so pointing it at another
checkout's ``src`` digests that checkout's outputs on the same runs.  The
configs are read from this tool's checkout: the eight under
``bench/configs`` and ``tools/configs``, in sorted order.  Each of the seven
subcommands runs on each config at the config's own seed and at ``--seed 1``
and ``--seed 5``: 168 runs of ``cli.main``, in process, each into a fresh
output directory.  Per run the digest takes the exit code as 4 little-endian
bytes, then the stderr text and every output file's relative name and bytes
(files in sorted order), each prefixed by its length as 8 little-endian
bytes.  Every warning is shown, into the captured stderr.  Two checkouts
that print the same digest write the same bytes on every run.  The runs
take about 3 s on a 2-core x86_64 VM.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import struct
import tempfile
import warnings
from pathlib import Path

from pegrowth import cli

ROOT = Path(__file__).resolve().parent.parent
SUBCOMMANDS = ("lie-check", "acc-cert", "rates", "duality", "invariant-set", "spin-audit",
               "duality-grid")
SEEDS = (None, 1, 5)  # None runs at the config's own seed


def runs() -> list[tuple[str, Path, int | None]]:
    """Every (subcommand, config, seed) run, in digest order."""
    configs = sorted(itertools.chain(*((ROOT / d).glob("*.json")
                                       for d in ("bench/configs", "tools/configs"))))
    return list(itertools.product(SUBCOMMANDS, configs, SEEDS))


def digest(grid) -> str:
    """The hex sha256 of the exit codes, stderr and output files of the runs."""
    h = hashlib.sha256()

    def field(data: bytes) -> None:
        h.update(struct.pack("<Q", len(data)))
        h.update(data)

    for sub, config, seed in grid:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            argv = [sub, "--config", str(config), "--out", str(out)]
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = cli.main(argv + ([] if seed is None else ["--seed", str(seed)]))
            h.update(struct.pack("<i", code))
            field(err.getvalue().encode())
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                field(path.relative_to(out).as_posix().encode())
                field(path.read_bytes())
    return h.hexdigest()


if __name__ == "__main__":
    print(digest(runs()))
