"""``python -m pegrowth <subcommand>``: the same entry point as the ``pegrowth`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
