"""CLI entry point: ``python -m repro.bench`` is ``repro figures``.

Regenerates every paper figure (tables to stdout, CSVs to ``--out`` or
``results/`` in the working directory); it shares that verb's parser:

    python -m repro.bench --out figs --quiet
"""

from __future__ import annotations

import sys

from repro.cli import main as cli_main


def main(argv: list[str] | None = None) -> int:
    return cli_main(["figures", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    raise SystemExit(main())
