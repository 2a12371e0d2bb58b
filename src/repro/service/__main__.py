"""``python -m repro.service`` — launch ksymmetryd directly.

An alias of ``ksymmetry serve``: the same parser, flags and error handling.
Kept importable without the console script so subprocess tests and
containers can start the daemon with nothing but a checkout on
``PYTHONPATH``.
"""

from __future__ import annotations

import sys

from repro.cli import main as cli_main


def main(argv: list[str] | None = None) -> int:
    return cli_main(["serve", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
