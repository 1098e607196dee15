"""Start the ``repro serve`` daemon, optionally with tracing installed.

    python perfbench/launcher.py [--spans FILE] -- serve --state DIR ...

Everything after ``--`` goes to the program's CLI unchanged, so the
daemon runs with the CLI's own defaults.  With ``--spans`` the tracing
wrappers are installed first and the recorded spans are written to
FILE once the daemon has shut down.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from layers import NOTES  # noqa: E402


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: launcher.py [--spans FILE] -- <repro cli args>", file=sys.stderr)
        return 2
    cut = argv.index("--")
    own, cli_args = argv[:cut], argv[cut + 1 :]
    spans = Path(own[own.index("--spans") + 1]) if "--spans" in own else None
    log = None
    if spans is not None:
        log = tracing.SpanLog()
        tracing.install(log, NOTES)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        if log is not None:
            log.dump(spans)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
