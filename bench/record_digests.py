#!/usr/bin/env python3
"""Record the output digest of every request the emit and verify workloads
can send, into bench/seed_digests.tsv.

    PYTHONPATH=src python3 bench/record_digests.py

The table pins byte-identical CLI output: run.py fails any output whose
digest differs.  Rates are recorded in the "--m=VALUE" spelling, so requests
that the CLI currently refuses (negative non-integer "--m VALUE") have the
digest their output must have once they are accepted.  Re-record only when a
change to the output is intended.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

import checks
import workloads

from scepoly import cli


def equals_form(argv: list[str]) -> list[str]:
    """The same request with rates spelled "--m=VALUE", which argparse accepts
    for negative non-integers too."""
    out, i = [], 0
    while i < len(argv):
        if argv[i] == "--m":
            out.append(f"--m={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main() -> int:
    os.environ["SCE_MAX_N"] = "64"
    lines = []
    for argv in [*workloads.emit_universe(), workloads.verify_request()]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(equals_form(argv))
        if code != 0:
            print(f"exit {code}: {workloads.request_key(argv)}", file=sys.stderr)
            return 1
        lines.append(f"{workloads.request_key(argv)}\t{checks.digest(out.getvalue())}\n")
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "seed_digests.tsv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    print(f"{len(lines)} digests written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
