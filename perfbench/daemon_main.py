"""``python -m repro.service`` with the benchmark's tracer installed.

Usage: ``daemon_main.py --trace-dir DIR <repro.service arguments>``.
The wrappers are installed before the daemon forks its shards, so the
shards record spans too.
"""

from __future__ import annotations

import sys

import repro.experiments  # noqa: F401  (must precede repro.design)

from tracer import Tracer


def main(argv):
    if len(argv) < 2 or argv[0] != "--trace-dir":
        raise SystemExit("usage: daemon_main.py --trace-dir DIR <repro.service arguments>")
    from repro.service.__main__ import main as serve

    tracer = Tracer(argv[1])
    tracer.install()
    try:
        return serve(argv[2:])
    finally:
        tracer.uninstall()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
