"""Run ``repro-serve`` with the benchmark's optional per-layer wrappers.

Usage (from the checkout root)::

    python3 perfbench/launch_serve.py [--trace STATS.json] -- serve ROOT ...

Without ``--trace`` this is exactly the program's ``repro-serve`` entry
point.  With it, the wrappers of :mod:`tracing` are installed first, and
every SIGUSR1 writes the numbers recorded so far to ``STATS.json`` — the
benchmark signals once before and once after its timed loop.
"""

from __future__ import annotations

import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts, serve_args = argv[:sep], argv[sep + 1:]
    if opts[:1] == ["--trace"]:
        import tracing

        tracing.install()
        path = opts[1]
        signal.signal(signal.SIGUSR1, lambda *_: tracing.dump(path))
    from repro.serve.cli import main as serve_main

    return serve_main(serve_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
