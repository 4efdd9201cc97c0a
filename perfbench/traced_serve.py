"""``repro serve`` with the benchmark's layer tracing installed.

Usage::

    python3 perfbench/traced_serve.py OUT.json serve [repro serve options]

Runs exactly the CLI entry point ``python -m repro serve`` runs, after
:class:`layers.LayerTrace` has rebound the layers' entry points in this
process.  When the server exits (SIGTERM drains it gracefully) the span and
counter totals are written to ``OUT.json``.
"""

from __future__ import annotations

import json
import sys

from common import require_sources


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    require_sources()
    # Import every module that binds a traced entry point before rebinding.
    import repro.__main__ as cli
    import repro.service.http  # noqa: F401
    import repro.service.jobs  # noqa: F401
    import repro.service.workers.local  # noqa: F401
    from layers import LayerTrace

    trace = LayerTrace()
    with trace:
        status = cli.main(argv)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"calls": trace.calls, "seconds": trace.seconds,
                   "counters": trace.counters}, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
