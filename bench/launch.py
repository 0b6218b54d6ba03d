"""Run the eulerchi command line with per-layer tracing, in a fresh process.

    python3 bench/launch.py STATS_JSON [eulerchi arguments ...]

Times the import of ``eulerchi.cli``, installs the tracer, calls
``eulerchi.cli.main`` with the remaining arguments, removes the tracer and
writes the per-layer stats to STATS_JSON.  Standard output and the exit code
are those of the command line itself; the package must be on PYTHONPATH.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer, leftover_wrappers


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import eulerchi.cli

    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        return eulerchi.cli.main(argv)
    finally:
        tracer.remove()
        tracer.add_cache_counts(eulerchi.catalog)
        tracer.stats["cli"] = {"import_s": import_s}
        tracer.stats["leftover_wrappers"] = {"count": len(leftover_wrappers())}
        Path(stats_path).write_text(json.dumps(tracer.stats), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
