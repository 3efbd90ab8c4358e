"""Traced `bairekit.cli` process.

    python perfbench/cli_child.py STATS_PATH CLI_ARGS...

Imports the CLI, notes the monotonic clock once the imports are done, runs
``bairekit.cli.main`` under the span tracer and writes the per-layer span
totals, that clock reading and the handler time to STATS_PATH as JSON.
``main`` reads CLI_ARGS from ``sys.argv``, as under ``python -m bairekit.cli``,
so both take the same path through the CLI.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bairekit  # noqa: E402
import bairekit.cli  # noqa: E402

ready = time.monotonic()

from tracer import Tracer  # noqa: E402


def main() -> int:
    stats_path = Path(sys.argv[1])
    sys.argv = [bairekit.cli.__file__, *sys.argv[2:]]
    tracer = Tracer(bairekit)
    tracer.install()
    tracer.begin_task(0)
    code = 1
    start = time.perf_counter()
    try:
        code = bairekit.cli.main()
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code
    finally:
        handler_s = time.perf_counter() - start
        stats = tracer.end_task()
        stats.update(ready=ready, handler_s=handler_s)
        stats_path.write_text(json.dumps(stats))
    return code


if __name__ == "__main__":
    sys.exit(main())
