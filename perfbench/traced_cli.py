"""Run one tilecohom CLI command with every layer traced.

    python3 perfbench/traced_cli.py TRACE_OUT.json cohomology SYSTEM --route both ...

The arguments after TRACE_OUT.json are passed to ``tilecohom.cli.main``
unchanged.  The per-layer metrics and the summed self time of all stage
spans are written to TRACE_OUT.json; the process exits with the CLI's
exit code.
"""

from __future__ import annotations

import json
import sys
import time

from common import use_source_tree


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    use_source_tree()
    start = time.perf_counter()
    import tilecohom.cli as cli

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.span("cli.main", cli.main, cli_args)
    finally:
        tracer.remove()
    metrics = tracer.metrics()
    metrics["cli.import_s"] = import_s
    stage_self = import_s + tracer.stage_self_time()
    with open(out_path, "w") as fh:
        json.dump({"metrics": metrics, "stage_self_s": stage_self}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
