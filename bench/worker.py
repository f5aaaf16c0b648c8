"""One benchmark iteration, run by bench/run.py in a fresh interpreter.

Calls poissonlab.cli.main once per command, in order, as a CLI user would
run them back to back, and prints one JSON line: the wall time from the
first command to the last record written, the peak RSS of this process,
and every exit code. With --spans FILE it first wraps the library layers
(see spans.py) and writes the spans to FILE after the last command.

    PYTHONPATH=src python3 bench/worker.py --commands '[["h", "--out", "h.json"]]'
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--commands", required=True,
                        help="JSON list of argv lists for poissonlab.cli.main")
    parser.add_argument("--spans", default=None, help="write spans here")
    parser.add_argument("--run-id", default="run")
    args = parser.parse_args()
    commands = json.loads(args.commands)

    # Imports are set-up cost (setup_s), measured apart from wall_s.
    from poissonlab import cli

    tracer = None
    if args.spans:
        import spans

        tracer = spans.Tracer(args.run_id)
        spans.install(tracer)

    codes = []
    start = time.perf_counter()
    for argv in commands:
        try:
            if tracer is None:
                codes.append(cli.main(argv))
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    codes.append(cli.main(argv))
        except Exception:  # a traceback is a failed command, not a lost run
            traceback.print_exc()
            codes.append(None)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.write(args.spans)
    print(json.dumps({"wall_s": wall, "peak_rss_mb": peak_rss_mb,
                      "codes": codes, "module": cli.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
