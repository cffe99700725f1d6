"""Traced entry point for one `ramanpa` CLI invocation.

    python benchmarks/cli_child.py SPANS_JSON VERB [ARGS...]

Installs the span wrappers of `tracing`, calls `ramanpa.cli.main(argv)` under
a `cli.main` span, writes the spans to SPANS_JSON and exits with main's code.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import ramanpa.cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        return tracer.wrap(ramanpa.cli.main, "cli.main", "benchmark",
                           attrs={"verb": argv[0]})(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.finalize(), fh)


if __name__ == "__main__":
    sys.exit(main())
