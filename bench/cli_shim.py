"""``python -m hopfkit`` with tracing, for the traced run of the cli workload.

Usage: ``python cli_shim.py SPANS_JSON ARGV...``.  Runs ``hopfkit.cli.main``
on ``ARGV`` exactly as ``python -m hopfkit`` does, with a tracer installed
after the import, writes the tracer's spans and counters to ``SPANS_JSON``
and exits with the CLI's exit code.
"""
import json
import sys

from tracing import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.open_span("cli.import")
    import hopfkit.cli
    tracer.close_span()
    tracer.install()
    tracer.open_span("cli.main")
    try:
        return hopfkit.cli.main(argv)
    finally:
        tracer.close_span()
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)


if __name__ == "__main__":
    sys.exit(main())
