"""Traced stand-in for ``python -m phasekit``.

    python shim.py SPANS_JSON OP_ID <phasekit arguments...>

Times the package import, wraps the layer functions (see ``spans.LAYERS``)
and runs ``phasekit.cli.main`` in this process.  The spans are written to
SPANS_JSON when the command ends, also when it raises.
"""
import sys

from spans import Tracer, instrument


def main() -> int:
    spans_path, op = sys.argv[1], sys.argv[2]
    tracer = Tracer(op)
    try:
        with tracer.span("import"):
            import phasekit.cli
        instrument(tracer)
        with tracer.span("cli.main"):
            return phasekit.cli.main(sys.argv[3:])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
