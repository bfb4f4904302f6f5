"""Traced stand-in for ``python -m repro``, used by traced cli-cold runs.

Usage: ``python child.py SPANS_FILE CLI_ARG...``. Times ``import
repro.cli``, counts the ``repro`` modules it loaded, installs the span
wrappers, runs ``repro.cli.main(CLI_ARG...)`` and writes the spans to
SPANS_FILE as JSON. Exits with ``main``'s code, like ``python -m repro``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Tracer, install  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(HERE.parent / "src"))
    tracer = Tracer()
    tracer.request = 0
    idx = tracer.begin("cli.import")
    import repro.cli

    tracer.end(idx)
    tracer.count("cli.modules", sum(1 for m in sys.modules if m == "repro" or m.startswith("repro.")))
    install(tracer)
    idx = tracer.begin("cli.main")
    try:
        code = repro.cli.main(argv)
    finally:
        tracer.end(idx)
        tracer.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
