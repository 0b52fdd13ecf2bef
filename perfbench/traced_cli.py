"""``python -m merosolve.cli`` with every layer wrapped by ``spans.install``.

    PYTHONPATH=src python3 -X importtime perfbench/traced_cli.py classify --alpha 2 --beta 0 --gamma 0

Stdout and the exit code are the CLI's own.  After ``main`` returns, the
wrappers are removed and the span summary goes to stderr as one line that
starts with ``spans.SUMMARY_PREFIX``.
"""

from __future__ import annotations

import json
import sys

import spans


def main() -> int:
    tr = spans.Tracer()
    undo = spans.install(tr)
    try:
        from merosolve import cli

        code = cli.main(sys.argv[1:])
        sys.stdout.flush()
    finally:
        undo()
    self_sum_ms = 1000 * tr.end_op()
    summary = tr.summary()
    summary["self_sum_ms"] = self_sum_ms
    print(spans.SUMMARY_PREFIX + json.dumps(summary), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
