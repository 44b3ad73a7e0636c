"""Replay one spreadwave CLI command in-process with layer probes.

    python perfbench/tracecmd.py SPANS.json COMMAND [ARGS...]

Runs ``spreadwave.cli`` through click exactly as ``python -m spreadwave.cli
COMMAND ARGS`` would, inside a root span ``cli.COMMAND`` that starts after the
import, writes the spans and counters to SPANS.json and exits with the
command's exit code.  Needs ``src`` on PYTHONPATH.
"""

import json
import sys

import probes
import spreadwave.cli


def main() -> int:
    out_path, args = sys.argv[1], sys.argv[2:]
    tracer = probes.Tracer()
    probes.install(tracer)
    root = tracer.begin("cli." + args[0])
    code = 0
    try:
        spreadwave.cli.main(args, standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.end(root)
        tracer.restore()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
