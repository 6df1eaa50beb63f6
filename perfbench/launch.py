"""Traced CLI launcher: one ``smodquiver`` command with the tracer installed.

Usage (the driver builds this command line):

    python3 perfbench/launch.py --src SRC --spawned T --trace-out FILE -- ARGV...

Imports ``smodquiver.cli`` and notes the start-up time (interpreter start
plus that import, from T, the driver's ``time.monotonic()`` when it spawned
this process), installs the tracer, then calls ``smodquiver.cli.main(ARGV)``
exactly as ``python -m smodquiver.cli ARGV`` would: stdout, stderr and the
exit code are the command's own.  The folded spans and the start-up time are
written to FILE when the command ends, also when it raises.
"""

import json
import sys
import time
from pathlib import Path


def main():
    sep = sys.argv.index("--")
    opts, argv = sys.argv[1:sep], sys.argv[sep + 1:]
    src = opts[opts.index("--src") + 1]
    spawned = float(opts[opts.index("--spawned") + 1])
    out = opts[opts.index("--trace-out") + 1]
    sys.path[:0] = [src, str(Path(__file__).resolve().parent)]
    from smodquiver import cli

    startup = time.monotonic() - spawned
    import tracer as tracing

    tracer = tracing.Tracer().install()
    tracer.begin_op(" ".join(argv))
    try:
        rc = cli.main(argv)
    finally:
        agg = tracer.end_op()
        agg["absent"] = tracer.absent
        agg["startup_s"] = startup
        Path(out).write_text(json.dumps(agg), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
