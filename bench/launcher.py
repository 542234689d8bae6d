"""Run one ``rubymag`` CLI command in this process with the tracer installed.

    python3 bench/launcher.py SRC_DIR SPANS_FILE OP_ID COMMAND [ARGS...]

It puts SRC_DIR first on ``sys.path``, times ``import rubymag.cli``, wraps the
public functions (see ``tracer.py``), calls ``rubymag.cli.main(argv)`` and
exits with its return code.  The spans, the process start stamp and the import
time go to SPANS_FILE when the command returns.  Untraced benchmark runs do not
use this file: they start ``python3 -m rubymag.cli`` directly.
"""

import time

STARTED = time.monotonic()  # compared with the parent's spawn stamp

import sys  # noqa: E402


def main() -> int:
    src, spans_file, op = sys.argv[1:4]
    sys.path.insert(0, src)
    t = time.monotonic()
    import rubymag.cli
    import_s = time.monotonic() - t

    from tracer import Tracer

    tracer = Tracer()
    tracer.op = int(op)
    tracer.install()
    try:
        return rubymag.cli.main(sys.argv[4:])
    finally:
        tracer.dump(spans_file, started=STARTED, import_s=import_s)


if __name__ == "__main__":
    raise SystemExit(main())
