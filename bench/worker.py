"""Benchmark worker: imports wormbec once, then runs CLI calls on request.

Run as ``python3 bench/worker.py [SPANS_PATH]`` with the package on
``PYTHONPATH``. The protocol is one JSON object per line. Once
``wormbec.cli`` is imported the worker prints ``{"ready": true}``. It
answers each request ``{"argv": [...], "trace": bool}`` with
``{"ms": ..., "rc": ..., "stdout": ..., "error": ...}``, timing only the
``wormbec.cli.main`` call. A traced request wraps the package's layer
functions for that call (see tracer.py). At end of input the worker writes
the recorded spans to SPANS_PATH, prints ``{"maxrss_kb": ..., "absent":
[...]}`` and exits.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback

import tracer


def _send(stream, payload: dict) -> None:
    stream.write(json.dumps(payload) + "\n")
    stream.flush()


def _call(cli_main, argv: list[str]) -> tuple[int, str, str | None]:
    buffer = io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(buffer):
            rc = cli_main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash in the program is a failed op, not a failed run
        rc = -1
        error = traceback.format_exc()
    return rc, buffer.getvalue(), error


def main() -> None:
    spans_path = sys.argv[1] if len(sys.argv) > 1 else None
    out = sys.stdout
    from wormbec.cli import main as cli_main
    _send(out, {"ready": True})

    recorder = tracer.Recorder()
    absent: list[str] = []
    for line in sys.stdin:
        request = json.loads(line)
        patches = None
        if request["trace"]:
            patches, absent = tracer.install(recorder)
        gc.collect()
        start = time.perf_counter()
        root = recorder.begin("cli.main") if patches is not None else None
        rc, stdout, error = _call(cli_main, request["argv"])
        if root is not None:
            recorder.end(root)
        ms = (time.perf_counter() - start) * 1e3
        if patches is not None:
            tracer.uninstall(patches)
        _send(out, {"ms": ms, "rc": rc, "stdout": stdout, "error": error})

    if spans_path is not None:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(recorder.spans, handle)
    _send(out, {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "absent": absent})


if __name__ == "__main__":
    main()
