"""The worker process: runs one CLI operation at a time and times it.

    python3 perfbench/worker.py SRC_DIR WORK_DIR

Reads one JSON request per line on standard input,
``{"op": id, "cmd": "solve" | "tropical", "spec": {...}, "traced": bool}``,
and answers each with one JSON line: the exit code, the wall time and the
CPU time of this process in ``qqsystems.cli.main``, the speed factor that
scales that CPU time to the reference speed (``speed.py``), its standard
output and, for a traced operation, the spans.  Only ``cli.main`` is inside
the timed region: writing the spec file, clearing the sympy cache and
collecting garbage happen before it, and the speed samples taken in it are
subtracted.  End of input ends the worker.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import sys
import time
import traceback


def _clear_sympy_cache() -> None:
    # every CLI user starts with a cold cache; a warm one would time a state
    # no user has
    if "sympy" in sys.modules:
        from sympy.core.cache import clear_cache
        clear_cache()


def serve(src_dir: str, work_dir: str) -> None:
    # replies get their own copy of stdout; stray prints go to stderr
    replies = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    sys.path.insert(0, src_dir)
    from qqsystems import cli
    from spans import Tracer
    from speed import Sampler

    tracer = Tracer()
    sampler = Sampler()
    replies.write(json.dumps({"ready": os.getpid()}) + "\n")
    replies.flush()
    for line in sys.stdin:
        req = json.loads(line)
        path = os.path.join(work_dir, f"op{req['op']}-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(req["spec"], fh)
        _clear_sympy_cache()
        gc.collect()
        out = io.StringIO()
        error = None
        scope = (tracer.installed(req["op"]) if req["traced"]
                 else contextlib.nullcontext())
        with scope, contextlib.redirect_stdout(out):
            start = time.perf_counter()
            cpu_start = time.process_time()
            sampler.start()
            try:
                code = cli.main([req["cmd"], path])
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a traceback out of the CLI is a result too
                code = None
                error = traceback.format_exc()
            sampler.stop()
            cpu = time.process_time() - cpu_start - sampler.spent
            wall = time.perf_counter() - start - sampler.spent
        os.remove(path)
        replies.write(json.dumps({"exit": code, "wall": wall, "cpu": cpu,
                                  "speed": sampler.factor(),
                                  "stdout": out.getvalue(), "error": error,
                                  "spans": tracer.take()}) + "\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.argv[1], sys.argv[2])
