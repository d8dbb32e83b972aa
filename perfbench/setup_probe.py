"""One set-up run: a fresh interpreter imports qqsystems and runs one CLI call.

    python3 perfbench/setup_probe.py SRC_DIR CMD SPEC_PATH

Prints one JSON line: the CLI's exit code, the CPU time of this process from
its start to the end of the call without the speed samples, and the speed
factor that scales it to the reference speed (``speed.py``).  The samples
start before ``qqsystems`` is imported, so they cover the imports too.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from speed import Sampler


def main(src_dir: str, cmd: str, spec_path: str) -> None:
    sampler = Sampler()
    sampler.start()
    with contextlib.redirect_stdout(io.StringIO()):
        sys.path.insert(0, src_dir)
        from qqsystems import cli
        code = cli.main([cmd, spec_path])
    sampler.stop()
    cpu = time.process_time() - sampler.spent
    print(json.dumps({"exit": code, "cpu": cpu, "speed": sampler.factor()}))


if __name__ == "__main__":
    main(*sys.argv[1:])
