"""One benchmark op: a fresh process that imports the CLI and runs it once.

Usage (from the checkout root, with ``src`` on PYTHONPATH):

    python3 perfbench/opchild.py RESULT.json op      -- <conelab CLI args>
    python3 perfbench/opchild.py RESULT.json trace   -- <conelab CLI args>
    python3 perfbench/opchild.py RESULT.json import
    python3 perfbench/opchild.py RESULT.json scipy

``op`` times ``import conelab.cli`` and ``conelab.cli.main(argv)``; ``trace``
does the same with span wrappers installed between the two; ``import`` stops
after the import; ``scipy`` times a cold ``import scipy.optimize`` on top of
numpy. The timings go to RESULT.json, written only when the process gets that
far, and the exit code is the CLI's.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _peak_rss_mb():
    """Peak resident memory of this process since exec (VmHWM), or None where
    /proc is missing."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _write(path, payload):
    payload["rss_mb"] = _peak_rss_mb()
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def main(args):
    result_path, mode, *rest = args
    cli_argv = rest[1:] if rest[:1] == ["--"] else rest
    if mode == "scipy":
        import numpy  # noqa: F401  (numpy stays on the import path either way)

        t0 = time.perf_counter()
        import scipy.optimize  # noqa: F401

        _write(result_path, {"scipy_optimize_s": time.perf_counter() - t0})
        return 0

    t0 = time.perf_counter()
    import conelab.cli

    setup_s = time.perf_counter() - t0
    payload = {"setup_s": setup_s, "conelab_file": os.path.abspath(conelab.__file__)}
    if mode == "import":
        _write(result_path, payload)
        return 0

    recorder = None
    if mode == "trace":
        import spans

        recorder = spans.Recorder()
        payload["missing_targets"] = recorder.install()
    t0 = time.perf_counter()
    rc = conelab.cli.main(cli_argv)
    payload["run_s"] = time.perf_counter() - t0
    payload["rc"] = rc
    if recorder is not None:
        payload["layers"] = recorder.summary()
    _write(result_path, payload)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
