"""One benchmark worker: a fresh process that serves one pass of a workload.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.  The
protocol is one JSON line each way after start-up:

    worker -> parent   {"ready": ...}   once scepoly.cli (and mpmath) is imported
    parent -> worker   {"mode": "timed" | "trace" | "profile",
                        "requests": [[argv...], ...]}
    worker -> parent   {"chunks": [...], "start": ..., "wall_s": ..., "results": [...], ...}

For a set-up sample the parent closes stdin without a job, and the worker
exits once it has reported ready.

Times are on the system-wide monotonic clock (time.perf_counter), which the
parent shares.  ``chunks`` are the calibration chunks (see calibrate.py) the
parent needs to convert them to reference seconds.

Requests go back to back through ``scepoly.cli.main(argv)`` with stdout and
stderr captured: a closed loop with one client.  "timed" and "trace" passes
run calibration chunks during the requests as well; a "profile" pass does
not, so that no chunk shows among its frames.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import calibrate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _frame_name(func) -> str:
    path, line, name = func
    if path.startswith(ROOT + os.sep):
        path = os.path.relpath(path, ROOT)
    elif os.sep in path:
        path = os.path.join(*path.split(os.sep)[-2:])
    return f"{path}:{line}({name})"


def _top_frames(profiler, count=10) -> list[dict]:
    import pstats

    stats = pstats.Stats(profiler)
    rows = sorted(stats.stats.items(), key=lambda item: item[1][2], reverse=True)[:count]
    return [
        {"frame": _frame_name(func), "ncalls": nc, "tottime_s": tt, "cumtime_s": ct}
        for func, (cc, nc, tt, ct, callers) in rows
    ]


def serve(cli, job, chunks) -> dict:
    mode = job["mode"]
    tracer = profiler = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    elif mode == "profile":
        import cProfile

        profiler = cProfile.Profile()

    results = []
    speedometer = calibrate.Speedometer(chunks) if mode in ("timed", "trace") else contextlib.nullcontext()
    with speedometer:
        start = time.perf_counter()
        for rid, argv in enumerate(job["requests"], 1):
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    if tracer is not None:
                        code = tracer.run_request(rid, cli.main, argv)
                    elif profiler is not None:
                        code = profiler.runcall(cli.main, argv)
                    else:
                        code = cli.main(argv)
            except Exception:  # a traceback is a failed request, not a dead worker
                code = "exception"
                err.write(traceback.format_exc())
            results.append((code, t0, time.perf_counter() - t0, out.getvalue(), err.getvalue()))
        wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reply = {
        "start": start,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "results": [{"code": c, "t0": t0, "latency_s": t, "out": o, "err": e} for c, t0, t, o, e in results],
    }
    if tracer is not None:
        reply["layers"] = tracer.layer_metrics()
        reply["suites"] = tracer.suite_metrics(cli.VERIFY_SUITES)
        reply["span_count"] = len(tracer.spans)
    if profiler is not None:
        reply["top_frames"] = _top_frames(profiler)
    return reply


def main() -> int:
    proto = sys.stdout
    import mpmath
    import mpmath.libmp
    import scepoly
    import scepoly.cli as cli

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.realpath(scepoly.__file__).startswith(os.path.realpath(src)):
        print(f"scepoly imported from {scepoly.__file__}, not from the checkout", file=sys.stderr)
        return 3
    ready = {
        "ready": True,
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "SCE_MAX_N": os.environ.get("SCE_MAX_N"),
    }
    proto.write(json.dumps(ready) + "\n")
    proto.flush()
    line = sys.stdin.readline()
    if not line:  # a set-up sample: no job
        return 0
    job = json.loads(line)
    chunks: list = []
    calibrate.bracket(chunks)
    reply = serve(cli, job, chunks)
    calibrate.bracket(chunks)
    reply["chunks"] = chunks
    proto.write(json.dumps(reply) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
