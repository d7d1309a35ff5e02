#!/usr/bin/env python3
"""Layered benchmark for scepoly: end-to-end runs and a per-layer traced run.

    python3 bench/run.py --workload {verify,emit,quadrature,all} --seed N
                         --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it builds nothing and imports the
package from the checkout's ``src``.  Workloads, metrics and known defects
are described in bench/README.md.

--trace 0 repeats the workload's fixed request set in fresh worker processes
for about --seconds and reports the end-to-end metrics (medians over passes).
--trace 1 runs one untraced pass, one traced pass (per-layer self times and
counts) and, for verify, one cProfile pass, and reports the per-layer
metrics and the tracing overhead.

Times are reported in reference seconds (see calibrate.py); the raw
wall-clock figures are in the detail line.  Every output is checked.  Stdout
ends with a table, one ``{"detail": ...}`` line, and the result line
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "seed_digests.tsv"

VERIFY_IDENTITIES = 1538  # verify --suite all --max-n 24 at the seed
MIN_LAUNCHES = 40  # setup_s is the median over this many set-up-only workers
MIN_PASSES = 3
DEADLINE_S = 170.0  # the whole run, traced or not, ends well inside 180 s
TAIL_BEYOND = 10  # req_tail_ms: highest percentile with this many samples beyond it

UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "req_p50_ms": "ms",
    "req_tail_ms": "ms", "failed_frac": "ratio", "peak_rss_mb": "MB",
}
# failed_frac is 0 on verify and quadrature, so it travels as the result's
# attempted/failed counts rather than as a bounded metric.
RESULT_METRICS = ("setup_s", "wall_s", "ops_per_s", "req_p50_ms", "req_tail_ms", "peak_rss_mb")
CPU_PINNING = "not pinned: pinning the worker would need machine settings the benchmark may not change"


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "scepoly").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(ready: dict) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": ready["python"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mpmath": ready["mpmath"],
        "mpmath_backend": ready["mpmath_backend"],
        "SCE_MAX_N": ready["SCE_MAX_N"],
        "cpu_pinning": CPU_PINNING,
        "time_unit": f"reference seconds: one calibration chunk = {calibrate.REFERENCE_CHUNK_S} s",
    }


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

class Runner:
    """Launches fresh workers, one pass each, inside the run's deadline."""

    def __init__(self):
        self.start = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), SCE_MAX_N="64", PYTHONHASHSEED="0")
        # Set-up is timed as a user sees it, with bytecode cached after the
        # first launch, whatever the caller's setting.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        # (raw set-up, reference launch, set-up in reference seconds)
        self.setups: list[tuple[float, float, float]] = []
        self.ready: dict | None = None

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def _start(self) -> tuple[subprocess.Popen, float]:
        """Start a worker and wait until it is ready; returns it and the
        seconds from launch to ready."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            cwd=ROOT, env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        if not line:
            err = self._finish(proc, None)[1]
            raise BenchError(f"worker failed to start (exit {proc.returncode}):\n{err.strip()}")
        self.ready = json.loads(line)
        return proc, t1 - t0

    def _finish(self, proc: subprocess.Popen, job: dict | None) -> tuple[str, str]:
        """Send the job (or nothing), close stdin and wait for the worker."""
        try:
            out, err = proc.communicate(
                None if job is None else json.dumps(job) + "\n", timeout=max(1.0, self.remaining())
            )
        except subprocess.TimeoutExpired:
            raise BenchError("worker exceeded the run's deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        return out, err

    def launch(self, job: dict) -> dict:
        """Start a worker, send one job and return the reply, with a
        ``clock`` for the worker's reference seconds."""
        proc, _ = self._start()
        out, err = self._finish(proc, job)
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{err.strip()}")
        reply = json.loads(out)
        reply["clock"] = calibrate.Clock(reply["chunks"])
        return reply

    def sample_setup(self) -> None:
        """One set-up sample: a reference launch, then a worker that is
        timed from launch to ready and sent no job."""
        ref = calibrate.reference_launch()
        proc, raw = self._start()
        self._finish(proc, None)
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode} after set-up")
        self.setups.append((raw, ref, raw * calibrate.REFERENCE_LAUNCH_S / ref))


# ---------------------------------------------------------------------------
# Checking one pass
# ---------------------------------------------------------------------------

class Checker:
    """Checks every output of a pass; a repeated (request, output) pair
    reuses its verdict."""

    def __init__(self, workload: str):
        self.workload = workload
        self.digests = checks.load_digests(DIGESTS)
        self.refs: dict[str, tuple[float, float]] = {}
        self.verdicts: dict[tuple, tuple] = {}

    def reference(self, argv) -> tuple[float, float]:
        """The quadrature reference and its error floor, computed outside any
        timed region."""
        key = workloads.request_key(argv)
        if key not in self.refs:
            self.refs[key] = checks.quadrature_reference(argv)
        return self.refs[key]

    def check(self, requests: list[list[str]], reply: dict) -> dict:
        """Attempted/failed counts, unexpected errors and the completed requests."""
        tally = {"attempted": 0, "failed": 0, "known_defects": {}, "errors": [], "completed": [], "ops": 0, "evals": 0}
        for i, (argv, res) in enumerate(zip(requests, reply["results"])):
            key = (workloads.request_key(argv), res["code"], res["out"], res["err"])
            if key not in self.verdicts:
                self.verdicts[key] = self._verdict(argv, res)
            attempted, failed, known, error, evals = self.verdicts[key]
            tally["attempted"] += attempted
            tally["failed"] += failed
            if known:
                tally["known_defects"][known] = tally["known_defects"].get(known, 0) + 1
            tally["evals"] += evals
            if error:
                tally["errors"].append(f"{workloads.request_key(argv)}: {error}")
            if not failed:
                tally["completed"].append(i)
                tally["ops"] += attempted
        return tally

    def _verdict(self, argv, res):
        """(attempted, failed, known defect or None, error or None, quad evaluations)."""
        code, out, err = res["code"], res["out"], res["err"]
        if self.workload == "verify":
            return self._verify_verdict(argv, code, out)
        if code != 0:
            reference = self.reference(argv) if self.workload == "quadrature" else None
            known = checks.known_defect(argv, code, out, err, reference)
            if known:
                return 1, 1, known, None, 0
            return 1, 1, None, f"exit {code}: {err.strip()[-300:]}", 0
        try:
            evals = 0
            if self.workload == "quadrature":
                evals = checks.check_quadrature_output(argv, out, self.reference(argv))
            else:
                expected = self.digests.get(workloads.request_key(argv))
                if expected is None:
                    raise checks.CheckFailed("no recorded digest for this request")
                if checks.digest(out) != expected:
                    raise checks.CheckFailed("output differs from the seed's")
                if argv[0] == "poly":
                    checks.check_poly_output(argv, out)
                elif argv[0] == "genfunc":
                    checks.check_genfunc_output(argv, out)
        except (checks.CheckFailed, ValueError, KeyError, IndexError) as exc:
            return 1, 1, None, f"wrong output: {exc}", 0
        return 1, 0, None, None, evals

    def _verify_verdict(self, argv, code, out):
        try:
            checked, fail_lines = checks.verify_counts(out)
        except checks.CheckFailed as exc:
            return VERIFY_IDENTITIES, VERIFY_IDENTITIES, None, f"exit {code}: {exc}", 0
        errors = []
        if checked != VERIFY_IDENTITIES:
            errors.append(f"{checked} identities checked, expected {VERIFY_IDENTITIES}")
        if fail_lines:
            errors.append(f"{fail_lines} FAIL lines")
        if code != 0:
            errors.append(f"exit {code}")
        if checks.digest(out) != self.digests.get(workloads.request_key(argv)):
            errors.append("output differs from the seed's")
        failed = checked if (code != 0 and not fail_lines) else fail_lines
        return checked, failed, None, "; ".join(errors) or None, 0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at least
    TAIL_BEYOND samples beyond it, or the maximum when there are too few."""
    s = sorted(samples)
    n = len(s)
    if n > TAIL_BEYOND:
        return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n
    return s[-1], 100.0, n


def pass_times(reply: dict) -> tuple[float, list[float]]:
    """A pass's wall time and per-request latencies, in reference seconds."""
    seconds, start = reply["clock"].reference_seconds, reply["start"]
    latencies = [seconds(r["t0"], r["t0"] + r["latency_s"]) for r in reply["results"]]
    return seconds(start, start + reply["wall_s"]), latencies


def end_to_end(workload: str, passes: list[dict], setups: list[float]) -> tuple[dict, dict]:
    attempted = sum(p["tally"]["attempted"] for p in passes)
    failed = sum(p["tally"]["failed"] for p in passes)
    if workload == "verify":
        lat = [x for p in passes for x in p["latencies"]]
        p50 = statistics.median(lat) if lat else float("nan")
        tail_s, pct, n = tail(lat) if lat else (float("nan"), 100.0, 0)
    else:
        # The median pools every pass's latencies; the tail is per pass, where
        # the request mix, and so what lies beyond the tail, is fixed.
        p50 = statistics.median(x for p in passes for x in p["latencies"])
        tails = [tail(p["latencies"]) for p in passes]
        tail_s = statistics.median(t[0] for t in tails)
        pct, n = tails[0][1], tails[0][2]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "ops_per_s": statistics.median(p["tally"]["ops"] / p["wall_s"] for p in passes),
        "req_p50_ms": p50 * 1000,
        "req_tail_ms": tail_s * 1000,
        "failed_frac": failed / attempted if attempted else 1.0,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    extra = {
        "attempted": attempted,
        "failed": failed,
        "tail_percentile": pct,
        "tail_samples": n,
        "tail_samples_are": "pass latencies pooled" if workload == "verify" else "completed requests of one pass",
    }
    return metrics, extra


def run_timed(workload: str, seed: int, seconds: int) -> tuple[dict, dict, Runner]:
    checker = Checker(workload)
    runner = Runner()
    passes: list[dict] = []
    durations: list[float] = []  # of each pass's worker, from launch to reply
    while True:
        elapsed = sum(durations)
        # Set-up-only launches are spread over the run, in step with the
        # passes, so that setup_s samples the whole run.  Their time, like
        # that of the checks, is not part of the passes' measuring window.
        while len(runner.setups) < MIN_LAUNCHES * min(1.0, elapsed / seconds):
            runner.sample_setup()
        if durations:
            estimate = statistics.median(durations)
            more = elapsed + estimate <= seconds or (len(durations) < MIN_PASSES and elapsed < 2 * seconds)
            if not more or runner.remaining() < 2 * estimate:
                break
        t0 = time.perf_counter()
        requests = workloads.requests(workload, seed, len(passes))
        reply = runner.launch({"mode": "timed", "requests": requests})
        durations.append(time.perf_counter() - t0)
        tally = checker.check(requests, reply)
        wall, latencies = pass_times(reply)
        passes.append(
            {
                "wall_s": wall,
                "raw_wall_s": reply["wall_s"],
                "latencies": [latencies[i] for i in tally["completed"]],
                "peak_rss_mb": reply["peak_rss_mb"],
                "tally": tally,
            }
        )
    while len(runner.setups) < MIN_LAUNCHES:
        runner.sample_setup()
    setups = [s for _, _, s in runner.setups]
    metrics, extra = end_to_end(workload, passes, setups)
    errors = sorted({e for p in passes for e in p["tally"]["errors"]})
    known: dict[str, int] = {}
    for p in passes:
        for cause, count in p["tally"]["known_defects"].items():
            known[cause] = known.get(cause, 0) + count
    detail = {
        "passes": len(passes),
        "setup_samples": len(setups),
        "requests_per_pass": len(requests),
        "closed_loop": "one client, requests back to back, one fresh worker per pass",
        **extra,
        "failed_frac": metrics["failed_frac"],
        "failure_causes": {cause: f"{count} in {len(passes)} passes" for cause, count in known.items()},
        "errors": errors[:20],
        "wall_s_per_pass": [p["wall_s"] for p in passes],
        "req_p50_ms_per_pass": [statistics.median(p["latencies"]) * 1000 for p in passes],
        "raw_wall_s_per_pass": [p["raw_wall_s"] for p in passes],
        "setup_s_per_launch": setups,
        "raw_setup_s_per_launch": [raw for raw, _, _ in runner.setups],
        "reference_launch_s": [ref for _, ref, _ in runner.setups],
    }
    if workload == "quadrature":
        detail["quad_evals_per_pass"] = [p["tally"]["evals"] for p in passes]
    detail["correct"] = not errors
    return metrics, detail, runner


def run_traced(workload: str, seed: int) -> tuple[dict, dict, Runner]:
    requests = workloads.requests(workload, seed)
    checker = Checker(workload)
    runner = Runner()
    plain = runner.launch({"mode": "timed", "requests": requests})
    traced = runner.launch({"mode": "trace", "requests": requests})
    profile = runner.launch({"mode": "profile", "requests": requests}) if workload == "verify" else None
    tallies = [checker.check(requests, r) for r in (plain, traced, profile) if r is not None]
    plain_wall, traced_wall = pass_times(plain)[0], pass_times(traced)[0]
    # Raw to reference seconds for this pass.  Chunks fire on a timer, so
    # their time lands in each layer in proportion to its share of the pass,
    # and this one factor removes it along with the drift.
    scale = traced_wall / traced["wall_s"]
    metrics = {k: v * scale if k.endswith("time_s") else v for k, v in traced["layers"].items()}
    metrics["cli.out_bytes"] = sum(len(r["out"].encode()) for r in traced["results"])
    metrics.update({k: v * scale if k.endswith("time_s") else v for k, v in traced["suites"].items()})
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    errors = sorted({e for t in tallies for e in t["errors"]})
    detail = {
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "raw_untraced_wall_s": plain["wall_s"],
        "raw_traced_wall_s": traced["wall_s"],
        "span_count": traced["span_count"],
        "attempted": sum(t["attempted"] for t in tallies),
        "failed": sum(t["failed"] for t in tallies),
        "errors": errors[:20],
        "top_frames": profile["top_frames"] if profile else None,
        "correct": not errors,
    }
    return metrics, detail, runner


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def print_table(workload: str, seed: int, trace: int, metrics: dict, detail: dict) -> None:
    print(f"== {workload}  seed {seed}  trace {trace} ==")
    if trace:
        for name, value in metrics.items():
            print(f"  {name:32s} {_fmt(value):>14s} {_layer_unit(name)}")
        for row in detail["top_frames"] or []:
            print(f"  top frame {row['tottime_s']:9.4f} s self  {row['ncalls']:>9} calls  {row['frame']}")
    else:
        for name, unit in UNITS.items():
            note = ""
            if name == "req_tail_ms":
                note = (f"  (p{detail['tail_percentile']:.1f} of {detail['tail_samples']} samples: "
                        f"{detail['tail_samples_are']})")
            if name == "failed_frac" and detail["failure_causes"]:
                note = "  (" + "; ".join(f"{c}: {n}" for c, n in detail["failure_causes"].items()) + ")"
            print(f"  {name:12s} {_fmt(metrics[name]):>14s} {unit:6s}{note}")
        print(f"  passes {detail['passes']}, set-up samples {detail['setup_samples']}, "
              f"{detail['requests_per_pass']} requests per pass")
    for error in detail["errors"]:
        print(f"  ERROR {error}")


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    if trace:
        metrics, detail, runner = run_traced(workload, seed)
        result_metrics = metrics
        units = {name: _layer_unit(name) for name in metrics}
    else:
        metrics, detail, runner = run_timed(workload, seed, seconds)
        result_metrics = {name: metrics[name] for name in RESULT_METRICS}
        units = UNITS
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              **detail, "env": environment(runner.ready)}
    if not trace:
        detail["end_to_end"] = {name: {"value": metrics[name], "unit": UNITS[name]} for name in UNITS}
    print_table(workload, seed, trace, metrics, detail)
    return {
        "detail": detail,
        "result": {
            "correct": detail["correct"],
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": {name: {"value": v, "unit": units[name]} for name, v in result_metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "scepoly" / "cli.py").is_file():
        print(f"error: no scepoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_one(name, args.seed, args.seconds, args.trace) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print(json.dumps({"detail": record["detail"]}))
    if args.workload == "all":
        print(json.dumps({r["detail"]["workload"]: r["result"] for r in records}))
    else:
        print(json.dumps(records[0]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
