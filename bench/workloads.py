"""Seeded request sets for the three benchmark workloads.

Each pass of a run sends a fixed list of CLI argument vectors, built from
the run's seed and the pass's index alone.  The sets are stratified: the
seed picks values inside fixed strata (which format goes with which index,
which rate, which bounds, the order of requests), while the amount of work
of each kind stays the same.  Different passes draw different sets, so a
run's medians average over several draws; that keeps end-to-end figures
comparable across seeds.
"""

from __future__ import annotations

import random

WORKLOADS = ("verify", "emit", "quadrature")

# verify --suite all at this index: about 1,500 identities, dominated by
# bignum Fraction work, a few seconds per pass at the seed.
VERIFY_MAX_N = 24

FORMATS = ("text", "latex", "json", "csv")
POLY_FAMILIES = ("e", "s", "c", "shat", "chat", "em")
POLY_MAX_N = 40  # poly and integrate indices run over 0..POLY_MAX_N-1

# Rates are passed as the README shows them, "--m VALUE".  "-5/3" is a
# negative non-integer, which argparse reads as an option: the request exits
# 2.  That is a known defect of the CLI and counts as a failed request.
RATES = ("2", "3", "-1", "-2", "1/2", "3/4", "5/3", "-5/3")

GENFUNC_EM_ORDER = 20
# One request each for families e, s and c: twelve high-order requests, so
# that with the cap request the ten latencies beyond req_tail_ms, and the
# tail itself, are all high-order genfunc requests.
GENFUNC_TAIL_ORDERS = (32, 36, 40, 44)
GENFUNC_CAP_ORDER = 64  # the default SCE_MAX_N cap

QUAD_COMBOS = (("sin", None), ("cos", None), ("exp", "1"), ("exp", "2"), ("exp", "-1"))
QUAD_MAX_N = 12
QUAD_WIDTHS = ((0.5, 10.0), (10.0, 20.0))
QUAD_LO, QUAD_HI = -10.0, 10.0


def requests(workload: str, seed: int, pass_index: int = 0) -> list[list[str]]:
    """The request set of one pass of a workload."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload == "verify":
        return [verify_request()]
    if workload == "emit":
        return _emit(rng)
    if workload == "quadrature":
        return _quadrature(rng)
    raise ValueError(f"unknown workload {workload!r}")


def verify_request() -> list[str]:
    return ["verify", "--suite", "all", "--max-n", str(VERIFY_MAX_N)]


def _with_rate(argv: list[str], rate: str | None) -> list[str]:
    return argv if rate is None else argv + ["--m", rate]


def _rate_cycle(rng: random.Random, count: int) -> list[str]:
    """count rates, each of RATES equally often, in seeded order."""
    if count % len(RATES):
        raise ValueError("rate strata must be a multiple of len(RATES)")
    rates = list(RATES) * (count // len(RATES))
    rng.shuffle(rates)
    return rates


def _emit(rng: random.Random) -> list[list[str]]:
    reqs: list[list[str]] = []
    # poly: every (family, n) once; within each block of four consecutive n
    # the four formats are a seeded permutation.
    em_rates = iter(_rate_cycle(rng, POLY_MAX_N))
    for family in POLY_FAMILIES:
        for base in range(0, POLY_MAX_N, len(FORMATS)):
            for i, fmt in enumerate(rng.sample(FORMATS, len(FORMATS))):
                argv = ["poly", family, "--n", str(base + i), "--format", fmt]
                reqs.append(_with_rate(argv, next(em_rates) if family == "em" else None))
    # integrate, closed-form text: sin and cos split each pair (2j, 2j+1)
    # between them; exp takes every n once with a cycled rate.
    for j in range(0, POLY_MAX_N, 2):
        pair = rng.sample((j, j + 1), 2)
        reqs.append(["integrate", "--kind", "sin", "--n", str(pair[0])])
        reqs.append(["integrate", "--kind", "cos", "--n", str(pair[1])])
    exp_rates = _rate_cycle(rng, POLY_MAX_N)
    for n in range(POLY_MAX_N):
        reqs.append(["integrate", "--kind", "exp", "--n", str(n), "--m", exp_rates[n]])
    # genfunc: the seeded minority that sets the latency tail.  em at a low
    # order covers the rates; the high orders set the tail.
    gf_formats = list(FORMATS) * 2
    rng.shuffle(gf_formats)
    for rate, fmt in zip(_rate_cycle(rng, len(RATES)), gf_formats):
        argv = ["genfunc", "--family", "em", "--order", str(GENFUNC_EM_ORDER), "--format", fmt]
        reqs.append(argv + ["--m", rate])
    for family in ("e", "s", "c"):
        for order in GENFUNC_TAIL_ORDERS:
            reqs.append(
                ["genfunc", "--family", family, "--order", str(order), "--format", rng.choice(FORMATS)]
            )
    # s and c cost the same at the cap; e costs twice as much.
    reqs.append(
        [
            "genfunc", "--family", rng.choice(("s", "c")),
            "--order", str(GENFUNC_CAP_ORDER), "--format", rng.choice(FORMATS),
        ]
    )
    rng.shuffle(reqs)
    return reqs


def _quadrature(rng: random.Random) -> list[list[str]]:
    reqs = []
    for kind, rate in QUAD_COMBOS:
        for n in range(QUAD_MAX_N + 1):
            for lo_w, hi_w in QUAD_WIDTHS:
                width = rng.uniform(lo_w, hi_w)
                a = round(rng.uniform(QUAD_LO, QUAD_HI - width), 4)
                b = round(a + width, 4)
                argv = ["integrate", "--kind", kind, "--n", str(n), "--a", repr(a), "--b", repr(b), "--check"]
                reqs.append(_with_rate(argv, rate))
    rng.shuffle(reqs)
    return reqs


def emit_universe() -> list[list[str]]:
    """Every request any seed's emit set can hold (for the digest table)."""
    out = []
    for family in POLY_FAMILIES:
        for n in range(POLY_MAX_N):
            for fmt in FORMATS:
                argv = ["poly", family, "--n", str(n), "--format", fmt]
                if family == "em":
                    out.extend(argv + ["--m", r] for r in RATES)
                else:
                    out.append(argv)
    for n in range(POLY_MAX_N):
        out.append(["integrate", "--kind", "sin", "--n", str(n)])
        out.append(["integrate", "--kind", "cos", "--n", str(n)])
        out.extend(["integrate", "--kind", "exp", "--n", str(n), "--m", r] for r in RATES)
    for fmt in FORMATS:
        for r in RATES:
            out.append(["genfunc", "--family", "em", "--order", str(GENFUNC_EM_ORDER), "--format", fmt, "--m", r])
        for family in ("e", "s", "c"):
            for order in GENFUNC_TAIL_ORDERS:
                out.append(["genfunc", "--family", family, "--order", str(order), "--format", fmt])
        for family in ("s", "c"):
            out.append(["genfunc", "--family", family, "--order", str(GENFUNC_CAP_ORDER), "--format", fmt])
    return out


def request_key(argv: list[str]) -> str:
    return " ".join(argv)
