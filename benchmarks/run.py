"""squadfountain benchmark: seeded workloads, closed loop, one process, one thread.

    python3 benchmarks/run.py --workload codec_mc --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 35

One run measures one workload: it times ops back to back for ``--seconds``
and checks every op.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` each op runs untraced and traced on
the same seed, and the line carries the per-layer metrics and the tracing
overhead.  A full record (environment, metrics, spans when traced) goes to
``benchmarks/results/``.  ``--workload all`` runs each workload in its own
process and prints one table.  The exit code is non-zero when any op or
check failed.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS; children inherit it

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "squadfountain").is_dir():
    sys.exit(f"{ROOT} holds no src/squadfountain to benchmark")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RESULTS = HERE / "results"
SETUP_PROBES = 3  # set-up is measured this many times, in fresh processes
CLI_TRIALS = 2  # leading trials compared with decode-sim
REF_CAL_S = 0.005  # calibrate() on the host's fast state; times are scaled to it

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_s_p50": "s", "op_s_p90": "s",
    "peak_rss_mb": "MB", "ok_frac": "ratio",
}
SPANS = (
    "codec.block", "codec.encode", "codec.init", "codec.peel", "codec.dope",
    "network.build", "network.listen", "network.collect",
    "analytics.expected_dopings", "analytics.yield_pmf", "analytics.matrix",
    "analytics.walk_mc", "costs.minimize",
)
COUNTS = (
    "codec.symbols", "codec.edges", "codec.peel_steps", "codec.dopings",
    "codec.dopings_fallback", "codec.releases", "codec.defected",
    "network.symbols_collected", "network.squads_drained", "analytics.schedule_rounds",
)
LAYERS = ("degrees", "codec", "network", "analytics", "costs")


def environment(seed: int) -> dict:
    try:
        with open("/proc/cpuinfo") as fp:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fp
                        if ln.startswith("model name")), None)
    except OSError:
        cpu = None
    try:
        commit = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # not a git checkout
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": commit,
        "seed": seed,
    }


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python kernel of dict churn and big-int XOR.

    The shared host flips, within seconds, between a fast state and one about
    1.7 times slower, and the share of slow time differs from run to run.
    The kernel slows down with the ops, so an op time multiplied by
    REF_CAL_S / (calibration around the op) is the op's time at the fast
    state, and it compares across runs.
    """
    start = time.perf_counter()
    acc, table = 0, {}
    for j in range(20_000):
        table[j & 1023] = j * 2654435761 % 1_000_003
        acc ^= table[j & 1023] << (j % 64)
    len(set(table.values()))
    return time.perf_counter() - start


def setup_samples(args) -> list[tuple[float, float]]:
    """(seconds from process start to first op ready, scale), each from a
    fresh interpreter; the scale comes from calibrations just before and after."""
    out = []
    for _ in range(SETUP_PROBES):
        before = calibrate()
        launched = time.time()
        res = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed",
             str(args.seed), "--setup-probe", repr(launched)],
            capture_output=True, text=True, timeout=170, check=True,
        )
        ready = float(res.stdout.split()[-1])
        out.append((ready, 2.0 * REF_CAL_S / (before + calibrate())))
    return out


def timed(fn, i: int):
    start = time.perf_counter()
    out = fn(i)
    return out, time.perf_counter() - start


def measure(wl, seconds: float, tr: Tracer | None) -> dict:
    """Closed loop until ``seconds`` pass, calibrating between ops.

    Traced, each op runs plain and then traced.  ``scale[i]`` is REF_CAL_S
    over the mean of the calibrations just before and just after op i.
    """
    plain_s, traced_s, scale, kds, failed = [], [], [], [], 0
    before = calibrate()
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        try:
            out, dt = timed(wl.run, i)
            if tr is not None:
                tr.op = i
                out_t, dt_t = timed(lambda j: wl.run_traced(j, tr), i)
                tr.op = None
            after = calibrate()
            ok = wl.check(out)
            if tr is not None:
                ok = ok and wl.check(out_t) and wl.kd(out_t) == wl.kd(out)
                traced_s.append(dt_t)
            plain_s.append(dt)
            scale.append(2.0 * REF_CAL_S / (before + after))
            kds.append(wl.kd(out))
            before = after
        except Exception:  # an op that raises is a failed op; keep measuring
            traceback.print_exc(file=sys.stderr)
            ok = False
        failed += not ok
        i += 1
    return {"attempted": i, "failed": failed, "plain_s": plain_s,
            "traced_s": traced_s, "scale": scale, "kd": kds}


def cli_matches(wl, kds: list) -> bool | None:
    """The first trials' k_d equal decode-sim's for the same seed."""
    n = min(CLI_TRIALS, len(kds))
    if n == 0:
        return False
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        want = wl.cli_kd(n, Path(tmp))
    if want is None:
        return None  # no CLI path to compare with
    got = {label: [kd[label] for kd in kds[:n]] for label in want}
    return got == want


def end_to_end(res: dict, scale: list[float]) -> dict:
    times = [t * f for t, f in zip(res["plain_s"], scale)]
    return {
        "ops_per_s": len(times) / sum(times),
        "op_s_p50": statistics.median(times),
        "op_s_p90": float(np.percentile(times, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - res["failed"] / res["attempted"],
    }


def per_layer(res: dict, tr: Tracer, scale: list[float]) -> dict:
    """Mean per traced op, except set-up time and error totals.

    Op times take their own scale, span times the run's mean scale.
    """
    n = len(res["traced_s"])
    mean_scale = statistics.fmean(scale)
    busy = tr.busy()
    c = tr.counts
    set_up = tr.busy(setup=True).get("degrees.dist_build", 0.0)
    metrics = {"degrees.dist_build_s": mean_scale * set_up}
    metrics.update({f"{name}_s": mean_scale * busy.get(name, 0.0) / n for name in SPANS})
    metrics.update({name: c[name] / n for name in COUNTS})
    spent = c["codec.releases"] + c["codec.defected"]
    metrics["codec.release_useful_frac"] = c["codec.releases"] / spent if spent else 0.0
    metrics.update({f"{layer}.errors": c[f"{layer}.errors"] for layer in LAYERS})
    traced = sum(t * g for t, g in zip(res["traced_s"], scale))
    metrics["trace.op_s"] = traced / n
    metrics["trace.overhead"] = sum(t * g for t, g in zip(res["plain_s"], scale)) / traced
    return metrics


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("_frac", "overhead")) else "count"


def run_one(args) -> int:
    tr = Tracer()
    wl = WORKLOADS[args.workload](args.seed, tr)
    if args.setup_probe is not None:
        wl.run(0)
        print(time.time() - args.setup_probe)
        return 0
    setup = [] if args.trace else setup_samples(args)
    wl.run(0)  # warm-up, untimed
    if args.trace:
        wl.run_traced(0, tr)
        tr.counts.clear()
    res = measure(wl, args.seconds, tr if args.trace else None)
    cli_ok = cli_matches(wl, res["kd"])

    def summarize(scale):
        return per_layer(res, tr, scale) if args.trace else end_to_end(res, scale)

    metrics, raw = summarize(res["scale"]), summarize([1.0] * len(res["scale"]))
    if setup:
        metrics["setup_s"] = statistics.median(t * f for t, f in setup)
        raw["setup_s"] = statistics.median(t for t, _ in setup)
    correct = res["failed"] == 0 and cli_ok is not False
    env = environment(args.seed)
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "env": env, "correct": correct, "attempted": res["attempted"],
        "failed": res["failed"], "cli_equivalent": cli_ok, "setup_samples_s": setup,
        "mean_scale": statistics.fmean(res["scale"]), "unscaled_metrics": raw,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if args.trace:
        tr.write(path, record)
    else:
        path.write_text(json.dumps(record, indent=1))
    print("env " + json.dumps(env))
    for name, m in record["metrics"].items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; one table of what they print."""
    rows, code = {}, 0
    for name in WORKLOADS:
        res = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        code = max(code, res.returncode)
        lines = res.stdout.strip().splitlines()
        rows[name] = json.loads(lines[-1]) if lines else None
        if res.returncode:
            sys.stderr.write(res.stderr)
    names = next((r["metrics"] for r in rows.values() if r), {})
    print(f"{'metric':34s} {'unit':6s}" + "".join(f" {w:>14s}" for w in rows))
    for name in names:
        cells = "".join(
            f" {r['metrics'][name]['value']:14.6g}" if r else f" {'-':>14s}"
            for r in rows.values()
        )
        print(f"{name:34s} {unit(name):6s}{cells}")
    cells = "".join(f" {r['failed'] / r['attempted']:14.6g}" if r else f" {'-':>14s}"
                    for r in rows.values())
    print(f"{'fail_frac':34s} {'ratio':6s}{cells}")
    return code


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
