"""Command-line front end: seeded, reproducible experiment sweeps to CSV.

Subcommands: decode-sim, analyze, disseminate, cost, validate.  Every run
requires an explicit --seed; per-trial randomness comes from a counter-based
Philox stream keyed by the pair (seed, trial), so reruns are byte-identical,
trials are independent regardless of execution order, and different seeds
never share a trial.  CSVs carry '#'-prefixed metadata lines embedding the
full effective configuration; those whose numbers depend on a random draw
also carry ``stream_version``, which changes whenever the same seed would
give different numbers.  Version 4 changed no draw: the decoder visits a
decoded source's outputs in ascending order, which moves states taken
between stalls (``degree_evolution``) but never a doping or a k_d.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import analytics, costs
from .codec import decode_with_doping, encode_symbols, SourceBlock
from .degrees import ideal_soliton, robust_soliton
from .errors import ConfigError, InvalidParameterError
from .network import (
    NetworkConfig,
    build_network,
    disseminate_degree_one,
    disseminate_degree_two,
    simulate_collection_with_doping,
    storage_listen,
)

_DISSEMINATION = {"d1": "degree_one", "d2": "degree_two_combining"}
_STORAGE = {"coupon": "coupon", "is": "is_combining", "rs": "rs_combining"}
_HOP_MODELS = {"costeq": "eq_costeq", "sec2": "sec2"}

# 2: Philox keyed by the pair (seed, trial), and one stream per storage squad
# 3: codec symbols drawn as a batch (all degrees, then all neighbour rows),
#    and validate criteria no longer share streams
# 4: the decoder visits a decoded source's outputs in ascending order, not in
#    Python's set order; ripple order and mid-peel states move, stalls do not
STREAM_VERSION = 4
# --mc-kd trials draw from streams of their own: this bit, the grid index
# shifted past 32 bits, and the trial
_MC_KD_STREAMS = 1 << 63


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    if value is None:
        return ""
    return str(value)


def write_csv(out_path: str | None, meta: dict, header: list[str], rows: list[dict]) -> str:
    lines = [f"# {key}={_fmt(meta[key])}" for key in sorted(meta)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(row.get(col)) for col in header))
    text = "\n".join(lines) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="\n") as fp:
            fp.write(text)
    return text


def trial_rng(seed: int, stream: int) -> np.random.Generator:
    """Philox keyed by the pair (seed, stream): distinct pairs never share a key."""
    if not 0 <= seed < 2**64:
        raise InvalidParameterError(f"seed {seed} outside 0..2**64-1")
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def parse_delta_grid(spec: str) -> list[float]:
    try:
        a, b, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad delta grid {spec!r}, expected a:b:step") from exc
    if step <= 0 or b < a:
        raise ConfigError(f"bad delta grid {spec!r}: need step > 0 and b >= a")
    n = int((b - a) / step + 1e-9) + 1
    return [round(a + i * step, 12) for i in range(n)]


def load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        values[key] = value.strip()
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squadfountain",
        description="Doped-fountain storage and collection experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key=value file; flags override it")
        p.add_argument("--seed", type=int, help="base RNG seed (required)")
        p.add_argument("--out", help="output CSV path (default stdout)")

    p = sub.add_parser("decode-sim", help="Monte Carlo doped decoding trials")
    common(p)
    p.add_argument("--k", type=int, default=1000)
    p.add_argument("--ks", type=int, help="upfront symbols (default k*(1+delta))")
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--dist", default="is", help="comma list out of {is,rs}")
    p.add_argument("--rs-c", type=float, default=0.1)
    p.add_argument("--rs-delta", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--payload-len", type=int, default=32)
    p.add_argument("--network", action="store_true", help="full network path")
    p.add_argument("--h", type=float, default=200.0)
    p.add_argument("--dissemination", choices=sorted(_DISSEMINATION), default="d1")
    p.add_argument("--storage", choices=sorted(_STORAGE), default="is")
    p.add_argument(
        "--storage-input",
        choices=["degree_one_inputs", "degree_two_inputs"],
        default="degree_one_inputs",
    )
    p.add_argument("--collector", type=int, default=1)

    p = sub.add_parser("analyze", help="analytic doping predictions and yield pmfs")
    common(p)
    p.add_argument("--k", type=int, default=1000)
    p.add_argument("--delta", type=float)
    p.add_argument("--delta-grid", help="a:b:step")
    p.add_argument("--yield-lambda", type=float, help="dump P(Y=t) at this intensity")
    p.add_argument("--t-max", type=int, default=50)

    p = sub.add_parser("disseminate", help="ring dissemination round accounting")
    common(p)
    p.add_argument("--k", type=int, default=7)
    p.add_argument("--dissemination", choices=sorted(_DISSEMINATION), default="d2")
    p.add_argument("--payload-len", type=int, default=32)

    p = sub.add_parser("cost", help="collection-cost curves and strategy tables")
    common(p)
    p.add_argument("--k", type=int, default=2000)
    p.add_argument("--h", default="10,15,30", help="comma list of squad sizes")
    p.add_argument("--delta-grid", default="0:0.06:0.01")
    p.add_argument("--delta", type=float, default=0.0,
                   help="surplus for the doped strategy in the strategy table")
    p.add_argument("--strategies", help="comma list; switches to strategy table")
    p.add_argument("--hop-model", choices=sorted(_HOP_MODELS), default="costeq")
    p.add_argument("--eps-rs", type=float, default=0.5)
    p.add_argument("--mc-kd", action="store_true", help="simulate k_d instead of analytic")
    p.add_argument("--trials", type=int, default=50, help="trials per point for --mc-kd")

    p = sub.add_parser("validate", help="run the acceptance checks")
    common(p)
    p.add_argument("--criterion", help="comma list of criterion names (default all)")
    p.add_argument("--tolerance-scale", type=float, default=1.0)
    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Inject config-file values as parser defaults for the chosen subcommand."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv[1:])
    if not known.config:
        return argv
    values = load_config_file(known.config)
    sub_actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    subparser = sub_actions[0].choices.get(argv[0]) if argv else None
    if subparser is None:
        return argv
    valid = {a.dest for a in subparser._actions}
    for key, value in values.items():
        if key not in valid:
            raise ConfigError(f"unknown config key {key!r}")
    subparser.set_defaults(**values)
    return argv


def _require_seed(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise ConfigError("--seed is required; runs must be reproducible")
    seed = int(args.seed)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"--seed {seed} outside 0..2**64-1")
    return seed


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _dist_for(name: str, k: int, rs_c: float, rs_delta: float):
    if name == "is":
        return ideal_soliton(k)
    if name == "rs":
        return robust_soliton(k, rs_c, rs_delta)
    raise ConfigError(f"unknown distribution {name!r}")


def cmd_decode_sim(args: argparse.Namespace) -> int:
    seed = _require_seed(args)
    k = args.k
    k_s = args.ks if args.ks is not None else round(k * (1.0 + args.delta))
    dists = [d.strip() for d in str(args.dist).split(",") if d.strip()]
    for d in dists:
        if d not in ("is", "rs"):
            raise ConfigError(f"unknown distribution {d!r}")
    header = ["strategy", "trial", "seed", "k", "k_s", "k_d", "p_d"]
    rows: list[dict] = []
    for dist_name in dists:
        kd_values = []
        for trial in range(args.trials):
            rng = trial_rng(seed, trial)
            if args.network:
                cfg = NetworkConfig(
                    k=k,
                    h=args.h,
                    dissemination=_DISSEMINATION[args.dissemination],
                    # the strategy picks the code unless nodes store coupons
                    storage="coupon" if args.storage == "coupon" else _STORAGE[dist_name],
                    storage_combine_input=args.storage_input,
                    rs_c=args.rs_c,
                    rs_delta=args.rs_delta,
                    payload_len=args.payload_len,
                )
                net = build_network(cfg, rng)
                sched = (
                    disseminate_degree_one(net)
                    if cfg.dissemination == "degree_one"
                    else disseminate_degree_two(net)
                )
                storage_listen(net, sched)
                report, _ = simulate_collection_with_doping(net, args.collector, k_s, rng)
            else:
                block = SourceBlock.random(k, args.payload_len, rng)
                dist = _dist_for(dist_name, k, args.rs_c, args.rs_delta)
                symbols = encode_symbols(block, dist, k_s, rng)
                report = decode_with_doping(block, symbols, rng)
            kd_values.append(report.k_d)
            rows.append(
                {
                    "strategy": dist_name,
                    "trial": trial,
                    "seed": seed,
                    "k": k,
                    "k_s": k_s,
                    "k_d": report.k_d,
                    "p_d": 100.0 * report.k_d / k,
                }
            )
        kd = np.asarray(kd_values, dtype=float)
        pd = 100.0 * kd / k
        rows.append(
            {
                "strategy": dist_name,
                "trial": "mean",
                "seed": None,
                "k": k,
                "k_s": k_s,
                "k_d": float(kd.mean()),
                "p_d": float(pd.mean()),
            }
        )
        rows.append(
            {
                "strategy": dist_name,
                "trial": "var",
                "seed": None,
                "k": k,
                "k_s": k_s,
                "k_d": float(kd.var()),
                "p_d": float(pd.var()),
            }
        )
    meta = {
        "command": "decode-sim",
        "k": k,
        "ks": k_s,
        "delta": args.delta,
        "dist": ",".join(dists),
        "rs_c": args.rs_c,
        "rs_delta": args.rs_delta,
        "trials": args.trials,
        "payload_len": args.payload_len,
        "network": args.network,
        "seed": seed,
        "stream_version": STREAM_VERSION,
    }
    if args.network:
        meta.update(
            {
                "h": args.h,
                "dissemination": args.dissemination,
                "storage": "coupon" if args.storage == "coupon" else ",".join(dists),
                "storage_input": args.storage_input,
                "collector": args.collector,
            }
        )
    write_csv(args.out, meta, header, rows)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    seed = _require_seed(args)
    if args.yield_lambda is not None:
        pmf = analytics.interdoping_yield_pmf(args.yield_lambda, args.t_max)
        header = ["t", "prob"]
        rows = [{"t": t, "prob": float(pmf.probs[t])} for t in range(pmf.t_max + 1)]
        meta = {
            "command": "analyze",
            "mode": "yield_pmf",
            "yield_lambda": args.yield_lambda,
            "t_max": args.t_max,
            "tail": pmf.tail,
            "seed": seed,
        }
        write_csv(args.out, meta, header, rows)
        return 0
    if args.delta_grid:
        grid = parse_delta_grid(args.delta_grid)
    elif args.delta is not None:
        grid = [args.delta]
    else:
        grid = [0.0]
    header = ["delta", "predicted_kd", "p_d", "stall_dopings", "uncovered"]
    rows = []
    for delta in grid:
        pred = analytics.expected_dopings(args.k, delta)
        rows.append(
            {
                "delta": delta,
                "predicted_kd": pred.k_d,
                "p_d": pred.p_d,
                "stall_dopings": pred.stall_dopings,
                "uncovered": pred.uncovered,
            }
        )
    meta = {
        "command": "analyze",
        "mode": "expected_dopings",
        "k": args.k,
        "delta_grid": ",".join(_fmt(d) for d in grid),
        "kd_includes_uncovered": True,
        "seed": seed,
    }
    write_csv(args.out, meta, header, rows)
    return 0


def cmd_disseminate(args: argparse.Namespace) -> int:
    seed = _require_seed(args)
    cfg = NetworkConfig(
        k=args.k,
        h=1,
        dissemination=_DISSEMINATION[args.dissemination],
        payload_len=args.payload_len,
    )
    net = build_network(cfg, trial_rng(seed, 0))
    sched = (
        disseminate_degree_one(net)
        if cfg.dissemination == "degree_one"
        else disseminate_degree_two(net)
    )
    verified = sched.verify()
    header = ["relay", "transmissions", "rounds", "verified"]
    rows = [
        {
            "relay": relay,
            "transmissions": len(sched.relay_transmissions(relay)),
            "rounds": sched.rounds,
            "verified": verified,
        }
        for relay in range(1, args.k + 1)
    ]
    meta = {
        "command": "disseminate",
        "k": args.k,
        "dissemination": args.dissemination,
        "payload_len": args.payload_len,
        "rounds": sched.rounds,
        "verified": verified,
        "seed": seed,
        "stream_version": STREAM_VERSION,
    }
    write_csv(args.out, meta, header, rows)
    return 0


def _mc_kd_table(k: int, grid: list[float], trials: int, seed: int) -> dict[float, float]:
    table: dict[float, float] = {}
    dist = ideal_soliton(k)
    for di, delta in enumerate(sorted(grid)):
        k_s = round(k * (1.0 + delta))
        total = 0
        for trial in range(trials):
            rng = trial_rng(seed, _MC_KD_STREAMS | di << 32 | trial)
            block = SourceBlock.random(k, 8, rng)
            report = decode_with_doping(block, encode_symbols(block, dist, k_s, rng), rng)
            total += report.k_d
        table[delta] = total / trials
    return table


def cmd_cost(args: argparse.Namespace) -> int:
    seed = _require_seed(args)
    k = args.k
    hop_model = _HOP_MODELS[args.hop_model]
    h_values = [float(x) for x in str(args.h).split(",") if x]
    grid = parse_delta_grid(args.delta_grid)
    kd_table: dict[float, float] | None = None
    if args.mc_kd:
        kd_table = _mc_kd_table(k, grid, args.trials, seed)
    header = ["strategy", "k", "h", "delta", "k_s", "k_d", "c_T", "c_T_normalized"]
    rows = []

    def emit(point: costs.CostPoint) -> None:
        rows.append(
            {
                "strategy": point.strategy,
                "k": point.k,
                "h": point.h,
                "delta": point.delta,
                "k_s": point.k_s,
                "k_d": point.k_d,
                "c_T": point.c_T,
                "c_T_normalized": point.normalized,
            }
        )

    if args.strategies:
        names = [s.strip() for s in args.strategies.split(",") if s.strip()]
        for h in h_values:
            for name in names:
                override = kd_table.get(args.delta) if kd_table else None
                point = costs.strategy_cost(
                    name, k, h, delta=args.delta, eps_rs=args.eps_rs,
                    k_d_override=override if name == "is_doping" else None,
                    hop_model=hop_model,
                )
                emit(point)
    else:
        for h in h_values:
            for delta in grid:
                override = kd_table.get(delta) if kd_table else None
                emit(
                    costs.strategy_cost(
                        "is_doping",
                        k,
                        h,
                        delta=delta,
                        k_d_override=override,
                        hop_model=hop_model,
                    )
                )
    meta = {
        "command": "cost",
        "k": k,
        "h": args.h,
        "delta_grid": args.delta_grid,
        "strategies": args.strategies,
        "hop_model": args.hop_model,
        "eps_rs": args.eps_rs,
        "mc_kd": args.mc_kd,
        "trials": args.trials,
        "seed": seed,
    }
    if args.mc_kd:
        meta["stream_version"] = STREAM_VERSION
    write_csv(args.out, meta, header, rows)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from . import validation

    seed = _require_seed(args)
    names = list(validation.CRITERIA)
    if args.criterion:
        wanted = [c.strip() for c in args.criterion.split(",") if c.strip()]
        unknown = [c for c in wanted if c not in validation.CRITERIA]
        if unknown:
            raise ConfigError(f"unknown criteria: {', '.join(unknown)}")
        names = wanted
    results = []
    for name in names:
        res = validation.run_criterion(name, seed=seed, tol_scale=args.tolerance_scale)
        print(res.summary_line())
        results.append(res)
    if args.out:
        header = ["criterion", "passed", "measured", "threshold"]
        rows = [
            {
                "criterion": r.name,
                "passed": r.passed,
                "measured": r.measured_text(),
                "threshold": r.threshold_desc,
            }
            for r in results
        ]
        meta = {
            "command": "validate",
            "criteria": ",".join(names),
            "tolerance_scale": args.tolerance_scale,
            "seed": seed,
            "stream_version": STREAM_VERSION,
        }
        write_csv(args.out, meta, header, rows)
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "decode-sim": cmd_decode_sim,
    "analyze": cmd_analyze,
    "disseminate": cmd_disseminate,
    "cost": cmd_cost,
    "validate": cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        # argparse converts config-file strings for typed options, not for flags
        for name in ("network", "mc_kd"):
            if isinstance(getattr(args, name, None), str):
                setattr(args, name, getattr(args, name).lower() in ("1", "true", "yes"))
        return _COMMANDS[args.command](args)
    except (ConfigError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
