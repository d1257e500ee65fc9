"""Command-line front end: seeded, reproducible experiment sweeps to CSV.

Subcommands: decode-sim, analyze, disseminate, cost, validate.  Every run
requires an explicit --seed; per-trial randomness comes from a counter-based
Philox stream keyed by the pair (seed, trial), so reruns are byte-identical,
trials are independent regardless of execution order, and different seeds
never share a trial.  The key=value pairs of a --config file are parsed as
the flags --key=value ahead of the command line's own, so one parser checks
both, and any bad argument is one ``error:`` line and exit status 2.  CSVs
carry '#'-prefixed metadata lines embedding the full effective
configuration; those whose numbers depend on a random draw also carry
``stream_version``, which changes whenever the same seed would give
different numbers.
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys
from collections.abc import Iterable
from contextlib import nullcontext
from pathlib import Path

from . import analytics, codec, costs
from .degrees import ideal_soliton, robust_soliton
from .errors import ConfigError, ExhaustedNetworkError, InvalidParameterError
from .network import NetworkConfig, TransmissionSchedule, network_trial

trial_rng = codec.trial_rng  # no command here draws through it; benchmarks/workloads.py does
_DISSEMINATION = {"d1": "degree_one", "d2": "degree_two_combining"}
_STORAGE = {"coupon": "coupon", "is": "is_combining", "rs": "rs_combining"}
_HOP_MODELS = {"costeq": "eq_costeq", "sec2": "sec2"}
# the network flags --network reads, with their defaults; decode-sim refuses them without it
_NETWORK_FLAGS = dict(h=200.0, dissemination="d1", storage_input="degree_one_inputs", collector=1)
# the Robust Soliton flags, read only where some code stored or decoded is rs
_RS_FLAGS = dict(rs_c=0.1, rs_delta=0.5)

# 2: Philox keyed by the pair (seed, trial), and one stream per storage squad
# 3: codec symbols drawn as a batch (all degrees, then all neighbour rows),
#    and validate criteria no longer share streams
# 4: the decoder visits a decoded source's outputs in ascending order, not in
#    Python's set order; ripple order and mid-peel states move, stalls do not
# 5: ripple-walk Monte Carlo draws per-size multinomial counts
# 6: the Philox key is two uint64 words, so seeds of 2**63 and more keep
#    their low bits; cost --mc-kd runs decode-sim's codec trials
STREAM_VERSION = 6


def fmt(value, digits: int = 9) -> str:
    """A CSV or report field: true/false, floats to ``digits`` significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    if value is None:
        return ""
    return str(value)


def write_csv(out_path: str | None, meta: dict, header: list[str], rows: Iterable[tuple]) -> None:
    """Stream ``#`` metadata lines sorted by key, the header, then each row's
    values in header order, to the file or stdout; a field holding a comma
    is quoted."""
    to_stdout = out_path is None or out_path == "-"
    with nullcontext(sys.stdout) if to_stdout else open(out_path, "w", newline="\n") as fp:
        fp.writelines(f"# {key}={fmt(meta[key])}\n" for key in sorted(meta))
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(fmt, row) for row in rows)


_MAX_GRID_POINTS = 100_000


def parse_delta_grid(spec: str) -> list[float]:
    try:
        a, b, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad delta grid {spec!r}, expected a:b:step") from exc
    if not all(map(math.isfinite, (a, b, step))):
        raise ConfigError(f"bad delta grid {spec!r}: values must be finite")
    if step <= 0 or b < a:
        raise ConfigError(f"bad delta grid {spec!r}: need step > 0 and b >= a")
    span = (b - a) / step + 1e-9  # checked before int(), which fails on inf
    if span >= _MAX_GRID_POINTS:
        raise ConfigError(f"bad delta grid {spec!r}: more than {_MAX_GRID_POINTS} points")
    n = int(span) + 1
    grid = [round(a + i * step, 12) for i in range(n)]
    if len(set(grid)) < n:
        raise ConfigError(f"bad delta grid {spec!r}: points repeat at 12 decimals")
    return grid


def _comma_list(flag: str, spec: str, known=None) -> list[str]:
    """The stripped names of a comma list; none, a repeated one, or one
    outside ``known`` is a ConfigError."""
    names = [name.strip() for name in spec.split(",") if name.strip()]
    if not names:
        raise ConfigError(f"{flag} {spec!r} names nothing")
    if len(set(names)) < len(names):
        raise ConfigError(f"{flag} {spec!r} repeats an entry")
    unknown = [name for name in names if known is not None and name not in known]
    if unknown:
        raise ConfigError(f"{flag}: unknown {', '.join(unknown)}")
    return names


def _unread(mode: str, args: argparse.Namespace, *dests: str) -> None:
    """Reject the flags among ``dests`` that were given, as ``mode`` reads none."""
    given = ["--" + dest.replace("_", "-") for dest in dests if getattr(args, dest) is not None]
    if given:
        raise ConfigError(f"{mode} reads no {', '.join(given)}")


def load_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        values[key] = value
    return values


class _Parser(argparse.ArgumentParser):
    """Flags are spelled in full, and a bad argument raises ConfigError, so
    main reports it in one line whether a flag or a config pair gave it.  An
    argument that starts with a minus and a digit is a value, not a flag:
    argparse's own pattern takes no exponent and read ``-1e-2`` as a flag."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message: str):
        raise ConfigError(message.removeprefix("argument "))


def _typed(parse, what: str, ok=lambda value: True):
    """An argparse type: ``parse(text)``, refused when that raises ValueError,
    gives None or fails ``ok``."""

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value

    return convert


_SWITCH = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_switch = _typed(lambda text: _SWITCH.get(text.lower()), "true/false, 1/0 or yes/no")
_seed = _typed(int, "an integer in 0..2**64-1", lambda seed: 0 <= seed < 2**64)
_finite = _typed(float, "a finite number", math.isfinite)
# disseminate's verify takes time k**2 (--k 10000: 5-9 s, 55-77 MB on a 2-core host)
_ring = _typed(int, "an integer of at most 10000", lambda k: k <= 10_000)
# one codec trial at k = k_s = 300,000 peaks near 300 MB and takes 2-3 s on that host;
# analyze --k and --t-max at the bound take 1.4 s / 177 MB and 4.2-4.7 s / 162 MB there
_MAX_SYMBOLS = 2_000_000
_sources = _typed(int, f"an integer of at most {_MAX_SYMBOLS}", lambda k: k <= _MAX_SYMBOLS)
_trials = _typed(int, "an integer in 1..1000000", lambda n: 1 <= n <= 1_000_000)
_payload = _typed(int, "an integer of at most 1024", lambda n: n <= 1024)


def _upfront(count: float) -> int:
    """``round(count)`` upfront symbols, refused outside 0..2000000 before any draw."""
    if not 0 <= count <= _MAX_SYMBOLS:
        raise ConfigError(f"k_s must lie in 0..{_MAX_SYMBOLS} upfront symbols, not {fmt(count)}")
    return round(count)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="squadfountain",
        description="Doped-fountain storage and collection experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key=value file; flags override it")
        p.add_argument("--seed", type=_seed, required=True, help="base RNG seed")
        p.add_argument("--out", help="output CSV path (default stdout)")

    p = sub.add_parser("decode-sim", help="Monte Carlo doped decoding trials")
    common(p)
    p.set_defaults(run=cmd_decode_sim)
    p.add_argument("--k", type=_sources, default=1000, help="sources, at most 2000000")
    p.add_argument("--ks", type=int, help="upfront symbols, at most 2000000 (default k(1+delta))")
    p.add_argument("--delta", type=_finite, help="surplus (default 0); not with --ks")
    p.add_argument("--dist", default="is", help="comma list out of {is,rs}")
    p.add_argument("--rs-c", type=float, help="default 0.1; only with an rs code")
    p.add_argument("--rs-delta", type=float, help="default 0.5; only with an rs code")
    p.add_argument("--trials", type=_trials, default=100, help="1..1000000")
    p.add_argument("--payload-len", type=_payload, default=32, help="bytes, at most 1024")
    p.add_argument("--network", nargs="?", const=True, default=False, type=_switch,
                   help="full network path; the flags below need it")
    p.add_argument("--h", type=float, help="nodes per squad (default 200)")
    p.add_argument("--dissemination", choices=sorted(_DISSEMINATION), help="default d1")
    p.add_argument("--storage", choices=sorted(_STORAGE),
                   help="default: each strategy stores its own code")
    p.add_argument("--storage-input", choices=["degree_one_inputs", "degree_two_inputs"],
                   help="default degree_one_inputs")
    p.add_argument("--collector", type=int, help="default 1")

    p = sub.add_parser("analyze", help="analytic doping predictions and yield pmfs")
    common(p)
    p.set_defaults(run=cmd_analyze)
    p.add_argument("--k", type=_sources,
                   help="default 1000, at most 2000000; not with --yield-lambda")
    p.add_argument("--delta", type=_finite)
    p.add_argument("--delta-grid", help="a:b:step")
    p.add_argument("--yield-lambda", type=float, help="dump P(Y=t) at this intensity")
    p.add_argument("--t-max", type=_sources,
                   help="default 50, at most 2000000; only with --yield-lambda")

    p = sub.add_parser("disseminate", help="ring dissemination round accounting")
    common(p)
    p.set_defaults(run=cmd_disseminate)
    p.add_argument("--k", type=_ring, default=7, help="ring size, at most 10000")
    p.add_argument("--dissemination", choices=sorted(_DISSEMINATION), default="d2")

    p = sub.add_parser("cost", help="collection-cost curves and strategy tables")
    common(p)
    p.set_defaults(run=cmd_cost)
    p.add_argument("--k", type=_sources, default=2000, help="at most 2000000")
    p.add_argument("--h", default="10,15,30", help="comma list of squad sizes")
    p.add_argument("--delta-grid", help="a:b:step of the cost curve (default 0:0.06:0.01)")
    p.add_argument("--delta", type=_finite,
                   help="surplus for the doped strategy in the strategy table (default 0)")
    p.add_argument("--strategies", help="comma list; switches to strategy table")
    p.add_argument("--hop-model", choices=sorted(_HOP_MODELS), default="costeq")
    p.add_argument("--eps-rs", type=float,
                   help="default 0.5; only with --strategies naming rs_no_doping")
    p.add_argument("--mc-kd", nargs="?", const=True, default=False, type=_switch,
                   help="simulate k_d instead of analytic")
    p.add_argument("--trials", type=_trials, help="per --mc-kd point, 1..1000000 (default 50)")

    p = sub.add_parser("validate", help="run the acceptance checks")
    common(p)
    p.set_defaults(run=cmd_validate)
    p.add_argument("--criterion", help="comma list of criterion names (default all)")
    return parser


def _with_config(argv: list[str]) -> list[str]:
    """argv with each pair of the --config file as a ``--key=value`` flag
    right after the subcommand, so the parser checks both sources alike and
    flags given on the command line win."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    pairs = load_config_file(path)
    if "config" in pairs:
        raise ConfigError(f"{path}: a config file cannot name another (config={pairs['config']})")
    return [*argv[:1], *(f"--{key.replace('_', '-')}={value}" for key, value in pairs.items()),
            *argv[1:]]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


# A command returns its exit code and its table, (meta, header, rows) with
# each row's values in header order; main adds command and seed to meta.
Table = tuple[dict, list[str], Iterable[tuple]]


def cmd_decode_sim(args: argparse.Namespace) -> tuple[int, Table]:
    k = args.k
    if args.ks is not None:
        _unread("decode-sim --ks", args, "delta")
    delta = 0.0 if args.delta is None else args.delta
    k_s = _upfront(args.ks if args.ks is not None else k * (1.0 + delta))
    if not args.network:
        _unread("decode-sim without --network", args, *_NETWORK_FLAGS, "storage")
    dists = _comma_list("--dist", args.dist, ("is", "rs"))
    coupon = args.network and args.storage == "coupon"
    if coupon or "rs" not in dists:
        _unread("decode-sim --storage coupon" if coupon else "decode-sim without --dist rs",
                args, *_RS_FLAGS)
    vars(args).update({dest: value for dest, value in (_NETWORK_FLAGS | _RS_FLAGS).items()
                       if getattr(args, dest) is None})
    if coupon and len(dists) > 1:
        raise ConfigError("--storage coupon stores single packets whatever the code; "
                          f"give one --dist, not {args.dist!r}")
    if args.network and args.storage in ("is", "rs") and set(dists) != {args.storage}:
        raise ConfigError(f"--storage {args.storage} stores the {args.storage} code, but "
                          f"--dist {args.dist!r} runs another; leave --storage unset")
    rows: list[tuple] = []
    trials = range(args.trials)
    for dist_name in dists:
        if args.network:
            cfg = NetworkConfig(
                k=k,
                h=args.h,
                dissemination=_DISSEMINATION[args.dissemination],
                # the strategy picks the code unless nodes store coupons
                storage="coupon" if coupon else _STORAGE[dist_name],
                storage_combine_input=args.storage_input,
                rs_c=args.rs_c,
                rs_delta=args.rs_delta,
                payload_len=args.payload_len,
            )
            sample = (network_trial(args.seed, t, cfg, args.collector, k_s) for t in trials)
        else:
            dist = (ideal_soliton(k) if dist_name == "is"
                    else robust_soliton(k, args.rs_c, args.rs_delta))
            sample = (codec.codec_trial(args.seed, t, dist, k_s, args.payload_len)
                      for t in trials)
        kd_values = codec.dopings(sample)
        kd = kd_values.astype(float)
        pd = 100.0 * kd / k
        rows += [
            (dist_name, trial, trial_seed, k, k_s, k_d, p_d)
            for trial, trial_seed, k_d, p_d in (
                *((t, args.seed, v, 100.0 * v / k) for t, v in enumerate(kd_values.tolist())),
                ("mean", None, float(kd.mean()), float(pd.mean())),
                ("var", None, float(kd.var()), float(pd.var())),
            )
        ]
    meta = {
        "k": k,
        "ks": k_s,
        "delta": delta,
        "dist": ",".join(dists),
        "rs_c": args.rs_c,
        "rs_delta": args.rs_delta,
        "trials": args.trials,
        "payload_len": args.payload_len,
        "network": args.network,
        "stream_version": STREAM_VERSION,
    }
    if args.network:
        meta |= {"h": args.h, "dissemination": args.dissemination,
                 "storage": "coupon" if coupon else ",".join(dists),
                 "storage_input": args.storage_input, "collector": args.collector}
    return 0, (meta, ["strategy", "trial", "seed", "k", "k_s", "k_d", "p_d"], rows)


def cmd_analyze(args: argparse.Namespace) -> tuple[int, Table]:
    if args.yield_lambda is not None:
        _unread("analyze --yield-lambda", args, "k", "delta", "delta_grid")
        t_max = 50 if args.t_max is None else args.t_max
        pmf = analytics.interdoping_yield_pmf(args.yield_lambda, t_max)
        meta = {"mode": "yield_pmf", "yield_lambda": args.yield_lambda, "t_max": t_max,
                "tail": pmf.tail}
        return 0, (meta, ["t", "prob"], enumerate(pmf.probs.tolist()))
    _unread("analyze without --yield-lambda", args, "t_max")
    if args.delta_grid is not None:
        _unread("analyze --delta-grid", args, "delta")
        grid = parse_delta_grid(args.delta_grid)
    else:
        grid = [0.0 if args.delta is None else args.delta]
    k = 1000 if args.k is None else args.k
    rows = [
        (delta, pred.k_d, pred.p_d, pred.stall_dopings, pred.uncovered)
        for delta, pred in analytics.doping_table(k, grid).items()
    ]
    meta = {
        "mode": "expected_dopings",
        "k": k,
        "delta_grid": ",".join(fmt(d) for d in grid),
        "kd_includes_uncovered": True,
    }
    return 0, (meta, ["delta", "predicted_kd", "p_d", "stall_dopings", "uncovered"], rows)


def cmd_disseminate(args: argparse.Namespace) -> tuple[int, Table]:
    cfg = NetworkConfig(k=args.k, h=1, dissemination=_DISSEMINATION[args.dissemination])
    sched = TransmissionSchedule(cfg.dissemination, cfg.k)  # names only: nothing is drawn
    verified = sched.verify()
    rows = [(relay, sched.per_relay, sched.rounds, verified) for relay in range(1, args.k + 1)]
    meta = {"k": args.k, "dissemination": args.dissemination, "rounds": sched.rounds,
            "verified": verified}
    return 0, (meta, ["relay", "transmissions", "rounds", "verified"], rows)


def cmd_cost(args: argparse.Namespace) -> tuple[int, Table]:
    k = args.k
    hop_model = _HOP_MODELS[args.hop_model]
    try:
        h_values = [float(x) for x in _comma_list("--h", args.h)]
    except ValueError as exc:
        raise ConfigError(f"bad --h list {args.h!r}, expected numbers") from exc
    if len(set(h_values)) < len(h_values):
        raise ConfigError(f"--h {args.h!r} repeats a squad size")
    meta = {}
    # a strategy table reads every strategy at --delta; a cost curve, is_doping on the grid
    if args.strategies is not None:
        _unread("cost --strategies", args, "delta_grid")
        delta = 0.0 if args.delta is None else args.delta
        names = _comma_list("--strategies", args.strategies)
        if "rs_no_doping" not in names:
            _unread("cost --strategies without rs_no_doping", args, "eps_rs")
        points = [(name, delta) for name in names]
    else:
        _unread("a cost curve (no --strategies)", args, "delta", "eps_rs")
        meta["delta_grid"] = "0:0.06:0.01" if args.delta_grid is None else args.delta_grid
        points = [("is_doping", d) for d in parse_delta_grid(meta["delta_grid"])]
    eps_rs = 0.5 if args.eps_rs is None else args.eps_rs
    if not args.mc_kd:
        _unread("cost without --mc-kd", args, "trials")
    trials = 50 if args.trials is None else args.trials
    deltas = list(dict.fromkeys(d for name, d in points if name == "is_doping"))
    kd_table: dict[float, float] = {}
    if args.mc_kd:
        # decode-sim's mean over its IS codec trials at k_s = round(k(1+delta))
        ks = {d: _upfront(k * (1.0 + d)) for d in deltas}
        dist = ideal_soliton(k)
        kd_table = {d: float(codec.dopings(codec.codec_trial(args.seed, t, dist, ks[d], 32)
                                           for t in range(trials)).mean())
                    for d in deltas}
    elif deltas:
        kd_table = {d: pred.k_d for d, pred in analytics.doping_table(k, deltas).items()}
    rows = []
    for h in h_values:
        for name, delta in points:
            point = costs.strategy_cost(
                name, k, h, delta=delta, eps_rs=eps_rs,
                k_d=kd_table[delta] if name == "is_doping" else None,
                hop_model=hop_model,
            )
            rows.append((point.strategy, point.k, point.h, point.delta, point.k_s,
                         point.k_d, point.c_T, point.normalized))
    meta |= {
        "k": k,
        "h": args.h,
        "strategies": args.strategies,
        "hop_model": args.hop_model,
        "eps_rs": eps_rs,
        "mc_kd": args.mc_kd,
        "trials": trials,
    }
    if args.mc_kd:
        meta["stream_version"] = STREAM_VERSION
    header = ["strategy", "k", "h", "delta", "k_s", "k_d", "c_T", "c_T_normalized"]
    return 0, (meta, header, rows)


def cmd_validate(args: argparse.Namespace) -> tuple[int, Table | None]:
    from . import validation

    names = list(validation.CRITERIA)
    if args.criterion is not None:
        names = _comma_list("--criterion", args.criterion, validation.CRITERIA)
    results = []
    for name in names:
        res = validation.run_criterion(name, seed=args.seed)
        print(res.summary_line())
        results.append(res)
    code = 0 if all(r.passed for r in results) else 1
    if not args.out:
        return code, None
    rows = [(r.name, r.passed, r.measured_text(), r.threshold_desc) for r in results]
    meta = {"criteria": ",".join(names), "stream_version": STREAM_VERSION}
    return code, (meta, ["criterion", "passed", "measured", "threshold"], rows)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(_with_config(argv))
        code, table = args.run(args)
        if table is not None:
            meta, header, rows = table
            write_csv(args.out, {**meta, "command": args.command, "seed": args.seed}, header, rows)
    except (ConfigError, InvalidParameterError, ExhaustedNetworkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
