"""Batch front end: demos, experiments, and analyzers from flags or config.

Every command writes a JSON report (``--out``, default stdout) carrying the
command, the effective configuration, the seed, verdicts, certificates, and
wall-clock time.  Curves additionally serialize to CSV.  Exit status: 0 when
all asserted properties pass, 1 when a property check fails (the
counterexample is serialized in the report), 2 on usage errors.

System keys (``--system``, ``demo --example``) and the demos themselves
come from :mod:`scenlab.registry`; nothing here names a system.

A flat ``key = value`` config file may supply defaults for any flag of the
chosen subcommand; its values pass the same type and choice checks as flags,
and boolean flags take ``true`` or ``false``.  Command-line flags override
file values.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import analyzers, codecs, core
from .analyzers import BoundQuery
from .pathplan import Scene, alg1_shortest_path, alg2_shortest_parabola
from .registry import SYSTEMS, get_bundle


def load_config(path: str) -> dict[str, str]:
    """Parse a flat ``key = value`` config file ('#' starts a comment)."""
    config: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        config[key.strip().replace("-", "_")] = value.strip()
    return config


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.replace(",", " ").split()]


def _parse_float_list(text: str) -> list[float]:
    return [float(part) for part in text.replace(",", " ").split()]


def _json_argument(text: str):
    if text.startswith("@"):
        return json.loads(Path(text[1:]).read_text())
    return json.loads(text)


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="scenlab",
        description="Verification lab for scenario decision algorithms.")
    parser.add_argument("--config", help="flat key = value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    def add(name: str, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.add_argument("--out", help="JSON report path (default: stdout)")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for all randomized steps (echoed)")
        subparsers[name] = sp
        return sp

    sp = add("demo", help="run the demonstration of a registry system")
    sp.add_argument("--example", required=True, choices=list(SYSTEMS))
    sp.add_argument("--k", type=int, default=4)
    sp.add_argument("--capacity", type=int, default=1)
    sp.add_argument("--eps", type=float, default=0.25)
    sp.add_argument("--N", type=int, default=10)
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--max-n", type=int, default=20)

    sp = add("risk-curve", help="empirical PAC curve q_hat(N)")
    sp.add_argument("--system", required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--n-list", type=_parse_int_list, required=True,
                    metavar="N1,N2,...")
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--csv", help="also write the curve as CSV")

    sp = add("shatter", help="exhaustive shattering check on a candidate set")
    sp.add_argument("--system", required=True)
    sp.add_argument("--candidates", type=_json_argument, required=True,
                    help="JSON list of constraint encodings (or @file)")
    sp.add_argument("--max-len", type=int)
    sp.add_argument("--no-include-empty", action="store_true")

    sp = add("compression", help="compression map search / scheme counting")
    sp.add_argument("--system", required=True)
    sp.add_argument("--capacity", type=int, required=True)
    sp.add_argument("--tuple", dest="tuple_json", type=_json_argument,
                    help="JSON tuple of constraint encodings (map search)")
    sp.add_argument("--base", type=_json_argument,
                    help="JSON base set of constraint encodings (counting)")
    sp.add_argument("--permutations", action="store_true")

    sp = add("bounds", help="sample-size bound calculators")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--vc", type=int, metavar="D")
    group.add_argument("--compression", type=int, metavar="D")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--N", type=int)

    sp = add("pathplan", help="run a planner on explicit barrier angles")
    sp.add_argument("--algo", type=int, choices=(1, 2), required=True)
    sp.add_argument("--thetas", type=_parse_float_list, default=[],
                    metavar="T1,T2,...")
    sp.add_argument("--length", type=float, default=0.5)

    return parser, subparsers


def _apply_config(config: dict, subparser: argparse.ArgumentParser) -> None:
    """Install config values as defaults, checked like the flags they set."""
    known = {a.dest: a for a in subparser._actions}
    defaults = {}
    for key, value in config.items():
        if key not in known:
            raise ValueError(f"config key {key!r} unknown for this command")
        action = known[key]
        if action.nargs == 0:  # a store_true flag
            if value not in ("true", "false"):
                raise ValueError(f"config key {key!r} takes true or false, "
                                 f"not {value!r}")
            value = value == "true"
        elif action.type:
            value = action.type(value)
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"config key {key!r}: invalid choice {value!r} "
                             f"(choose from {list(action.choices)})")
        defaults[key] = value
        action.required = False
    subparser.set_defaults(**defaults)


# ---------------------------------------------------------------------------
# Command implementations (each returns (verdicts, passed))
# ---------------------------------------------------------------------------


def _run_demo(args) -> tuple[dict, bool]:
    bundle = get_bundle(args.example)
    return bundle.demo(bundle, args)


def _run_risk_curve(args) -> tuple[dict, bool]:
    bundle = get_bundle(args.system)
    curve = core.pac_curve(bundle.system, bundle.distribution, args.eps,
                           args.n_list, args.trials, seed=args.seed,
                           threads=args.threads)
    if args.csv:
        Path(args.csv).write_text(curve.to_csv())
    return {"curve": curve.to_jsonable()}, True


def _run_shatter(args) -> tuple[dict, bool]:
    bundle = get_bundle(args.system)
    candidates = [codecs.decode_constraint(obj) for obj in args.candidates]
    report = analyzers.check_shattered(
        bundle.system, candidates, max_len=args.max_len,
        include_empty=not args.no_include_empty)
    return {"shatter": report.to_jsonable(codecs.encode_constraint)}, True


def _run_compression(args) -> tuple[dict, bool]:
    bundle = get_bundle(args.system)
    if (args.tuple_json is None) == (args.base is None):
        raise ValueError("provide exactly one of --tuple or --base")
    if args.tuple_json is not None:
        vz = tuple(codecs.decode_constraint(obj) for obj in args.tuple_json)
        indices = analyzers.find_compression_subtuple(bundle.system, vz,
                                                      args.capacity)
        return {"map_search": {
            "capacity": args.capacity,
            "subtuple_indices": list(indices) if indices is not None else None,
            "none_certificate": indices is None,
        }}, True
    base = [codecs.decode_constraint(obj) for obj in args.base]
    report = analyzers.certify_no_compression_scheme(
        bundle.system, base, args.capacity, permutations=args.permutations)
    return {"scheme_counting": report.to_jsonable(codecs.encode_constraint)}, True


def _run_bounds(args) -> tuple[dict, bool]:
    if args.vc is not None:
        query = BoundQuery(args.eps, args.beta, args.vc)
        return {"vc_sample_bound": analyzers.vc_sample_bound(query)}, True
    query = BoundQuery(args.eps, args.beta, args.compression, n=args.N)
    if args.N is not None:
        return {"compression_beta": analyzers.compression_bound(query)}, True
    return {"compression_min_samples": analyzers.compression_bound(query)}, True


def _run_pathplan(args) -> tuple[dict, bool]:
    scene = Scene(barrier_length=args.length)
    vz = tuple(codecs.decode_constraint({"theta": t}) for t in args.thetas)
    if args.algo == 1:
        decision = alg1_shortest_path(scene, vz)
        extra = {"length": decision.length()}
    else:
        decision = alg2_shortest_parabola(scene, vz)
        extra = {}
    return {"decision": codecs.encode_decision(decision), **extra}, True


_RUNNERS = {
    "demo": _run_demo,
    "risk-curve": _run_risk_curve,
    "shatter": _run_shatter,
    "compression": _run_compression,
    "bounds": _run_bounds,
    "pathplan": _run_pathplan,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()

    config = {}
    if "--config" in argv:
        idx = argv.index("--config")
        try:
            path = argv[idx + 1]
        except IndexError:
            parser.error("--config requires a file path")
        del argv[idx:idx + 2]
        config = load_config(path)
    if argv and argv[0] in subparsers and config:
        try:
            _apply_config(config, subparsers[argv[0]])
        except ValueError as exc:
            parser.error(str(exc))

    args = parser.parse_args(argv)

    start = time.perf_counter()
    try:
        verdicts, passed = _RUNNERS[args.command](args)
    except (ValueError, KeyError, analyzers.BudgetExceededError) as exc:
        parser.error(str(exc))

    echo = {k: v for k, v in vars(args).items()
            if k not in ("command", "out") and v is not None}
    report = {
        "command": args.command,
        "config": echo,
        "seed": getattr(args, "seed", None),
        "passed": passed,
        "verdicts": verdicts,
        "wall_clock_s": time.perf_counter() - start,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
