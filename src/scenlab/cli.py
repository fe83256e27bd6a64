"""Batch front end: demos, experiments, and analyzers from flags or config.

Every command writes a JSON report (``--out``, default stdout) carrying the
command, the effective configuration, the seed, verdicts, certificates, and
wall-clock time.  Curves additionally serialize to CSV.  Exit status: 0 when
all asserted properties pass, 1 when a property check fails (the
counterexample is serialized in the report), 2 on usage errors.

System keys (``--system``, ``demo --example``), the demos and their input
flags come from :mod:`scenlab.registry`; only ``pathplan`` calls planners.

A flat ``key = value`` config file is read as flags of the chosen
subcommand: each line becomes ``--key=value`` right after the subcommand
(``true`` a bare switch, ``false`` no flag), so one argparse pass checks file
and command line alike and later command-line flags win.

``main`` builds only the flags of the command that ``argv[0]`` names, after
``--config`` is taken out, and the full tree when ``argv[0]`` is not a
command (none, ``-h``, an unknown name).  The lean tree lists every command
name as its subcommand metavar, so its top-level usage is the full tree's.

Only ``core`` and ``registry`` load with this module.  The runners that
certify or bound (``shatter``, ``compression``, ``bounds``) import
``analyzers`` when called, and those that decode or encode constraints
(``shatter``, ``compression``, ``pathplan``) import ``codecs``, so
``risk-curve``, ``--help`` and the usage errors load neither.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from pathlib import Path

from . import core
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


def _argument_type(expected: str):
    """An argparse type's decorator: errors name what was ``expected``, and
    a file that cannot be read (an ``@file`` argument) gives the reason."""
    def decorate(parse):
        def typed(text: str):
            try:
                return parse(text)
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"expected {expected}, got {text!r}") from None
            except OSError as exc:
                raise argparse.ArgumentTypeError(
                    f"expected {expected}, got {text!r}: "
                    f"{exc.strerror}") from None
        return typed
    return decorate


@_argument_type("integers separated by commas or spaces")
def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.replace(",", " ").split()]


@_argument_type("an integer")
def _parse_seed(text: str) -> int:
    """A seed is a stream coordinate, so it must lie in [0, 2**64)."""
    seed = int(text)
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2**64), got {seed}")
    return seed


@_argument_type("numbers separated by commas or spaces")
def _parse_float_list(text: str) -> list[float]:
    return [float(part) for part in text.replace(",", " ").split()]


@_argument_type("JSON, or @ and the path of a JSON file")
def _json_argument(text: str):
    if text.startswith("@"):
        return json.loads(Path(text[1:]).read_text())
    return json.loads(text)


def _config_parser() -> argparse.ArgumentParser:
    """``--config`` alone, read first so it can set subcommand defaults."""
    parser = argparse.ArgumentParser(prog="scenlab", add_help=False,
                                     allow_abbrev=False)
    parser.add_argument("--config", help="flat key = value defaults file")
    return parser


def _demo_inputs(demo) -> dict:
    """A demo's inputs: its keyword-only parameters, with their defaults."""
    params = inspect.signature(demo).parameters.values()
    return {p.name: p.default for p in params if p.kind is p.KEYWORD_ONLY}


def _demo_flags() -> dict:
    """The ``demo`` input flags: the union of the registry demos' inputs."""
    return {name: default for bundle in SYSTEMS.values()
            for name, default in _demo_inputs(bundle.demo).items()}


def _add_demo(sp) -> None:
    sp.add_argument("--example", required=True, choices=list(SYSTEMS))
    for name, default in _demo_flags().items():
        sp.add_argument("--" + name.replace("_", "-"), type=type(default))


def _add_risk_curve(sp) -> None:
    sp.add_argument("--system", required=True, choices=list(SYSTEMS))
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--n-list", type=_parse_int_list, required=True,
                    metavar="N1,N2,...")
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--csv", help="also write the curve as CSV")


def _add_shatter(sp) -> None:
    sp.add_argument("--system", required=True, choices=list(SYSTEMS))
    sp.add_argument("--candidates", type=_json_argument, required=True,
                    help="JSON list of constraint encodings (or @file)")
    sp.add_argument("--max-len", type=int)
    sp.add_argument("--no-include-empty", action="store_true")


def _add_compression(sp) -> None:
    sp.add_argument("--system", required=True, choices=list(SYSTEMS))
    sp.add_argument("--capacity", type=int, required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--tuple", dest="tuple_json", type=_json_argument,
                       help="JSON tuple of constraint encodings (map search)")
    group.add_argument("--base", type=_json_argument,
                       help="JSON base set of constraint encodings (counting)")
    sp.add_argument("--permutations", action="store_true")


def _add_bounds(sp) -> None:
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--vc", type=int, metavar="D")
    group.add_argument("--compression", type=int, metavar="D")
    sp.add_argument("--eps", type=float, required=True)
    target = sp.add_mutually_exclusive_group(required=True)
    target.add_argument("--beta", type=float)  # report the least N
    target.add_argument("--N", type=int)  # report beta at N


def _add_pathplan(sp) -> None:
    sp.add_argument("--algo", type=int, choices=(1, 2), required=True)
    sp.add_argument("--thetas", type=_parse_float_list, default=[],
                    metavar="T1,T2,...")
    sp.add_argument("--length", type=float, default=Scene.barrier_length)


def build_parser(command=None, config_parser=None) -> argparse.ArgumentParser:
    """The ``scenlab`` parser, with only ``command``'s subparser when it
    names one and every subparser otherwise.  ``config_parser`` is the
    ``--config`` parser to inherit (a new one by default)."""
    parser = argparse.ArgumentParser(
        prog="scenlab", parents=[config_parser or _config_parser()],
        allow_abbrev=False,
        description="Verification lab for scenario decision algorithms.")
    lean = command in _COMMANDS
    # The metavar keeps the lean tree's top-level usage that of the full
    # one; the full tree has none, as its errors name the command "command".
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_COMMANDS) + "}" if lean else None)
    for name in [command] if lean else _COMMANDS:
        help_text, add_flags, _ = _COMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(subparser=sp)  # reports the command's usage errors
        sp.add_argument("--out", help="JSON report path (default: stdout)")
        sp.add_argument("--seed", type=_parse_seed, default=0,
                        help="seed for all randomized steps (echoed)")
        add_flags(sp)
    return parser


def _config_flags(config: dict[str, str]) -> list[str]:
    """Config lines as flags: ``--key=value``, ``true`` a bare switch and
    ``false`` no flag."""
    flags = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if value == "true":
            flags.append(flag)
        elif value != "false":
            flags.append(f"{flag}={value}")
    return flags


# ---------------------------------------------------------------------------
# Command implementations (each returns (verdicts, passed))
# ---------------------------------------------------------------------------


def _run_demo(args) -> tuple[dict, bool]:
    bundle = get_bundle(args.example)
    inputs = _demo_inputs(bundle.demo)
    for name in _demo_flags():
        if getattr(args, name) is None:
            setattr(args, name, inputs.get(name))  # echo what the demo ran on
        elif name not in inputs:
            raise ValueError(f"--{name.replace('_', '-')} does not apply to "
                             f"demo {args.example}")
    return bundle.demo(bundle, args.seed,
                       **{name: getattr(args, name) for name in inputs})


def _run_risk_curve(args) -> tuple[dict, bool]:
    bundle = get_bundle(args.system)
    curve = core.pac_curve(bundle.system, bundle.distribution, args.eps,
                           args.n_list, args.trials, seed=args.seed)
    if args.csv:
        Path(args.csv).write_text(curve.to_csv())
    return {"curve": curve.to_jsonable()}, True


def _decode_constraints(bundle, objs) -> list:
    """Decode a JSON list of constraint encodings, rejecting any other JSON
    value and kinds foreign to the system."""
    from . import codecs

    if not isinstance(objs, list):
        raise ValueError(f"expected a JSON list of constraint encodings, "
                         f"got {objs!r}")
    constraints = [codecs.decode_constraint(obj) for obj in objs]
    for obj, z in zip(objs, constraints):
        if not isinstance(z, bundle.constraint_types):
            raise ValueError(f"{obj!r} is not a constraint of "
                             f"{bundle.system.name}")
    return constraints


def _run_shatter(args) -> tuple[dict, bool]:
    from . import analyzers

    bundle = get_bundle(args.system)
    candidates = _decode_constraints(bundle, args.candidates)
    report = analyzers.check_shattered(
        bundle.system, candidates, max_len=args.max_len,
        include_empty=not args.no_include_empty)
    return {"shatter": report.to_jsonable()}, True


def _run_compression(args) -> tuple[dict, bool]:
    from . import analyzers

    bundle = get_bundle(args.system)
    if args.tuple_json is not None:
        if args.permutations:
            raise ValueError("--permutations applies to --base only")
        vz = tuple(_decode_constraints(bundle, args.tuple_json))
        report = analyzers.search_compression_map(bundle.system, vz,
                                                  args.capacity)
        return {"map_search": report.to_jsonable()}, True
    base = _decode_constraints(bundle, args.base)
    report = analyzers.certify_no_compression_scheme(
        bundle.system, base, args.capacity, permutations=args.permutations)
    return {"scheme_counting": report.to_jsonable()}, True


def _run_bounds(args) -> tuple[dict, bool]:
    from . import analyzers

    if args.N is not None:
        if args.vc is not None:
            raise ValueError("--N applies to --compression only")
        return {"compression_beta": analyzers.compression_beta(
            args.N, args.compression, args.eps)}, True
    if args.vc is not None:
        query = analyzers.BoundQuery(args.eps, args.beta, args.vc)
        return {"vc_sample_bound": analyzers.vc_sample_bound(query)}, True
    query = analyzers.BoundQuery(args.eps, args.beta, args.compression)
    return {"compression_min_samples": analyzers.compression_bound(query)}, True


def _run_pathplan(args) -> tuple[dict, bool]:
    from . import codecs

    scene = Scene(barrier_length=args.length)
    vz = tuple(codecs.decode_constraint({"theta": t}) for t in args.thetas)
    if args.algo == 1:
        decision = alg1_shortest_path(scene, vz)
        extra = {"length": decision.length()}
    else:
        decision = alg2_shortest_parabola(scene, vz)
        extra = {}
    return {"decision": codecs.encode_decision(decision), **extra}, True


# Each subcommand: its help line, the function that adds its flags and
# its runner.
_COMMANDS = {
    "demo": ("run the demonstration of a registry system (an input flag the "
             "example does not read is a usage error)", _add_demo, _run_demo),
    "risk-curve": ("empirical PAC curve q_hat(N)", _add_risk_curve,
                   _run_risk_curve),
    "shatter": ("exhaustive shattering check on a candidate set",
                _add_shatter, _run_shatter),
    "compression": ("compression map search / scheme counting",
                    _add_compression, _run_compression),
    "bounds": ("sample-size bound calculators", _add_bounds, _run_bounds),
    "pathplan": ("run a planner on explicit barrier angles", _add_pathplan,
                 _run_pathplan),
}
# ``main`` looks runners up here, so replacing an entry (as scenbench's
# tracer does) reaches every call.
_RUNNERS = {name: run for name, (_, _, run) in _COMMANDS.items()}


def main(argv=None) -> int:
    config_parser = _config_parser()
    known, argv = config_parser.parse_known_args(argv)
    parser = build_parser(argv[0] if argv else None, config_parser)

    # Unreadable files (config, @file arguments or --out) and rejected
    # values are usage errors, as are runner failures on bad input (an
    # integer past the float range, or a size whose arrays cannot be
    # allocated, among them); once the command is parsed, its own parser
    # reports them.
    args = out = None
    try:
        if known.config is not None:
            argv[1:1] = _config_flags(load_config(known.config))
        args = parser.parse_args(argv)
        if args.out:  # append mode checks the path, keeping an earlier report
            created = not Path(args.out).exists()
            out = open(args.out, "a")
        start = time.perf_counter()
        try:
            verdicts, passed = _RUNNERS[args.command](args)
        except BaseException:
            if out:  # a failed run leaves no report file of its own
                out.close()
                if created:
                    Path(args.out).unlink()
            raise
    except (OSError, ValueError, KeyError, OverflowError, MemoryError,
            core.BudgetExceededError) as exc:
        getattr(args, "subparser", parser).error(str(exc))

    echo = {k: v for k, v in vars(args).items()
            if k not in ("command", "out", "subparser") and v is not None}
    report = {
        "command": args.command,
        "config": echo,
        "seed": getattr(args, "seed", None),
        "passed": passed,
        "verdicts": verdicts,
        "wall_clock_s": time.perf_counter() - start,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if out is None:
        print(text)
    else:
        with out:
            out.truncate(0)
            print(text, file=out)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
