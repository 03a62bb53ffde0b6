"""Command-line interface.

Exit codes: 0 success, 1 validation/parse errors, 2 usage errors. All
randomized subcommands take their seed from the config file or an explicit
--seed flag; there is no implicit entropy, so identical invocations
produce byte-identical output. Every file is read, and every output
document built and written, by :mod:`citenoise.io`.
"""

import argparse
import dataclasses
import sys

from . import io as cio
from .audit import audit_justification, omission_indicator
from .errors import CitenoiseError, ParseError
from .fixtures import builtin_fixture, fixture_names
from .metrics import analyze
from .simulate import (
    GenerativeConfig,
    aggregation_curve,
    decompose_pattern_noise,
    generate_system,
    replicate_decisions,
)

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(GenerativeConfig)}


class UsageError(Exception):
    pass


def _load_config(path, seed_override):
    with cio._naming(path):
        raw = cio.read_json(path)
        if not isinstance(raw, dict):
            raise ParseError("config must be a JSON object")
        unknown = set(raw) - _CONFIG_FIELDS
        if unknown:
            raise ParseError(f"unknown config keys: {sorted(unknown)}")
        if seed_override is not None:
            raw["seed"] = seed_override
        if "seed" not in raw:
            raise UsageError("a seed is required (in the config file or via --seed)")
        return GenerativeConfig(**raw)


def _load_system_arg(paths):
    if len(paths) == 1:
        return cio.load_system(paths[0])
    if len(paths) == 2:
        return cio.load_system_csv(paths[0], paths[1])
    raise UsageError("--input takes one JSON document or a realized/accurate CSV pair")


def _cmd_analyze(args):
    system = _load_system_arg(args.input)
    report = analyze(system)
    if args.format == "json":
        return cio.dump_json(cio.report_to_document(report, system))
    return cio.report_to_table(report, system)


def _cmd_simulate(args):
    config = _load_config(args.config, args.seed)
    system, latent = generate_system(config)
    if args.latent:
        cio.write_text(cio.dump_json(cio.latent_to_document(latent)), args.latent)
    return cio.dump_json(cio.system_to_document(system))


def _cmd_retest(args):
    config = _load_config(args.config, args.seed)
    realized, latent = replicate_decisions(config)
    stable, occasion = decompose_pattern_noise(realized, latent)
    return cio.dump_json(cio.retest_to_document(config.replicates, stable, occasion))


def _cmd_aggregate(args):
    config = _load_config(args.config, args.seed)
    try:
        ns = [int(n) for n in args.ns.split(",") if n]
    except ValueError:
        ns = []
    if not ns:
        raise UsageError(f"--ns must be a comma-separated integer list: {args.ns!r}")
    return cio.aggregation_to_csv(aggregation_curve(config, ns, args.trials))


def _cmd_audit(args):
    report = audit_justification(*cio.load_audit_inputs(args.refs, args.intext, args.jt))
    return cio.dump_json(cio.audit_to_document(report))


def _cmd_omissions(args):
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    sim, cites = cio.load_omission_inputs(args.sim, args.citations)
    with cio._naming(args.citations):  # the indicator checks the citation matrix
        flags = omission_indicator(sim, cites, args.k)
    return cio.dump_omissions(flags, args.k)


def _cmd_fixtures(args):
    return cio.dump_json(cio.system_to_document(builtin_fixture(args.name)))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="citenoise",
        description="Citation accuracy, noise, and bias analysis toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags shared by several subcommands, each declared once.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    seeded = argparse.ArgumentParser(add_help=False, parents=[out])
    seeded.add_argument("--config", required=True)
    seeded.add_argument("--seed", type=int)

    p = sub.add_parser("analyze", parents=[out],
                       help="compute the noise report for a system")
    p.add_argument("--input", nargs="+", required=True, metavar="FILE")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", parents=[seeded], help="generate a synthetic system")
    p.add_argument("--latent", help="write the latent-truth sidecar here")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("retest", parents=[seeded],
                       help="stable/occasion test-retest decomposition")
    p.set_defaults(func=_cmd_retest)

    p = sub.add_parser("aggregate", parents=[seeded],
                       help="SE-vs-n aggregation curve as CSV")
    p.add_argument("--ns", required=True, help="comma-separated sample sizes")
    p.add_argument("--trials", type=int, required=True)
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("audit", parents=[out],
                       help="cross-check a citation justification table")
    p.add_argument("--refs", required=True)
    p.add_argument("--intext", required=True)
    p.add_argument("--jt", required=True)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("omissions", parents=[out],
                       help="omission flags over a similarity matrix")
    p.add_argument("--sim", required=True)
    p.add_argument("--citations", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_omissions)

    p = sub.add_parser("fixtures", parents=[out], help="dump a built-in example system")
    p.add_argument("--name", required=True, choices=fixture_names())
    p.set_defaults(func=_cmd_fixtures)

    return parser


def run_cli(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        cio.write_text(args.func(args), args.out)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CitenoiseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: {args.command}: out of memory{detail}", file=sys.stderr)
        return 1


def main():
    raise SystemExit(run_cli())
