"""Command-line surface.

Verbs: find, verify, gen, sweep, inspect.  ``main`` returns the exit code,
argparse's too: 0 on success, ``--help`` or a passing verification, 1 on a
pipeline failure or failing verification (stage tag on stderr), 2 on usage
errors, malformed input or a path that cannot be read or written (an
``error:`` line on stderr, no traceback).

``find`` opens its ``--out`` file before it reads the host, so an unwritable
path fails at once, before any parsing or search; a run that gets that far
and then fails (exit 1 or 2) leaves the file empty.  An ``--out`` naming
the ``--host`` or ``--target`` file is refused (exit 2) before it is opened.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .core import Config, covered_pairs, euler_characteristic
from .embed import find_homeomorph
from .errors import PipelineError
from .harness import SweepSpec, gen_random_host, run_sweep
from .io import (
    FormatError,
    load_certificate,
    load_host,
    load_target,
    write_certificate,
    write_host,
)
from .verify import verify_certificate


def _rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="homeofind")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_find = sub.add_parser("find", help="search a host for a homeomorph of a target")
    p_find.add_argument("--target", required=True, help="path or builtin:NAME")
    p_find.add_argument("--host", required=True)
    # Defaults live in Config (paper_defaults; k_for for K); the help texts only state them.
    p_find.add_argument("--C", type=_rat, help="density constant (default: 2000 max(1, v(H))^6)")
    p_find.add_argument("--delta", type=_rat, help="density exponent (default: 1/5)")
    p_find.add_argument("--k", type=int, help="admissibility cutoff K (default: 3 max(1, v(H))^3)")
    p_find.add_argument("--seed", type=int, help="seed of the V2 candidate order (default: 0)")
    p_find.add_argument("--retries", type=int, help="V2 placement search budget: RETRIES**2 nodes (default: 64)")
    p_find.add_argument("--out", required=True)

    p_ver = sub.add_parser("verify", help="check a certificate against a host")
    p_ver.add_argument("--cert", required=True)
    p_ver.add_argument("--host", required=True)

    p_gen = sub.add_parser("gen", help="generate a binomial random host")
    p_gen.add_argument("--nx", type=int, required=True)
    p_gen.add_argument("--ny", type=int, required=True)
    p_gen.add_argument("--nz", type=int, required=True)
    p_gen.add_argument("--p", type=_rat, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)

    p_sweep = sub.add_parser("sweep", help="run a density sweep from a JSON spec")
    p_sweep.add_argument("--spec", required=True)
    p_sweep.add_argument("--out-dir", required=True)

    p_ins = sub.add_parser("inspect", help="print target statistics")
    p_ins.add_argument("--target", required=True)

    return parser


def _cmd_find(args) -> int:
    for flag, path in (("--host", args.host), ("--target", args.target)):
        if os.path.exists(args.out) and os.path.exists(path) and os.path.samefile(args.out, path):
            raise ValueError(f"--out {args.out} is the {flag} file; refusing to overwrite it")
    target = load_target(args.target)
    flags = {"C": args.C, "delta": args.delta, "k_threshold": args.k,
             "rng_seed": args.seed, "retry_limit": args.retries}
    cfg = Config.paper_defaults(target, **{k: v for k, v in flags.items() if v is not None})
    with open(args.out, "w") as fh:
        host = load_host(args.host)
        try:
            cert = find_homeomorph(host, target, cfg)
        except PipelineError as exc:
            print(f"not-found stage={exc.stage}: {exc}", file=sys.stderr)
            return 1
        fh.write(write_certificate(cert))
    print(f"found: {len(cert.host_faces)} host faces, certificate written to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    cert = load_certificate(args.cert)
    host = load_host(args.host)
    result = verify_certificate(cert, host)
    if result.passed:
        print("pass")
        return 0
    print(f"fail check={result.check}: {result.reason}", file=sys.stderr)
    return 1


def _cmd_gen(args) -> int:
    host = gen_random_host(args.nx, args.ny, args.nz, args.p, args.seed)
    with open(args.out, "w") as fh:
        fh.write(write_host(host))
    print(f"wrote host with {host.e} faces to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    with open(args.spec) as fh:
        spec = SweepSpec.from_json(fh.read())
    rows = run_sweep(spec, out_dir=args.out_dir)
    for row in rows:
        print(row.serialize())
    return 0


def _cmd_inspect(args) -> int:
    """Counts of the target, its auxiliary graph and its subdivision.

    The last two follow from v(H), e(H) and the covered pairs P (see
    core.build_aux_graph, the one builder of both: the subdivision is a
    4-disk glued along each special cycle, as
    ``HomeomorphCertificate.host_faces`` reads it): |V2| = P + e(H) with
    2P + 3e(H) edges and 3e(H) special cycles, and v(H) + P + 4e(H)
    vertices and 12e(H) faces with the target's chi.  Neither is built, so
    the cost follows the file, not its tg count.
    """
    h = load_target(args.target)
    v, e, pairs = h.vertex_count, h.e, len(covered_pairs(h))
    chi = euler_characteristic(h)
    print(f"vertices: {v}")
    print(f"faces: {e}")
    print(f"covered pairs: {pairs}")
    print(f"euler characteristic: {chi}")
    print(
        f"aux graph: |V1|={v} |V2|={pairs + e} "
        f"edges={2 * pairs + 3 * e} special-cycles={3 * e}"
    )
    print(f"subdivision: vertices={v + pairs + 4 * e} faces={12 * e} chi={chi}")
    return 0


_COMMANDS = {
    "find": _cmd_find,
    "verify": _cmd_verify,
    "gen": _cmd_gen,
    "sweep": _cmd_sweep,
    "inspect": _cmd_inspect,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its help, or a usage error
        return exc.code
    try:
        return _COMMANDS[args.verb](args)
    except (FormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
