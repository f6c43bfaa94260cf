"""Command line: poset building, path listing, charges, the weak
bijection, and the verification sweeps.

Exit codes: 0 success, 1 failed gating check, 2 usage or domain error.
Exit 2 also covers a tableau grid that is not a chain of partitions
(an entry below 1, a row that decreases, letters that do not stack),
``bijection --json`` without ``--descend``, a ``verify`` parameter the
named check does not take or a parameter set at which it has no
instance, and a group run (``gating``, ``all``) given
a parameter no check in it takes.  A group run passes each check only
the parameters it declares.  KSHAPE_WORKERS sets the sweep worker count.
"""
from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager, suppress

from .errors import IntegrityError
from .partitions import format_partition, parse_partition
from .poset import Path, build_poset, enumerate_paths, equivalence_classes
from .kshape_tableaux import charge_kshape, cocharge_kshape, make_kshape_tableau
from .pushout import descend, weak_bijection_standard
from .verify import CHECKS, resolve_params, run_check
from .weak_tableaux import (
    chain_of_filling,
    charge_any_weight,
    charge_standard,
    cocharge_standard,
    parse_tableau_text,
    split_tableau_text,
)


def _read_tableau_text(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    with open(source, "r", encoding="utf-8") as fh:
        return fh.read()


@contextmanager
def _output_file(path: str | None):
    """A text file that replaces ``path`` only when the block completes.

    It is written as a temporary file beside ``path`` and renamed over it
    at the end, so a run that raises leaves an existing file as it was.
    A path that is empty, a directory or not writable fails on entry,
    before any output: the temporary file is opened then.  No path gives None.
    """
    if path is None:
        yield None
        return
    if not path or os.path.isdir(path):
        raise ValueError(f"cannot write a file at {path!r}")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with suppress(FileNotFoundError):
            os.remove(tmp)


def _cmd_poset(args) -> int:
    with _output_file(args.dot) as fh:
        poset = build_poset(args.k, args.size)
        print(f"poset of {args.k}-shapes, boundary size {args.size}")
        print(f"vertices: {len(poset.vertices)}  edges: {poset.edge_count}")
        for v in poset.vertices:
            for m in poset.edges[v]:
                o = "r" if m.orientation == "row" else "c"
                print(
                    f"  {format_partition(v)} -> {format_partition(m.target)}"
                    f"  {o} (rank {m.rank}, len {m.length})"
                )
        if args.dot:
            fh.write(poset.to_dot() + "\n")
    if args.dot:
        print(f"dot written to {args.dot}")
    return 0


def _cmd_paths(args) -> int:
    src = parse_partition(args.src)
    dst = parse_partition(args.dst)
    paths = enumerate_paths(src, dst, args.k)
    print(f"{len(paths)} paths from {format_partition(src)} to {format_partition(dst)}")
    for p in paths:
        print(f"  {p.text()}  | charge {p.charge()} cocharge {p.cocharge()}")
    if args.classes:
        classes = equivalence_classes(src, dst, args.k)
        print(f"{len(classes)} equivalence classes")
        # each class is shown by its least path
        sizes = {min(c, key=Path.sort_key): len(c) for c in classes}
        for rep in sorted(sizes, key=Path.sort_key):
            print(f"  [{sizes[rep]} paths, charge {rep.charge()}] rep {rep.text()}")
    return 0


def _cmd_charge(args) -> int:
    text = _read_tableau_text(args.tableau)
    if args.kshape:
        t = make_kshape_tableau(args.k, chain_of_filling(split_tableau_text(text)))
        value = cocharge_kshape(t) if args.cocharge else charge_kshape(t)
        print(value)
        return 0
    t = parse_tableau_text(args.k, text)
    print(cocharge_standard(t) if args.cocharge else charge_any_weight(t))
    return 0


def _cmd_bijection(args) -> int:
    if args.json and not args.descend:
        raise ValueError("--json requires --descend")
    text = _read_tableau_text(args.tableau)
    t = parse_tableau_text(args.k, text)
    if args.descend:
        record = descend(t)
        print(record.to_json() if args.json else record.to_text())
        return 0
    res = weak_bijection_standard(t)
    print(f"target ({args.k - 1}-tableau): {res.target.text() or '-'}")
    print(f"path: {res.path.text()}")
    print(f"path charge {res.path.charge()} cocharge {res.path.cocharge()}")
    print(
        f"charges: {charge_standard(t)} ="
        f" {charge_standard(res.target)} + {res.path.charge()}"
    )
    return 0


# every parameter some check declares, in first-declared order
_VERIFY_PARAMS = tuple(dict.fromkeys(p for check in CHECKS.values() for p in check.defaults))


def _cmd_verify(args) -> int:
    given = {p: getattr(args, p) for p in _VERIFY_PARAMS if getattr(args, p) is not None}
    if args.check in ("gating", "all"):
        names = [n for n, c in CHECKS.items() if c.gating or args.check == "all"]
        taken = set().union(*(CHECKS[n].defaults for n in names))
        unused = sorted(set(given) - taken)
        if unused:
            raise ValueError(f"no check in {args.check!r} takes {', '.join(unused)}")
        runs = [
            (n, {p: v for p, v in given.items() if p in CHECKS[n].defaults})
            for n in names
        ]
    else:
        runs = [(args.check, given)]
    for name, params in runs:
        resolve_params(name, **params)  # reject bad input before any sweep runs
    failed = False
    reports = []
    with _output_file(args.report) as fh:
        for name, params in runs:
            report = run_check(name, **params)
            reports.append(report)
            print(report.line())
            for f in report.failures:
                print(f"    {f}")
            if not report.passed and not report.conjecture:
                failed = True
        if args.report:
            fh.write("[\n" + ",\n".join(r.to_json() for r in reports) + "\n]\n")
    if args.report:
        print(f"report written to {args.report}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kshape",
        description="k-shape poset, tableau charges, and the weak bijection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poset", help="build the poset of k-shapes of a size")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--dot", metavar="FILE", help="write DOT output")
    p.set_defaults(fn=_cmd_poset)

    p = sub.add_parser("paths", help="list paths between two k-shapes")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--from", dest="src", required=True, metavar="PARTITION")
    p.add_argument("--to", dest="dst", required=True, metavar="PARTITION")
    p.add_argument("--classes", action="store_true", help="group into classes")
    p.set_defaults(fn=_cmd_paths)

    p = sub.add_parser("charge", help="charge of a tableau (file or '-')")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tableau", required=True, metavar="FILE|-")
    p.add_argument("--cocharge", action="store_true")
    p.add_argument("--kshape", action="store_true", help="treat as k-shape tableau")
    p.set_defaults(fn=_cmd_charge)

    p = sub.add_parser("bijection", help="apply the weak bijection")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tableau", required=True, metavar="FILE|-")
    p.add_argument("--descend", action="store_true", help="iterate down to k=1")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=_cmd_bijection)

    p = sub.add_parser("verify", help="run a named verification sweep")
    p.add_argument(
        "--check",
        required=True,
        help=f"one of: gating, all, {', '.join(sorted(CHECKS))}",
    )
    for param in _VERIFY_PARAMS:
        p.add_argument(f"--{param.replace('_', '-')}", type=int, default=None)
    p.add_argument("--report", metavar="FILE.json")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
