"""Batch command line over JSON inputs.

Subcommands: zeta graph|strata, acampo, suspend, lys, sis, charpoly,
check monodromy|holomorphy, fbad.  Exit codes: 0 success, 1 bad input
or usage, 2 conjecture check FAIL, 3 internal error.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import checks, lys as lys_mod, resolution, suspension
from .cyclo import CycloProduct, cyclo_str, cyclo_to_json
from .errors import ValidationError, json_check
from .ratfun import RatFun, render_latex, render_text


def _read_json(path: str) -> dict:
    try:
        if path == "-":
            obj = json.load(sys.stdin)
        else:
            with open(path, encoding="utf-8") as fp:
                obj = json.load(fp)
    except json.JSONDecodeError:
        raise
    except (ValueError, RecursionError) as exc:  # bad UTF-8, huge ints, depth
        raise ValidationError(f"unreadable JSON input: {exc}") from exc
    return json_check(obj, dict, "input")


def _render(f: RatFun, fmt: str) -> str:
    """f as text or latex; JSON output prints the payload instead."""
    return render_latex(f) if fmt == "latex" else render_text(f)


def _render_cyclo(h: CycloProduct, fmt: str) -> str:
    if fmt == "latex":
        parts = [rf"\Phi_{{{d}}}" + (f"^{{{e}}}" if e != 1 else "")
                 for d, e in h.items]
        return " ".join(parts) if parts else "1"
    return cyclo_str(h)


def int_list(text: str) -> list[int]:
    """The type of --ell and --orders: one or more comma-separated integers."""
    values = [int(x) for x in text.split(",") if x.strip()]
    if not values:
        raise ValueError("empty list")
    return values


def _print(args, payload, text_lines):
    """payload as JSON, or the lines that text_lines() renders."""
    if args.quiet:
        return
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines():
            print(line)


# -- subcommands ---------------------------------------------------------------


def _cmd_zeta(args) -> int:
    obj = _read_json(args.infile)
    if args.source == "graph":
        res = resolution.strata_of_graph(resolution.graph_from_json(obj))
    else:
        res = resolution.strata_from_json(obj)
    z = resolution.ztop_from_strata(res, args.ell)
    _print(args, {"ell": args.ell, "zeta": z.to_json()},
           lambda: [_render(z, args.format)])
    return 0


def _cmd_acampo(args) -> int:
    g = resolution.graph_from_json(_read_json(args.infile))
    zeta, delta = resolution.acampo(g)
    _print(args, {"zeta": cyclo_to_json(zeta), "delta": cyclo_to_json(delta)},
           lambda: [f"zeta = {_render_cyclo(zeta, args.format)}",
                    f"Delta = {_render_cyclo(delta, args.format)}"])
    return 0


def _cmd_suspend(args) -> int:
    if args.matrix and (args.m, args.nuz) != (0, 1):
        raise ValidationError("--matrix is the matrix form of z^k + f; "
                              "it needs --m 0 and --nuz 1")
    profile = suspension.profile_from_json(_read_json(args.infile))
    results = [(l, suspension.suspend_G(profile, args.m, args.k, args.nuz, l))
               for l in args.ell]
    payload = {"results": [{"ell": l, "zeta": z.to_json()} for l, z in results]}
    holds, matrix = True, []
    if args.matrix:
        b_matrix, holds = suspension.suspend_matrix(profile, args.k)
        payload["matrix"] = {"B": b_matrix, "identity_holds": holds}
        matrix = [f"B = {b_matrix}", f"identity_holds = {holds}"]
    single = len(results) == 1 and not args.matrix
    _print(args, payload, lambda: [
        _render(z, args.format) if single
        else f"Z^({l}) = {_render(z, args.format)}" for l, z in results] + matrix)
    return 0 if holds else 3


def _cmd_lys(args, sis: bool) -> int:
    surface = lys_mod.lys_from_json(_read_json(args.infile))
    if sis and surface.k != 1:
        raise ValidationError(f"sis needs k = 1, got k = {surface.k}")
    results = [(l, lys_mod.lys_ztop(surface, l)) for l in args.ell]
    _print(args, {"results": [{"ell": l, "zeta": z.to_json()} for l, z in results]},
           lambda: [f"Z^({l}) = {_render(z, args.format)}"
                    for l, z in results])
    return 0


def _cmd_charpoly(args) -> int:
    surface = lys_mod.lys_from_json(_read_json(args.infile))
    delta, delta_tilde = lys_mod.lys_charpoly(surface)
    _print(args,
           {"delta": cyclo_to_json(delta), "delta_tilde": cyclo_to_json(delta_tilde)},
           lambda: [f"Delta = {_render_cyclo(delta, args.format)}",
                    f"Delta_tilde = {_render_cyclo(delta_tilde, args.format)}"])
    return 0


def _cmd_check(args) -> int:
    if args.conjecture == "monodromy" and args.lmax is not None:
        raise ValidationError("--lmax applies to check holomorphy only")
    germ = checks.subject_from_json(_read_json(args.infile))
    if args.conjecture == "monodromy":
        report = checks.check_monodromy(germ.zeta.entry(1), germ.delta)
    else:
        report = checks.check_holomorphy(
            germ.zeta.entry, germ.delta.root_orders(), args.lmax)
    verdict = "PASS" if report.passed else "FAIL"
    lines = [f"{report.conjecture}: {verdict}"]
    for item in report.items:
        note = f"  ({item.note})" if item.note else ""
        lines.append(f"  {item.label}: {'ok' if item.ok else 'FAIL'}{note}")
    _print(args, report.to_json(), lambda: lines)
    return 0 if report.passed else 2


def _cmd_fbad(args) -> int:
    orders = frozenset(args.orders)
    bad = sorted(suspension.fbad_set(orders))
    _print(args, {"fbad": bad}, lambda: [",".join(map(str, bad))])
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input: they raise instead of exiting 2."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="topzeta",
        description="Exact topological zeta functions, monodromy zeta "
                    "functions, and conjecture checks for suspensions and "
                    "Le-Yomdin surface singularities.")
    parser.add_argument("--format", choices=("text", "json", "latex"),
                        default="text")
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_zeta = sub.add_parser("zeta", help="twisted topological zeta function")
    p_zeta.add_argument("source", choices=("graph", "strata"))
    p_zeta.add_argument("--in", dest="infile", required=True)
    p_zeta.add_argument("--ell", type=int, default=1)
    p_zeta.set_defaults(fn=_cmd_zeta)

    p_acampo = sub.add_parser("acampo", help="monodromy zeta and char poly")
    p_acampo.add_argument("--in", dest="infile", required=True)
    p_acampo.set_defaults(fn=_cmd_acampo)

    p_susp = sub.add_parser("suspend", help="suspension zeta functions")
    p_susp.add_argument("--in", dest="infile", required=True)
    p_susp.add_argument("--k", type=int, required=True)
    p_susp.add_argument("--m", type=int, default=0)
    p_susp.add_argument("--nuz", type=int, default=1)
    p_susp.add_argument("--ell", type=int_list, required=True)
    p_susp.add_argument("--matrix", action="store_true")
    p_susp.set_defaults(fn=_cmd_suspend)

    p_lys = sub.add_parser("lys", help="Le-Yomdin surface zeta functions")
    p_lys.add_argument("--in", dest="infile", required=True)
    p_lys.add_argument("--ell", type=int_list, required=True)
    p_lys.set_defaults(fn=lambda a: _cmd_lys(a, sis=False))

    p_sis = sub.add_parser("sis", help="superisolated surfaces: lys restricted "
                                       "to k = 1")
    p_sis.add_argument("--in", dest="infile", required=True)
    p_sis.add_argument("--ell", type=int_list, required=True)
    p_sis.set_defaults(fn=lambda a: _cmd_lys(a, sis=True))

    p_char = sub.add_parser("charpoly", help="Le-Yomdin characteristic polynomial")
    p_char.add_argument("--in", dest="infile", required=True)
    p_char.set_defaults(fn=_cmd_charpoly)

    p_check = sub.add_parser("check", help="conjecture checks")
    p_check.add_argument("conjecture", choices=("monodromy", "holomorphy"))
    p_check.add_argument("--in", dest="infile", required=True)
    p_check.add_argument("--lmax", type=int, default=None)
    p_check.set_defaults(fn=_cmd_check)

    p_fbad = sub.add_parser("fbad", help="f-bad integers of an order set")
    p_fbad.add_argument("--orders", type=int_list, required=True)
    p_fbad.set_defaults(fn=_cmd_fbad)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ValidationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # ConsistencyError, or a fault in topzeta
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
