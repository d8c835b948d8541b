"""Command-line front end.

Subcommands: construct, verify, decompose, equiv, tensor, spectrum,
central, sweep.  Contexts come either from --q (generic) or from integer
--p/--k (root of unity, so that minimality of p is exact).  Half-integers
are written like "3/2"; complex numbers like "0.7+0.1i"; signs as +, +1,
1, - or -1 (``qscalar.sign_of``), a sign pair as (+,-).  Exit codes:
0 ok, 1 verification failure, a failed sweep point or an oracle with
nothing to work from (``NoSolution``), 2 usage, parameter or overflow error.

Output is JSON, its values written by ``repcore.json_value``; a dumped
representation (``repcore.rep_to_json``) writes each stored diagonal and
a window's labels as one base64 string of complex128 bytes
(``repcore.array_to_json``; ``matrix_from_json`` reads a matrix back bit
for bit).  spectrum and spectrum sweeps can also write csv rows
re,im,multiplicity.  sweep runs a command over the cartesian product of
--<flag>-grid value lists and writes one JSON line per point, or with
--format csv one table whose leading columns are the grid flags.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np

from . import psihom, structure, tensor, uqso3
from .errors import NoSolution, NotExtendable, QAlgebraError
from .qscalar import HalfInt, QContext, generic_ctx, root_of_unity_ctx, sign_of
from .registry import REGISTRY, build_family
from .repcore import (BandedRep, Sl2FiniteRep, So3FiniteRep, json_value, rep_to_json,
                      truncate, verify_sl2, verify_so3)

DEFAULT_WINDOW = 20


class UsageError(Exception):
    """A malformed command line."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError instead of exiting, so sweeps can record it."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# ValueError (a malformed value), TypeError (a missing family parameter) and
# OverflowError (a value beyond floating point) exit 2, like usage and domain errors.
PARAM_ERRORS = (UsageError, QAlgebraError, ValueError, TypeError, OverflowError)


def parse_complex(text: str) -> complex:
    t = text.strip().replace(" ", "")
    t = t.replace("i", "j")
    try:
        return complex(t)
    except ValueError as exc:
        raise QAlgebraError(f"cannot parse complex number {text!r}") from exc


def parse_signs(text: str) -> tuple[int, int]:
    t = text.strip().strip("()")
    parts = t.split(",")
    if len(parts) != 2:
        raise QAlgebraError(f"cannot parse sign pair {text!r} (use (+,-))")
    return sign_of(parts[0]), sign_of(parts[1])


_PARSERS = {
    "halfint": HalfInt.parse,
    "int": int,
    "complex": parse_complex,
    "sign": sign_of,
    "signs": parse_signs,
    "str": str.strip,
}

# command-line flag name for each registry parameter (dashes in flags)
_FLAG_OF = {"a_prime": "a-prime", "lam": "lambda", "family": "twist"}


def make_ctx(args) -> object:
    if args.p is not None:
        return root_of_unity_ctx(args.p, args.k, tol=args.tol)
    if args.q is None:
        raise QAlgebraError("provide either --q or --p/--k")
    return generic_ctx(q=parse_complex(args.q), tol=args.tol)


def add_ctx_args(sp):
    sp.add_argument("--q", help="generic deformation parameter, e.g. 1.3 or 0.9+0.1i")
    sp.add_argument("--p", type=int, help="root-of-unity order (with --k)")
    sp.add_argument("--k", type=int, default=1, help="root exponent, gcd(k,p)=1")
    sp.add_argument("--tol", type=float, default=QContext.tol)


def add_family_args(sp):
    """--family, and one flag for each parameter name of the registry schemas."""
    sp.add_argument("--family", required=True, choices=sorted(REGISTRY))
    kinds = {name: kind for info in REGISTRY.values() for name, kind in info.params}
    for name in sorted(kinds):
        sp.add_argument("--" + _FLAG_OF.get(name, name), help=kinds[name])


def build_from_args(args):
    info = REGISTRY[args.family]
    params = {}
    for pname, kind in info.params:
        raw = getattr(args, _FLAG_OF.get(pname, pname).replace("-", "_"))
        if raw is not None:
            params[pname] = _PARSERS[kind](raw)
    return build_family(make_ctx(args), args.family, **params)


def split_commas(text: str) -> list[str]:
    """Split on the commas that are not inside parentheses, so that a sign
    pair such as (+,-) stays one item."""
    return [p.strip() for p in re.split(r",(?![^()]*\))", text) if p.strip()]


def parse_family_spec(ctx, spec: str):
    """Parse "Rsplit_n,n=2,(+,+)" style inline family descriptions."""
    parts = split_commas(spec)
    name = parts[0]
    if name not in REGISTRY:
        raise QAlgebraError(f"unknown family {name!r} in spec {spec!r}")
    kinds = dict(REGISTRY[name].params)
    params = {}
    for part in parts[1:]:
        if part.startswith("(") or "=" not in part:
            params["signs"] = parse_signs(part)
            continue
        key, val = part.split("=", 1)
        key = key.strip()
        if key not in kinds:
            raise QAlgebraError(f"family {name} takes no parameter {key!r}")
        params[key] = _PARSERS[kinds[key]](val)
    return build_family(ctx, name, **params)


@dataclass
class Sweep:
    """The records of a sweep, one per grid point, and its grid flag names."""

    grid: list[str]
    records: list[dict]


def emit(payload, fmt: str, out: str | None) -> None:
    """Write a command payload or a Sweep to ``out`` (stdout if None).

    json: one compact line for the payload, or one per sweep record.
    csv: ``re,im,multiplicity`` rows of spectrum payloads under one header;
    a sweep's grid flags lead as columns (a value with a comma is quoted),
    and a failed point's error goes to stderr.
    """
    if fmt == "csv":
        sweep = payload if isinstance(payload, Sweep) else \
            Sweep([], [{"point": {}, "result": payload}])
        buf = io.StringIO()
        rows = csv.writer(buf, lineterminator="\n")
        rows.writerow(sweep.grid + ["re", "im", "multiplicity"])
        for rec in sweep.records:
            if "error" in rec:
                print(f"error: {rec['point']}: {rec['error']}", file=sys.stderr)
                continue
            lead = [rec["point"][g] for g in sweep.grid]
            res = rec["result"]
            for entry in res if isinstance(res, list) else [res]:
                rows.writerows(lead + [v.real, v.imag, m] for v, m in entry["spectrum"])
        text = buf.getvalue().rstrip("\n")
    else:
        records = payload.records if isinstance(payload, Sweep) else [payload]
        text = "\n".join(json.dumps(r, default=json_value) for r in records)
    with open(out, "w") if out else nullcontext(sys.stdout) as fh:
        fh.write(text + "\n")


def window_truncation(rep: BandedRep, w: int):
    """The finite window shown for a banded rep: labels [-w, w] when it is
    unbounded on both sides, else [-2w, 2w]."""
    k = 1 if rep.n_min is None and rep.n_max is None else 2
    return truncate(rep, -k * w, k * w)


def _dump_rep(rep, w: int):
    if isinstance(rep, BandedRep):
        return rep_to_json(window_truncation(rep, w), rep.family)
    return rep_to_json(rep)


def cmd_construct(args):
    rep = build_from_args(args)
    if isinstance(rep, list):
        return [_dump_rep(r, args.window) for r in rep], 0
    return _dump_rep(rep, args.window), 0


def cmd_verify(args):
    rep = build_from_args(args)
    payload = []
    for r in rep if isinstance(rep, list) else [rep]:
        so3 = isinstance(r, So3FiniteRep) or (isinstance(r, BandedRep) and r.flavor == "so3")
        report = (verify_so3 if so3 else verify_sl2)(r, window=args.window)
        entry = {"family": str(r.family), "residuals": report.residuals,
                 "max_residual": report.max_residual}
        if isinstance(r, Sl2FiniteRep):
            try:
                psi_report = psihom.verify_psi(r)
            except NotExtendable:
                pass  # no localization image, so no psi residuals
            else:
                entry["psi_residuals"] = psi_report.residuals
                entry["max_residual"] = float(np.max([entry["max_residual"],
                                                      psi_report.max_residual]))
        payload.append(entry)
    # np.max, unlike max, keeps a NaN residual whatever its place, so it fails
    worst = float(np.max([0.0] + [e["max_residual"] for e in payload]))
    return {"reports": payload, "max_residual": worst, "tol": args.tol}, \
        0 if worst <= args.tol else 1


def cmd_decompose(args):
    rep = build_from_args(args)
    if isinstance(rep, list):
        rep = rep[0] if len(rep) == 1 else rep
    if isinstance(rep, list):
        return {"note": "constructor already returned components",
                "component_dims": [r.dim for r in rep]}, 0
    if isinstance(rep, BandedRep):
        raise QAlgebraError("decompose works on finite representations")
    report = structure.decompose(rep)
    payload = {
        "component_dims": report.component_dims,
        "casimir_values": report.casimir_values,
        "commutant_dim": report.commutant_dim,
        "burnside_dim": report.burnside_dim,
        "is_irreducible": report.is_irreducible,
        "is_direct_sum": report.is_direct_sum,
        "combined_condition": report.combined_condition,
        "lattice_dims": [b.shape[1] for b in report.lattice],
    }
    if args.matrices:
        payload["components"] = [rep_to_json(c) for _, c in report.components]
        payload["bases"] = [b for b, _ in report.components]
    return payload, 0


def cmd_equiv(args):
    ctx = make_ctx(args)
    rep_a = parse_family_spec(ctx, args.a_spec)
    rep_b = parse_family_spec(ctx, args.b_spec)
    dim, _ = structure.intertwiners(rep_a, rep_b)
    diff = structure.fingerprint(rep_a).diff(structure.fingerprint(rep_b))
    return {"equivalent": structure.are_equivalent(rep_a, rep_b),
            "intertwiner_dim": dim, "fingerprint_diff": diff}, 0


def cmd_tensor(args):
    ctx = make_ctx(args)
    rep_a = parse_family_spec(ctx, args.a_spec)
    rep_b = parse_family_spec(ctx, args.b_spec)
    if not isinstance(rep_a, Sl2FiniteRep) or not isinstance(rep_b, Sl2FiniteRep):
        raise QAlgebraError("tensor takes sl2 family specs (products are "
                            "defined through the sl2 factors)")
    if args.sl2:
        table = tensor.sl2_cg_check(rep_a, rep_b)
    else:
        prod = tensor.tensor_so3(rep_a, rep_b)
        table = tensor.cg_decompose(prod)
    return table.to_json(), 0


def cmd_spectrum(args):
    rep = build_from_args(args)
    if isinstance(rep, list):
        return [{"family": str(r.family),
                 "spectrum": structure.i1_spectrum(r)} for r in rep], 0
    if isinstance(rep, BandedRep):
        tr = window_truncation(rep, args.window)
        vals = tr.diagonals["I1" if rep.flavor == "so3" else "K"].diagonal()
        return {"family": str(rep.family), "window": args.window,
                "spectrum": structure.cluster(vals, rep.ctx.separation(np.abs(vals)))}, 0
    return {"family": str(rep.family), "spectrum": structure.i1_spectrum(rep)}, 0


def cmd_central(args):
    ctx = make_ctx(args)
    if not ctx.is_root_of_unity:
        raise QAlgebraError("central elements need a root-of-unity context (--p/--k)")
    coeffs = [round(c.real, 12) if abs(c.imag) < ctx.threshold() else [c.real, c.imag]
              for c in uqso3.central_poly(ctx).coeffs]
    return {"p": ctx.p, "coeffs": coeffs}, 0


COMMANDS = {
    "construct": cmd_construct,
    "verify": cmd_verify,
    "decompose": cmd_decompose,
    "equiv": cmd_equiv,
    "tensor": cmd_tensor,
    "spectrum": cmd_spectrum,
    "central": cmd_central,
}


@cache
def _build_parser() -> _Parser:
    ap = _Parser(prog="qso3", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    sps = {name: sub.add_parser(name) for name in COMMANDS}
    for sp in sps.values():
        add_ctx_args(sp)
        sp.add_argument("--out")
    for name in ("construct", "verify", "decompose", "spectrum"):
        add_family_args(sps[name])
    for name in ("construct", "verify", "spectrum"):
        sps[name].add_argument("--window", type=int, default=DEFAULT_WINDOW)
    for name in ("equiv", "tensor"):
        sps[name].add_argument("--a-spec", required=True, dest="a_spec",
                               metavar="SPEC", help='e.g. "Rsplit_n,n=2,(+,+)"')
        sps[name].add_argument("--b-spec", required=True, dest="b_spec", metavar="SPEC")
    sps["spectrum"].add_argument("--format", choices=["json", "csv"], default="json")
    sps["decompose"].add_argument("--matrices", action="store_true",
                                  help="include component matrices in the report")
    sps["tensor"].add_argument("--sl2", action="store_true",
                               help="decompose on the sl2 side instead")
    sp = sub.add_parser("sweep", help="run a command over --<flag>-grid v1,v2,... lists")
    sp.add_argument("target", choices=list(COMMANDS))
    sp.add_argument("--out")
    sp.add_argument("--format", choices=["json", "csv"], default="json",
                    help="JSON lines, or csv (spectrum only)")
    return ap


def run_sweep(args, rest: list[str]):
    """Run args.target at every point of the grids among ``rest``; the
    other tokens of ``rest`` are passed to every point."""
    if args.format == "csv" and args.target != "spectrum":
        raise UsageError("qso3 sweep: csv output is for spectrum sweeps")
    grids, base, tokens = {}, [], iter(rest)
    for tok in tokens:
        flag, eq, value = tok.partition("=")
        if flag.startswith("--") and flag.endswith("-grid"):
            values = split_commas(value if eq else next(tokens, ""))
            if not values:
                raise UsageError(f"qso3 sweep: {flag} needs a value list")
            grids[flag[2:-5]] = values
        else:
            base.append(tok)
    sweep = Sweep(sorted(grids), [])
    for combo in product(*(grids[n] for n in sweep.grid)):
        point = dict(zip(sweep.grid, combo))
        flags = [f"--{name}={val}" for name, val in point.items()]
        _, record, _ = run([args.target, *base, *flags])
        sweep.records.append({"point": point, **record})
    return sweep, int(not all(r["ok"] for r in sweep.records))


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Write "--flag -v" as "--flag=-v", so that argparse does not take a
    value with one leading dash (-i, -1.5i) for an option."""
    out: list[str] = []
    for tok in argv:
        if (tok[:1] == "-" and tok[:2] != "--" and tok != "-h" and out
                and out[-1][:2] == "--" and out[-1] != "--" and "=" not in out[-1]):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def run(argv) -> tuple[object, dict, int]:
    """Parse and run one command line.

    Returns the parsed args (None if parsing failed), the record
    {"ok", "result": payload} or {"ok": False, "error": message}, and the
    exit code; a usage or parameter error gives exit code 2, ``NoSolution``
    exit code 1.
    """
    args = None
    try:
        args, rest = _build_parser().parse_known_args(_attach_dash_values(argv))
        if args.command == "sweep":
            payload, code = run_sweep(args, rest)
        elif rest:
            raise UsageError(f"qso3: unrecognized arguments: {' '.join(rest)}")
        else:
            payload, code = COMMANDS[args.command](args)
    except NoSolution as exc:
        # valid input on which an oracle has nothing to work from
        return args, {"ok": False, "error": str(exc)}, 1
    except PARAM_ERRORS as exc:
        return args, {"ok": False, "error": str(exc)}, 2
    return args, {"ok": code == 0, "result": payload}, code


def main(argv=None) -> int:
    args, record, code = run(sys.argv[1:] if argv is None else list(argv))
    if "error" in record:
        print(f"error: {record['error']}", file=sys.stderr)
    else:
        emit(record["result"], getattr(args, "format", "json"), args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
