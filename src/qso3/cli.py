"""Command-line front end.

Subcommands: construct, verify, decompose, equiv, tensor, spectrum,
central, sweep.  Contexts come either from --q (generic) or from integer
--p/--k (root of unity, so that minimality of p is exact).  Half-integers
are written like "3/2"; complex numbers like "0.7+0.1i".  Exit codes:
0 ok, 1 verification failure, 2 usage or parameter error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import product

import numpy as np

from . import psihom, structure, tensor, uqso3
from .errors import QAlgebraError
from .qscalar import HalfInt, generic_ctx, root_of_unity_ctx
from .registry import REGISTRY, build_family
from .repcore import (BandedRep, Sl2FiniteRep, So3FiniteRep, rep_to_json,
                      truncate, verify_sl2, verify_so3)

DEFAULT_WINDOW = 20


def parse_complex(text: str) -> complex:
    t = text.strip().replace(" ", "")
    t = t.replace("i", "j")
    try:
        return complex(t)
    except ValueError as exc:
        raise QAlgebraError(f"cannot parse complex number {text!r}") from exc


def parse_sign(text) -> int:
    if isinstance(text, int):
        return text
    t = str(text).strip()
    if t in ("+", "+1", "1"):
        return 1
    if t in ("-", "-1"):
        return -1
    raise QAlgebraError(f"cannot parse sign {text!r} (use + or -)")


def parse_signs(text: str) -> tuple[int, int]:
    t = text.strip().strip("()")
    parts = t.split(",")
    if len(parts) != 2:
        raise QAlgebraError(f"cannot parse sign pair {text!r} (use (+,-))")
    return parse_sign(parts[0]), parse_sign(parts[1])


_PARSERS = {
    "halfint": HalfInt.parse,
    "int": int,
    "complex": parse_complex,
    "sign": parse_sign,
    "signs": parse_signs,
    "str": str.strip,
}

# command-line flag name for each registry parameter (dashes in flags)
_FLAG_OF = {"a_prime": "a-prime", "lam": "lambda", "family": "twist"}


def default_tol() -> float:
    env = os.environ.get("QSO3_TOL")
    return float(env) if env else 1e-9


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
    sp.add_argument("--tol", type=float, default=default_tol())


def add_family_args(sp):
    sp.add_argument("--family", required=True, choices=sorted(REGISTRY))
    for flag in ("--l", "--n", "--a", "--b", "--lambda", "--eps", "--a-prime",
                 "--param", "--kind", "--at", "--desc", "--variant", "--omega"):
        sp.add_argument(flag)
    sp.add_argument("--sign", help="+ or -")
    sp.add_argument("--signs", help="sign pair like (+,-)")
    sp.add_argument("--branch", help="+ or -")
    sp.add_argument("--twist", help="+ or - (which twisted parent)")
    sp.add_argument("--which", type=int)
    sp.add_argument("--s1", help="+ or -")
    sp.add_argument("--s2", help="+ or -")


def collect_params(args) -> dict:
    info = REGISTRY[args.family]
    out = {}
    for pname, kind in info.params:
        flag = _FLAG_OF.get(pname, pname)
        raw = getattr(args, flag.replace("-", "_"), None)
        if raw is None:
            continue
        out[pname] = _PARSERS[kind](raw) if isinstance(raw, str) else raw
    return out


def build_from_args(args):
    ctx = make_ctx(args)
    return ctx, build_family(ctx, args.family, **collect_params(args))


def parse_family_spec(ctx, spec: str):
    """Parse "Rsplit_n,n=2,(+,+)" style inline family descriptions."""
    parts = [p for p in _smart_split(spec) if p]
    name = parts[0].strip()
    if name not in REGISTRY:
        raise QAlgebraError(f"unknown family {name!r} in spec {spec!r}")
    info = REGISTRY[name]
    kinds = dict(info.params)
    params = {}
    for part in parts[1:]:
        part = part.strip()
        if part.startswith("(") or "=" not in part:
            params["signs"] = parse_signs(part)
            continue
        key, val = part.split("=", 1)
        key = key.strip()
        if key not in kinds:
            raise QAlgebraError(f"family {name} takes no parameter {key!r}")
        params[key] = _PARSERS[kinds[key]](val)
    return build_family(ctx, name, **params)


def _smart_split(spec: str) -> list[str]:
    # split on commas not inside parentheses
    out, depth, cur = [], 0, []
    for ch in spec:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return out


def emit(payload, args):
    _write(json.dumps(payload, indent=2, default=_json_default), getattr(args, "out", None))


def _write(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, HalfInt):
        return str(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.complexfloating,)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    return str(obj)


def _dump_rep(rep, args):
    if isinstance(rep, BandedRep):
        w = args.window
        tr = truncate(rep, -w, w) if rep.n_min is None and rep.n_max is None else \
            truncate(rep, -2 * w, 2 * w)
        return rep_to_json(tr, rep.family)
    return rep_to_json(rep)


def cmd_construct(args) -> int:
    _, rep = build_from_args(args)
    if isinstance(rep, list):
        emit([_dump_rep(r, args) for r in rep], args)
    else:
        emit(_dump_rep(rep, args), args)
    return 0


def cmd_verify(args) -> int:
    _, rep = build_from_args(args)
    reps = rep if isinstance(rep, list) else [rep]
    payload = []
    worst = 0.0
    for r in reps:
        if isinstance(r, So3FiniteRep) or (isinstance(r, BandedRep) and r.flavor == "so3"):
            report = verify_so3(r, window=args.window)
        else:
            report = verify_sl2(r, window=args.window)
        entry = {"family": str(r.family), "residuals": report.residuals,
                 "max_residual": report.max_residual}
        if isinstance(r, Sl2FiniteRep):
            from .uqsl2 import is_extendable

            ok, _ = is_extendable(r)
            if ok:
                psi_report = psihom.verify_psi(r)
                entry["psi_residuals"] = psi_report.residuals
                entry["max_residual"] = max(entry["max_residual"],
                                            psi_report.max_residual)
        payload.append(entry)
        worst = max(worst, entry["max_residual"])
    emit({"reports": payload, "max_residual": worst, "tol": args.tol}, args)
    return 0 if worst <= args.tol else 1


def cmd_decompose(args) -> int:
    _, rep = build_from_args(args)
    if isinstance(rep, list):
        rep = rep[0] if len(rep) == 1 else rep
    if isinstance(rep, list):
        emit({"note": "constructor already returned components",
              "component_dims": [r.dim for r in rep]}, args)
        return 0
    if isinstance(rep, BandedRep):
        raise QAlgebraError("decompose works on finite representations")
    report = structure.decompose(rep, seed=args.seed)
    payload = {
        "component_dims": report.component_dims,
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
    emit(payload, args)
    return 0


def cmd_equiv(args) -> int:
    ctx = make_ctx(args)
    rep_a = parse_family_spec(ctx, args.a_spec)
    rep_b = parse_family_spec(ctx, args.b_spec)
    dim, _ = structure.intertwiners(rep_a, rep_b)
    eq = structure.are_equivalent(rep_a, rep_b)
    fa, fb = structure.fingerprint(rep_a), structure.fingerprint(rep_b)
    diffs = []
    if fa.dim != fb.dim:
        diffs.append("dim")
    else:
        from .structure import _multiset_close

        scale = max(1.0, max((abs(v) for v, _ in fa.spectrum), default=1.0))
        if not _multiset_close(fa.spectrum, fb.spectrum, 1e-6 * scale):
            diffs.append("i1_spectrum")
        if abs(fa.trace_i2 - fb.trace_i2) > 1e-6 * max(1.0, abs(fa.trace_i2)):
            diffs.append("trace_i2")
        if abs(fa.trace_i3 - fb.trace_i3) > 1e-6 * max(1.0, abs(fa.trace_i3)):
            diffs.append("trace_i3")
    emit({"equivalent": eq, "intertwiner_dim": dim, "fingerprint_diff": diffs},
         args)
    return 0


def cmd_tensor(args) -> int:
    ctx = make_ctx(args)
    rep_a = parse_family_spec(ctx, args.a_spec)
    rep_b = parse_family_spec(ctx, args.b_spec)
    if not isinstance(rep_a, Sl2FiniteRep) or not isinstance(rep_b, Sl2FiniteRep):
        raise QAlgebraError("tensor takes sl2 family specs (products are "
                            "defined through the sl2 factors)")
    if args.sl2:
        table = tensor.sl2_cg_check(rep_a, rep_b, seed=args.seed)
    else:
        prod = tensor.tensor_so3(rep_a, rep_b)
        table = tensor.cg_decompose(prod, seed=args.seed)
    emit(table.to_json(), args)
    return 0


def cmd_spectrum(args) -> int:
    _, rep = build_from_args(args)
    if isinstance(rep, list):
        payload = [{"family": str(r.family),
                    "spectrum": structure.i1_spectrum(r)} for r in rep]
    elif isinstance(rep, BandedRep):
        w = args.window
        tr = truncate(rep, -w, w) if rep.n_min is None and rep.n_max is None \
            else truncate(rep, -2 * w, 2 * w)
        name = "I1" if rep.flavor == "so3" else "K"
        vals = np.diag(tr.matrices[name])
        payload = {"family": str(rep.family), "window": w,
                   "spectrum": structure.cluster(vals, 10 * rep.ctx.tol)}
    else:
        payload = {"family": str(rep.family),
                   "spectrum": structure.i1_spectrum(rep)}
    if args.format == "csv":
        lines = ["re,im,multiplicity"]
        spec = payload["spectrum"] if isinstance(payload, dict) else \
            [s for pl in payload for s in pl["spectrum"]]
        for val, mult in spec:
            lines.append(f"{val.real},{val.imag},{mult}")
        _write("\n".join(lines), args.out)
        return 0
    emit(payload, args)
    return 0


def cmd_central(args) -> int:
    ctx = make_ctx(args)
    if not ctx.is_root_of_unity:
        raise QAlgebraError("central elements need a root-of-unity context (--p/--k)")
    poly = uqso3.central_poly(ctx)
    coeffs = []
    for c in poly.coeffs:
        coeffs.append(round(c.real, 12) if abs(c.imag) < 1e-9 else [c.real, c.imag])
    emit({"p": ctx.p, "coeffs": coeffs}, args)
    return 0


COMMANDS = {
    "construct": cmd_construct,
    "verify": cmd_verify,
    "decompose": cmd_decompose,
    "equiv": cmd_equiv,
    "tensor": cmd_tensor,
    "spectrum": cmd_spectrum,
    "central": cmd_central,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qso3", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("construct", "verify", "decompose", "spectrum"):
        sp = sub.add_parser(name)
        add_ctx_args(sp)
        add_family_args(sp)
        sp.add_argument("--window", type=int, default=DEFAULT_WINDOW)
        sp.add_argument("--out")
        sp.add_argument("--format", choices=["json", "csv"], default="json")
        sp.add_argument("--seed", type=int, default=structure.DEFAULT_SEED)
        if name == "decompose":
            sp.add_argument("--matrices", action="store_true",
                            help="include component matrices in the report")
    for name in ("equiv", "tensor"):
        sp = sub.add_parser(name)
        add_ctx_args(sp)
        sp.add_argument("--a-spec", required=True, dest="a_spec",
                        metavar="SPEC", help='e.g. "Rsplit_n,n=2,(+,+)"')
        sp.add_argument("--b-spec", required=True, dest="b_spec", metavar="SPEC")
        sp.add_argument("--out")
        sp.add_argument("--seed", type=int, default=structure.DEFAULT_SEED)
        if name == "tensor":
            sp.add_argument("--sl2", action="store_true",
                            help="decompose on the sl2 side instead")
    sp = sub.add_parser("central")
    add_ctx_args(sp)
    sp.add_argument("--out")
    return ap


def _run_sweep(argv) -> int:
    """qso3 sweep <command> [flags] [--<name>-grid v1,v2,...] --out FILE"""
    if not argv or argv[0] not in COMMANDS:
        print("sweep needs a subcommand: " + ", ".join(COMMANDS), file=sys.stderr)
        return 2
    command = argv[0]
    rest = argv[1:]
    grids = {}
    base = []
    i = 0
    while i < len(rest):
        tok = rest[i]
        if tok.startswith("--") and tok.endswith("-grid"):
            flag = tok[:-5]
            grids[flag] = rest[i + 1].split(",")
            i += 2
        else:
            base.append(tok)
            i += 1
    out_path = None
    if "--out" in base:
        j = base.index("--out")
        out_path = base[j + 1]
        base = base[:j] + base[j + 2:]
    names = sorted(grids)
    lines = []
    any_failed = False
    for combo in product(*(grids[n] for n in names)):
        point = dict(zip(names, combo))
        argv_point = [command] + base
        for flag, val in point.items():
            argv_point += [flag, val]
        try:
            parser = _build_parser()
            args = parser.parse_args(argv_point)
            import io
            from contextlib import redirect_stdout

            buf = io.StringIO()
            with redirect_stdout(buf):
                code = COMMANDS[command](args)
            result = json.loads(buf.getvalue()) if buf.getvalue().strip() else None
            line = {"point": {k.lstrip("-"): v for k, v in point.items()},
                    "ok": code == 0, "result": result}
            any_failed = any_failed or code != 0
        except (QAlgebraError, SystemExit, ValueError) as exc:
            line = {"point": {k.lstrip("-"): v for k, v in point.items()},
                    "ok": False, "error": str(exc)}
            any_failed = True
        lines.append(json.dumps(line, default=_json_default))
    _write("\n".join(lines), out_path)
    return 1 if any_failed else 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "sweep":
        return _run_sweep(argv[1:])
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except QAlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
