"""Seeded workloads of the qso3 benchmark.

A workload is a list of cells.  One round runs one item from every cell, in
an order drawn from the seed; the seed also draws each item's free
parameters (signs, twists, wrap weights, lambda, window, size within the
cell's band).  Cells group items of about equal cost, so every round does
about the same work whatever the seed.  See README.md for the pools.

Every item runs through the public API, checks its own output and returns a
record: ``ok`` plus the fields that go into the digest (tables, dimensions,
verdicts, a pass/fail per residual -- never raw floats).  Library functions
are always looked up on their module at call time, so that the span
recorder's wrappers see every call.
"""

from __future__ import annotations

import cmath
import json
import math
import random

from qso3 import psihom, registry, repcore, structure, tensor, uqsl2
from qso3.errors import NotExtendable
from qso3.qscalar import HalfInt, generic_ctx, root_of_unity_ctx

RESIDUAL_TOL = 1e-9
OMEGAS = {"1": 1 + 0j, "-1": -1 + 0j, "i": 1j, "-i": -1j}


class Workload:
    """Cells, per-item runner and warm-up item of one workload."""

    def __init__(self, name, cells, run, warmup_cell, tail_rounds):
        self.name = name
        self.cells = cells            # [(cell_id, draw(rng) -> item)]
        self.run = run                # item -> record
        self.warmup_cell = warmup_cell
        # item_ms.tail is read at the percentile with ten samples beyond it
        # in a run of this many rounds, whatever the number of rounds run
        self.tail_rounds = tail_rounds

    def round_items(self, seed: int, r: int) -> list[dict]:
        rng = random.Random(f"{self.name}/{seed}/{r}")
        items = [dict(draw(rng), cell=cid) for cid, draw in self.cells]
        rng.shuffle(items)
        return items

    def warmup_item(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}/{seed}/warmup")
        draw = dict(self.cells)[self.warmup_cell]
        return dict(draw(rng), cell=self.warmup_cell)


def _residual_record(report) -> dict:
    return {k: v <= RESIDUAL_TOL for k, v in sorted(report.residuals.items())}


def _cplx(rng, lo, hi) -> complex:
    """Random complex number with modulus in [lo, hi] and a random phase."""
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))


# ---------------------------------------------------------------------------
# cg_tables: one Clebsch-Gordan table per item

CG_Q = 1.3
CG_DIMS = (12, 30)


def _cg_factors():
    reals = [(o, HalfInt(t)) for o in ("1", "-1") for t in range(0, 6)]
    twisted = [(o, HalfInt(t)) for o in ("i", "-i") for t in (1, 3, 5)]
    return reals + twisted


def cg_pairs() -> list[tuple]:
    """Unordered factor pairs whose product dimension lies in CG_DIMS."""
    facs = _cg_factors()
    lo, hi = CG_DIMS
    return [(a, b) for i, a in enumerate(facs) for b in facs[i:]
            if lo <= (a[1].twice + 1) * (b[1].twice + 1) <= hi]


def cg_refused(oa, la, ob, lb) -> bool:
    """Prediction: one i-twisted factor with an integer total label has no
    localization image (K + Kinv is singular on the product)."""
    return (OMEGAS[oa] * OMEGAS[ob]).imag != 0 and (la + lb).is_integer()


def cg_expected(oa, la, ob, lb) -> dict:
    return tensor.expected_so3_tensor(OMEGAS[oa], OMEGAS[ob], la, lb)


def run_cg(item: dict) -> dict:
    (oa, ta), (ob, tb) = item["a"], item["b"]
    la, lb = HalfInt(ta), HalfInt(tb)
    ctx = generic_ctx(q=CG_Q)
    rec = {"pair": [oa, str(la), ob, str(lb)]}
    refused = cg_refused(oa, la, ob, lb)
    try:
        prod = tensor.tensor_so3(uqsl2.t_omega_l(ctx, la, oa),
                                 uqsl2.t_omega_l(ctx, lb, ob))
    except NotExtendable:
        rec.update(verdict="refused", ok=refused)
        return rec
    table = tensor.cg_decompose(prod)
    want = cg_expected(oa, la, ob, lb)
    rec.update(verdict="table", multiplicities=sorted(table.multiplicities.items()),
               unmatched=table.unmatched_dims, dims=sorted(table.component_dims))
    rec["ok"] = (not refused and table.multiplicities == want
                 and not table.unmatched_dims
                 and table.total_dim() == (la.twice + 1) * (lb.twice + 1))
    return rec


# Items per round of each cell.  A cell holds the products of one dimension
# and one product twist ("i": an imaginary product of the twists); the pairs
# in a cell differ only by signs of the twists and cost the same.  The
# dimension-30 products cost the same whatever the twist and share a cell.
# Five dimension-24 items per round keep the tail (the 11th largest item
# time) inside their block for any run of two or more rounds.
CG_CELLS = {"refused": 1, "12": 2, "12i": 1, "15": 2, "16": 2, "18": 2, "18i": 2,
            "20": 1, "20i": 1, "24": 5, "25": 1, "30": 1}


def _cg_cell(oa, la, ob, lb) -> str:
    dim = (la.twice + 1) * (lb.twice + 1)
    if cg_refused(oa, la, ob, lb):
        return "refused"
    twisted = (OMEGAS[oa] * OMEGAS[ob]).imag != 0 and dim != 30
    return f"{dim}{'i' if twisted else ''}"


def _cg_cells(tiny: bool):
    pools: dict[str, list] = {}
    for (oa, la), (ob, lb) in cg_pairs():
        if not tiny or (la.twice + 1) * (lb.twice + 1) <= 16:
            pools.setdefault(_cg_cell(oa, la, ob, lb), []).append(((oa, la), (ob, lb)))
    cells = []
    for key, repeat in CG_CELLS.items():
        if key not in pools:
            continue

        def draw(rng, pool=pools[key]):
            a, b = pool[rng.randrange(len(pool))]
            if rng.random() < 0.5:
                a, b = b, a
            return {"a": [a[0], a[1].twice], "b": [b[0], b[1].twice]}

        cells += [(f"cg[{key}]", draw)] * repeat
    return cells


def cg_tables(tiny: bool = False) -> Workload:
    # the warm-up item (dimension 16, about 0.1 s) starts the BLAS threads
    return Workload("cg_tables", _cg_cells(tiny), run_cg, "cg[16]", tail_rounds=2)


# ---------------------------------------------------------------------------
# oracle_census: one registry family per item, build -> verify -> decompose

CENSUS_DIMS = (8, 12, 16, 20, 24)
CENSUS_PS = (8, 9, 12, 16, 20)


def _far_lambda(rng) -> complex:
    # off the unit circle, where every +-q^k and +-q^{k+1/2} lives at a root
    return _cplx(rng, 1.25, 2.0)


def _decomposition_record(report) -> dict:
    if report.is_direct_sum:
        verdict = "irreducible" if report.is_irreducible else "direct_sum"
        dims = report.component_dims
    else:
        verdict = "indecomposable"
        dims = sorted(b.shape[1] for b in report.lattice)
    return {"verdict": verdict, "dims": dims,
            "commutant_dim": report.commutant_dim,
            "burnside_dim": report.burnside_dim}


def _census_one(rep, want_verdict: str, want_dims: list | None):
    """Verify and decompose one representation; ``want_dims`` None asks for
    an invariant lattice with at least one proper subspace."""
    verify = repcore.verify_sl2 if isinstance(rep, repcore.Sl2FiniteRep) \
        else repcore.verify_so3
    residuals = _residual_record(verify(rep))
    report = structure.decompose(rep)
    rec = {"dim": rep.dim, "residuals": residuals, **_decomposition_record(report)}
    if want_dims is None:
        dims_ok = bool(rec["dims"]) and max(rec["dims"]) < rep.dim \
            and report.commutant_dim == 1
    else:
        dims_ok = rec["dims"] == sorted(want_dims)
    rec["ok"] = all(residuals.values()) and rec["verdict"] == want_verdict and dims_ok
    return rec, report


def _match_split_halves(ctx, report, n: int, sign: int) -> tuple[list, bool]:
    """Name each half of a twisted family by its equivalent split family."""
    names = []
    for _, comp in report.components:
        hits = [(s1, s2) for s1 in (1, -1) for s2 in (1, -1)
                if structure.are_equivalent(
                    comp, registry.build_family(ctx, "Rsplit_n", n=n, signs=(s1, s2)))]
        names.append(hits)
    ok = (all(len(h) == 1 and h[0][0] == sign for h in names)
          and len({h[0] for h in names}) == 2)
    return sorted(str(h) for h in names), ok


def run_census(item: dict) -> dict:
    fam = item["family"]
    if "p" in item:
        ctx = root_of_unity_ctx(item["p"], 1)
    else:
        ctx = generic_ctx(q=item["q"])
    rec = {"family": fam, "cell": item["cell"]}
    if fam == "R1_l":
        rep = registry.build_family(ctx, fam, l=HalfInt(item["dim"] - 1))
        one, _ = _census_one(rep, "irreducible", [item["dim"]])
    elif fam == "Ri_l":
        n = item["dim"] // 2
        rep = registry.build_family(ctx, fam, l=HalfInt(item["dim"] - 1),
                                    sign=item["sign"])
        one, report = _census_one(rep, "direct_sum", [n, n])
        if one["ok"]:
            one["matches"], matched = _match_split_halves(ctx, report, n, item["sign"])
            one["ok"] = matched
    elif fam == "R_ab_lambda":
        rep = registry.build_family(ctx, fam, a=item["a"], b=item["b"], lam=item["lam"])
        one, _ = _census_one(rep, "irreducible", [rep.dim])
    elif fam == "Qp_lambda":
        lam = {"1": 1.0, "sqrt_q": ctx.s}.get(item["lam"], item["lam"])
        rep = registry.build_family(ctx, fam, lam=lam)
        one, _ = _census_one(rep, *_qp_expected(ctx, item["lam"]))
    elif fam == "R_ab_degen":
        halves = registry.build_family(ctx, fam, a=0, b=0, variant=item["variant"])
        half = ctx.p_prime // 2
        parts = [_census_one(h, "irreducible", [half])[0] for h in halves]
        one = {"halves": parts, "ok": len(parts) == 2 and all(p["ok"] for p in parts)}
    elif fam == "T_ab_lambda":
        lam = ctx.q ** item["k"]
        rep = registry.build_family(ctx, fam, a=0, b=0, lam=lam)
        one, _ = _census_one(rep, "indecomposable", None)
    else:
        raise ValueError(f"unknown census family {fam!r}")
    rec.update(one)
    return rec


def _qp_expected(ctx, lam_kind) -> tuple[str, list]:
    """Qp_lambda verdicts as its docstrings state them: irreducible at a
    generic lambda; at lambda in {1, q^(1/2)} the component families of
    ``q_root_components`` (odd p: (p'+1)/2 + (p'-1)/2; even p: p'+1 + p'-1
    at lambda = 1 and p' + p' at q^(1/2))."""
    pp = ctx.p_prime
    if lam_kind not in ("1", "sqrt_q"):
        return "irreducible", [ctx.p]
    if ctx.p % 2:
        return "direct_sum", [(pp + 1) // 2, (pp - 1) // 2]
    if lam_kind == "1":
        return "direct_sum", [pp + 1, pp - 1]
    return "direct_sum", [pp, pp]


# Items per round of R1_l by dimension (one for the others): four of
# dimension 12 put the median inside their block, and six of dimension 24
# keep the tail (the 11th largest item time) inside theirs for any run of
# two or more rounds.
CENSUS_R1_REPEAT = {12: 4, 24: 6}


def _census_cells(tiny: bool):
    dims = CENSUS_DIMS[:2] if tiny else CENSUS_DIMS
    ps = CENSUS_PS[:2] if tiny else CENSUS_PS
    cells = []
    for d in dims:
        cells += [(f"R1_l[{d}]", lambda rng, d=d: {
            "family": "R1_l", "q": 1.3, "dim": d})] * CENSUS_R1_REPEAT.get(d, 1)
        cells.append((f"Ri_l[{d}]", lambda rng, d=d: {
            "family": "Ri_l", "q": 1.3, "dim": d, "sign": rng.choice((1, -1))}))
    for p in ps:
        cells.append((f"R_ab_lambda[p={p}]", lambda rng, p=p: {
            "family": "R_ab_lambda", "p": p, "a": _cplx(rng, 0.3, 1.5),
            "b": _cplx(rng, 0.3, 1.5), "lam": _far_lambda(rng)}))
        for lam in ("1", "sqrt_q"):
            cells.append((f"Qp_lambda[p={p},{lam}]", lambda rng, p=p, lam=lam: {
                "family": "Qp_lambda", "p": p, "lam": lam}))
        cells.append((f"Qp_lambda[p={p},generic]", lambda rng, p=p: {
            "family": "Qp_lambda", "p": p, "lam": _far_lambda(rng)}))
    for p in (16, 20):       # wrap-free halves need p' even; parent dim p'
        if p in ps:
            cells.append((f"R_ab_degen[p={p}]", lambda rng, p=p: {
                "family": "R_ab_degen", "p": p,
                "variant": rng.choice(("plus", "minus"))}))
    for p in (9, 16, 20):    # wrap-free chain of dimension p' >= 8
        if p in ps:
            pp = p if p % 2 else p // 2
            # the chain breaks where [i](lam^2 q^(1-i) - lam^-2 q^(i-1)) = 0,
            # i = 2k + 1 mod p', which must fall inside the chain
            ks = [k for k in range(pp - 1) if (2 * k + 1) % pp]
            cells.append((f"T_ab_lambda[p={p}]", lambda rng, p=p, ks=ks: {
                "family": "T_ab_lambda", "p": p, "k": rng.choice(ks)}))
    return cells


def oracle_census(tiny: bool = False) -> Workload:
    # the warm-up item (dimension 12, about 50 ms) starts the BLAS threads
    return Workload("oracle_census", _census_cells(tiny), run_census, "R1_l[12]",
                    tail_rounds=2)


# ---------------------------------------------------------------------------
# relation_sweep: construct -> verify -> serialize, no structure call

SWEEP_QS = {"1.3": 1.3, "e^0.37i": cmath.exp(0.37j)}
# Narrow size bands at both ends and the middle of each range: a cell's
# cost then hardly depends on the size drawn in it.
SWEEP_DIM_BANDS = ((21, 25), (98, 102), (190, 201))
SWEEP_P_BANDS = ((44, 52), (72, 80))
SWEEP_WINDOW_BANDS = ((20, 24), (80, 88), (140, 150))
# Items per round of these cells (one for the others): nine R1_l items of
# dimension about 100 put the median in the middle of their block, and seven
# of the largest T_l items put the tail percentile (ten items beyond it in
# three rounds, the fewest a run makes) in the middle of theirs.
SWEEP_REPEAT = {"R1_l[98-102]": 9, "T_l[190-201]": 7}


def _sweep_ctx(item):
    if "p" in item:
        return root_of_unity_ctx(item["p"], 1)
    return generic_ctx(q=SWEEP_QS[item["q"]])


def _payload(rep, window=None) -> int:
    """The ``qso3 construct`` payload: rep_to_json, then json.dumps."""
    if isinstance(rep, repcore.BandedRep):
        w = window
        lo, hi = (-w, w) if rep.n_min is None and rep.n_max is None else (-2 * w, 2 * w)
        data = repcore.rep_to_json(repcore.truncate(rep, lo, hi), rep.family)
    else:
        data = repcore.rep_to_json(rep)
    return len(json.dumps(data))


def run_sweep(item: dict) -> dict:
    ctx = _sweep_ctx(item)
    fam = item["family"]
    params = item["params"]
    window = item.get("window")
    built = registry.build_family(ctx, fam, **params)
    reps = built if isinstance(built, list) else [built]
    rec = {"family": fam, "cell": item["cell"], "dims": [], "residuals": []}
    payload_ok = True
    for rep in reps:
        so3 = isinstance(rep, repcore.So3FiniteRep) or (
            isinstance(rep, repcore.BandedRep) and rep.flavor == "so3")
        verify = repcore.verify_so3 if so3 else repcore.verify_sl2
        checks = [verify(rep) if window is None else verify(rep, window=window)]
        if item.get("compose"):
            image = psihom.compose(rep)
            if isinstance(rep, repcore.Sl2FiniteRep):
                checks += [psihom.verify_psi(rep), repcore.verify_so3(image)]
            else:
                checks.append(repcore.verify_so3(image, window=window))
        rec["residuals"].append([_residual_record(c) for c in checks])
        rec["dims"].append(rep.dim if window is None else window)
        payload_ok = payload_ok and _payload(rep, window) > 2
    rec["ok"] = payload_ok and all(all(c.values()) for r in rec["residuals"] for c in r)
    return rec


def _even(rng, band) -> int:
    lo, hi = band
    return rng.randrange(lo + lo % 2, hi + 1, 2)


def _weight_draw(fam):
    def draw(rng, band):
        q = rng.choice(sorted(SWEEP_QS))
        if fam == "R1_l":
            return {"q": q, "params": {"l": HalfInt(rng.randint(*band) - 1)}}
        if fam == "Ri_l":                 # half-odd l: even dimension
            return {"q": q, "params": {"l": HalfInt(_even(rng, band) - 1),
                                       "sign": rng.choice((1, -1))}}
        if fam == "Rsplit_n":
            return {"q": q, "params": {"n": rng.randint(*band),
                                       "signs": (rng.choice((1, -1)),
                                                 rng.choice((1, -1)))}}
        # T_l: a twisted factor needs half-odd l, a real one takes any l
        omega = rng.choice(tuple(OMEGAS))
        d = rng.randint(*band) if omega in ("1", "-1") else _even(rng, band)
        return {"q": q, "compose": True,
                "params": {"l": HalfInt(d - 1), "omega": omega}}
    return draw


def _root_p_ok(fam, p) -> bool:
    """Roots of unity at which the family has dimension 21 or more."""
    if fam == "R_ab_degen":         # the degenerate lambda needs even p
        return p % 2 == 0
    if fam == "Q_root_comp":        # component dims (p'+-1)/2 or p'+-1
        return p >= 43
    return True                     # wrapped cyclic families: dim p


def _root_draw(fam):
    def draw(rng, band):
        p = rng.choice([p for p in range(band[0], band[1] + 1) if _root_p_ok(fam, p)])
        a, b, lam = _cplx(rng, 0.3, 1.5), _cplx(rng, 0.3, 1.5), _far_lambda(rng)
        if fam in ("R_ab_lambda", "T_ab_lambda", "T_tilde"):
            params = {"a": a, "b": b, "lam": lam}
        elif fam == "T_prime":
            params = {"b": b, "lam": lam}
        elif fam == "Qp_lambda":
            params = {"lam": lam}
        elif fam == "R_ab_degen":
            # off the split condition: the whole family of dimension p (the
            # wrap-free halves have dimension p/4, at most 20 for p <= 80)
            params = {"a": a, "b": b, "variant": rng.choice(("plus", "minus"))}
        elif p % 2:
            params = {"desc": rng.choice(("Q1", "Q1hat", "Qsqrt", "Qsqrt_breve")),
                      "s1": rng.choice((1, -1)), "s2": rng.choice((1, -1))}
        else:
            params = {"desc": rng.choice(("Q1_1", "Q1_2", "Qsqrt_hat")),
                      "s1": rng.choice((1, -1))}
            if params["desc"] == "Qsqrt_hat":
                params["s2"] = rng.choice((1, -1))
        return {"p": p, "params": params}
    return draw


def _lattice_draw(fam):
    def draw(rng, band):
        q = rng.choice(sorted(SWEEP_QS))
        w = rng.randint(*band)
        a = complex(rng.uniform(0.1, 0.4), rng.uniform(0.1, 0.3))
        eps = rng.uniform(0.35, 0.45)
        sign = rng.choice((1, -1))
        out = {"q": q, "window": w}
        if fam == "R_a_eps":
            out["params"] = {"a": a, "eps": complex(eps, 0.2)}
        elif fam == "R_a_special":
            out["params"] = {"a": a, "branch": sign}
        elif fam == "Rsplit_inf":
            out["params"] = {"a_prime": a, "family": sign,
                             "sign": rng.choice((1, -1))}
        elif fam == "R_hw":
            kind = rng.choice(("l+", "l-", "a+", "a-"))
            param = HalfInt(rng.randint(1, 5)) if kind[0] == "l" else a
            out["params"] = {"kind": kind, "param": param}
        elif fam == "Q_lambda":
            out["params"] = {"lam": _cplx(rng, 0.5, 2.0), "sign": sign}
        elif fam == "Q_comp":
            out["params"] = {"which": rng.choice((1, 2)),
                             "at": rng.choice(("1", "sqrt_q")), "sign": sign}
        else:   # T_a_eps, on its own and through the localization map
            out["params"] = {"a": a, "eps": complex(eps, 0.2)}
            out["compose"] = fam == "T_a_eps+compose"
            out["family"] = "T_a_eps"
        return out
    return draw


def _sweep_cells(tiny: bool):
    groups = [
        (("R1_l", "Ri_l", "Rsplit_n", "T_l"), SWEEP_DIM_BANDS, _weight_draw),
        (("R_ab_lambda", "R_ab_degen", "Qp_lambda", "Q_root_comp",
          "T_ab_lambda", "T_prime", "T_tilde"), SWEEP_P_BANDS, _root_draw),
        (("R_a_eps", "R_a_special", "Rsplit_inf", "R_hw", "Q_lambda", "Q_comp",
          "T_a_eps", "T_a_eps+compose"), SWEEP_WINDOW_BANDS, _lattice_draw),
    ]
    cells = []
    for fams, bands, maker in groups:
        for fam in fams:
            for band in bands[:1] if tiny else bands:
                def draw(rng, fam=fam, band=band, inner=maker(fam)):
                    return {"family": fam, **inner(rng, band)}
                cid = f"{fam}[{band[0]}-{band[1]}]"
                cells += [(cid, draw)] * SWEEP_REPEAT.get(cid, 1)
    return cells


def relation_sweep(tiny: bool = False) -> Workload:
    # the warm-up item (dimension about 100) starts the BLAS threads
    warmup = "Ri_l[21-25]" if tiny else "Ri_l[98-102]"
    return Workload("relation_sweep", _sweep_cells(tiny), run_sweep, warmup,
                    tail_rounds=3)


WORKLOADS = {"cg_tables": cg_tables, "oracle_census": oracle_census,
             "relation_sweep": relation_sweep}
