"""Byte-identity gate: every registered family builds exactly the pinned matrices.

Each case is one registry build on a fixed context.  Its digest covers the
family params and flags as JSON and the bytes of every matrix after
``+ 0.0`` (which folds -0.0 into 0.0).  Banded families are pinned through
``truncate_n`` windows, together with the window labels and interior mask.
Any change to a constructor that alters a matrix bit, other than the sign
of a zero, fails here; ``python tests/test_byte_identity.py`` prints the
current digests.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from qso3 import uqso3
from qso3.qscalar import HalfInt, generic_ctx, root_of_unity_ctx
from qso3.registry import REGISTRY, build_family
from qso3.repcore import (BandedRep, FamilyDescriptor, So3FiniteRep,
                          truncate_n)

GENERIC = {"q=1.3": 1.3, "q=e^0.37i": complex(np.exp(0.37j))}
ROOT_PS = (3, 4, 5, 6, 8, 9, 12)
WINDOWS = ((-3, 3), (-1, 24))
CYCLIC_AB = ((0, 0), (0, 0.5), (0.7 + 0.31j, 1.2 - 0.4j))
CYCLIC_LAMS = (1.7 + 0.6j, 0.9 - 0.25j, 2.0)
# roots b of the splitting condition a * prod f_j = b at a = 0.8
SPLIT_B = {4: 2.8124999999999987 - 1.110223024625156e-15j,
           8: 3.16543461535199 + 8.881784197001252e-16j}


def _ctx(key):
    if key.startswith("p="):
        return root_of_unity_ctx(int(key[2:]), 1)
    return generic_ctx(q=GENERIC[key])


def _generic_cases(key):
    out = []
    for tw in (0, 1, 2, 7, 24):
        out.append((key, "R1_l", {"l": HalfInt(tw)}))
        for omega in ("1", "-1", "i", "-i"):
            out.append((key, "T_l", {"l": HalfInt(tw), "omega": omega}))
    for tw in (1, 5, 19):
        for sign in (1, -1):
            out.append((key, "Ri_l", {"l": HalfInt(tw), "sign": sign}))
    for n in (1, 2, 9):
        for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            out.append((key, "Rsplit_n", {"n": n, "signs": signs}))
    banded = [("R_a_eps", {"a": 0.3 + 0.2j, "eps": 0.4}),
              ("T_a_eps", {"a": 0.3 + 0.2j, "eps": 0.4})]
    banded += [("R_a_special", {"a": 0.7, "branch": br}) for br in (1, -1)]
    banded += [("Rsplit_inf", {"a_prime": 0.4 + 0.1j, "family": f, "sign": s})
               for f in (1, -1) for s in (1, -1)]
    banded += [("R_hw", {"kind": k, "param": HalfInt(tw)})
               for k in ("l+", "l-") for tw in (1, 3)]
    banded += [("R_hw", {"kind": k, "param": 0.3 + 0.2j}) for k in ("a+", "a-")]
    banded += [("Q_lambda", {"lam": lam, "sign": s})
               for lam in (0.7 + 0.1j, 1.0) for s in (1, -1)]
    banded += [("Q_comp", {"which": w, "at": at, "sign": s})
               for w in (1, 2) for at in ("1", "sqrt_q") for s in (1, -1)]
    for name, params in banded:
        for window in WINDOWS:
            out.append((key, name, {**params, "window": window}))
    return out


def _root_cases(p):
    key = f"p={p}"
    ctx = _ctx(key)
    pp = ctx.p_prime
    out = []
    for tw in sorted({0, 1, pp - 1}):
        out.append((key, "R1_l", {"l": HalfInt(tw)}))
        out.append((key, "T_l", {"l": HalfInt(tw), "omega": "i"}))
    half_odd = sorted({1, pp - 1 if pp % 2 == 0 else pp - 2})
    for tw in half_odd:
        out.append((key, "Ri_l", {"l": HalfInt(tw), "sign": -1}))
    for n in sorted({1, uqso3.split_n_max(ctx)}):
        for signs in ((1, -1), (-1, 1)):
            out.append((key, "Rsplit_n", {"n": n, "signs": signs}))
    lams = list(CYCLIC_LAMS)
    if p % 2 == 0:
        lams += uqso3.degenerate_lambdas(ctx)
    for a, b in CYCLIC_AB:
        for lam in lams:
            abl = {"a": a, "b": b, "lam": lam}
            out += [(key, "R_ab_lambda", abl), (key, "T_ab_lambda", abl),
                    (key, "T_tilde", abl)]
    for b in (0, 0.5):
        for lam in CYCLIC_LAMS:
            out.append((key, "T_prime", {"b": b, "lam": lam}))
    for lam in (2.0, 0.7 + 0.4j, 1.0, complex(ctx.s), -1.0):
        out.append((key, "Qp_lambda", {"lam": lam}))
    for desc in uqso3.q_root_component_descriptors(ctx):
        params = {"desc": desc[0], "s1": desc[1]}
        if len(desc) == 3:
            params["s2"] = desc[2]
        out.append((key, "Q_root_comp", params))
    if p % 2 == 0:
        ab_points = [(0.5, 0.9)]
        if pp % 2 == 0:
            ab_points.append((0, 0))
        if p in SPLIT_B:
            ab_points.append((0.8, SPLIT_B[p]))
        for a, b in ab_points:
            for variant in ("plus", "minus"):
                out.append((key, "R_ab_degen", {"a": a, "b": b, "variant": variant}))
    return out


CASES = [c for key in GENERIC for c in _generic_cases(key)] + \
    [c for p in ROOT_PS for c in _root_cases(p)]


def case_id(case) -> str:
    key, name, params = case
    inner = ",".join(f"{k}={v}" for k, v in params.items())
    return f"{key}:{name}({inner})"


def _canon(value):
    if isinstance(value, FamilyDescriptor):
        return [value.name, _canon(value.params)]
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()
                if not isinstance(v, np.ndarray)}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, HalfInt):
        return str(value)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, complex, np.number)):
        z = complex(value)
        return [z.real + 0.0, z.imag + 0.0]
    return value


def _matrices(rep, window):
    if isinstance(rep, BandedRep):
        tr = truncate_n(rep, *window)
        return {**tr.matrices, "labels": tr.labels, "interior": tr.interior}
    if isinstance(rep, So3FiniteRep):
        mats = {"I1": rep.I1, "I2": rep.I2, "I3": rep.I3}
    else:
        mats = {"K": rep.K, "Kinv": rep.Kinv, "E": rep.E, "F": rep.F}
    mats.update({k: v for k, v in rep.flags.items() if isinstance(v, np.ndarray)})
    return mats


def case_digest(case) -> str:
    key, name, params = case
    params = dict(params)
    window = params.pop("window", None)
    built = build_family(_ctx(key), name, **params)
    h = hashlib.sha256()
    for rep in built if isinstance(built, list) else [built]:
        meta = {"params": _canon(rep.family.params), "flags": _canon(rep.flags)}
        h.update(json.dumps(meta, sort_keys=True).encode())
        for mname, mat in _matrices(rep, window).items():
            mat = np.asarray(mat)
            h.update(f"{mname}{mat.shape}{mat.dtype}".encode())
            h.update((mat + 0.0 if mat.dtype != bool else mat).tobytes())
    return h.hexdigest()[:16]


DIGESTS = {
    'q=1.3:R1_l(l=0)': 'e64abe1919c517f5',
    'q=1.3:T_l(l=0,omega=1)': '7dbf33908beb91d6',
    'q=1.3:T_l(l=0,omega=-1)': '1bf4b7eb6ce7f954',
    'q=1.3:T_l(l=0,omega=i)': 'b9c01517dc960ae0',
    'q=1.3:T_l(l=0,omega=-i)': '181f1de1163f52f7',
    'q=1.3:R1_l(l=1/2)': '893663ce2765a05b',
    'q=1.3:T_l(l=1/2,omega=1)': 'b7fb3ebc36e58b70',
    'q=1.3:T_l(l=1/2,omega=-1)': 'c6e54373e9e3b216',
    'q=1.3:T_l(l=1/2,omega=i)': '62630dc2a66b5458',
    'q=1.3:T_l(l=1/2,omega=-i)': '8f7caadeffc36aa7',
    'q=1.3:R1_l(l=1)': 'b11d83d3ff15bc5e',
    'q=1.3:T_l(l=1,omega=1)': '16ca55625401a74a',
    'q=1.3:T_l(l=1,omega=-1)': 'c0ba92ccb657604b',
    'q=1.3:T_l(l=1,omega=i)': '34f1a28c9b45571d',
    'q=1.3:T_l(l=1,omega=-i)': 'd04e7012014e5969',
    'q=1.3:R1_l(l=7/2)': '7bebac629e46f65a',
    'q=1.3:T_l(l=7/2,omega=1)': 'a4fab6601be8f81e',
    'q=1.3:T_l(l=7/2,omega=-1)': 'de4ffd941d74f153',
    'q=1.3:T_l(l=7/2,omega=i)': '4fd2d2fa2236db66',
    'q=1.3:T_l(l=7/2,omega=-i)': '1d0deccb7c79119f',
    'q=1.3:R1_l(l=12)': '224206bc7a6cebac',
    'q=1.3:T_l(l=12,omega=1)': '25a87dfe7e630abf',
    'q=1.3:T_l(l=12,omega=-1)': '0fd2dec39346e503',
    'q=1.3:T_l(l=12,omega=i)': 'f9c195dda7a74828',
    'q=1.3:T_l(l=12,omega=-i)': '2c511c97a675a5e3',
    'q=1.3:Ri_l(l=1/2,sign=1)': '1de40d68474e6550',
    'q=1.3:Ri_l(l=1/2,sign=-1)': '502a0f80920bb25d',
    'q=1.3:Ri_l(l=5/2,sign=1)': '9cc158c33d3bec6d',
    'q=1.3:Ri_l(l=5/2,sign=-1)': '112b8603303e26b4',
    'q=1.3:Ri_l(l=19/2,sign=1)': 'd210aa36430cb4ef',
    'q=1.3:Ri_l(l=19/2,sign=-1)': 'aecda3f59dfcd21c',
    'q=1.3:Rsplit_n(n=1,signs=(1, 1))': 'd26f91fecb1bb8a4',
    'q=1.3:Rsplit_n(n=1,signs=(1, -1))': '3992dcd4828e99b5',
    'q=1.3:Rsplit_n(n=1,signs=(-1, 1))': 'f00f332eeb18c1e1',
    'q=1.3:Rsplit_n(n=1,signs=(-1, -1))': '2c7b76f3de16f9fb',
    'q=1.3:Rsplit_n(n=2,signs=(1, 1))': '279c5d1610d22f28',
    'q=1.3:Rsplit_n(n=2,signs=(1, -1))': 'f4136b14661bec81',
    'q=1.3:Rsplit_n(n=2,signs=(-1, 1))': 'd1a1477b32581e2b',
    'q=1.3:Rsplit_n(n=2,signs=(-1, -1))': '92c05f36237939dc',
    'q=1.3:Rsplit_n(n=9,signs=(1, 1))': '5e2275299c7796c8',
    'q=1.3:Rsplit_n(n=9,signs=(1, -1))': '2c39184004f0e3eb',
    'q=1.3:Rsplit_n(n=9,signs=(-1, 1))': '52ddaef819ba9270',
    'q=1.3:Rsplit_n(n=9,signs=(-1, -1))': 'faca5f9c189b1754',
    'q=1.3:R_a_eps(a=(0.3+0.2j),eps=0.4,window=(-3, 3))': '37f331d936785db4',
    'q=1.3:R_a_eps(a=(0.3+0.2j),eps=0.4,window=(-1, 24))': 'b8318f7985653ad3',
    'q=1.3:T_a_eps(a=(0.3+0.2j),eps=0.4,window=(-3, 3))': '511f8f1b3e4f362a',
    'q=1.3:T_a_eps(a=(0.3+0.2j),eps=0.4,window=(-1, 24))': 'b3b37ae855a6b193',
    'q=1.3:R_a_special(a=0.7,branch=1,window=(-3, 3))': 'bad816b34e14e2d0',
    'q=1.3:R_a_special(a=0.7,branch=1,window=(-1, 24))': '8af9ba19218a5930',
    'q=1.3:R_a_special(a=0.7,branch=-1,window=(-3, 3))': '92898f5a74e519ee',
    'q=1.3:R_a_special(a=0.7,branch=-1,window=(-1, 24))': '2dce736b119355d6',
    'q=1.3:Rsplit_inf(a_prime=(0.4+0.1j),family=1,sign=1,window=(-3, 3))': 'a1fe2eecc6bbbf8a',
    'q=1.3:Rsplit_inf(a_prime=(0.4+0.1j),family=1,sign=1,window=(-1, 24))': 'a125aae8caa0645e',
    'q=1.3:Rsplit_inf(a_prime=(0.4+0.1j),family=1,sign=-1,window=(-3, 3))': '0ab3af80f5207ae0',
    'q=1.3:Rsplit_inf(a_prime=(0.4+0.1j),family=1,sign=-1,window=(-1, 24))': '3a975a395eb19616',
    'q=1.3:Rsplit_inf(a_prime=(0.4+0.1j),family=-1,sign=1,window=(-3, 3))': '80414ce1458ba897',
    'q=1.3:Rsplit_inf(a_prime=(0.4+0.1j),family=-1,sign=1,window=(-1, 24))': '947881e6171d475b',
    'q=1.3:Rsplit_inf(a_prime=(0.4+0.1j),family=-1,sign=-1,window=(-3, 3))': 'b98f7dbd4d961afb',
    'q=1.3:Rsplit_inf(a_prime=(0.4+0.1j),family=-1,sign=-1,window=(-1, 24))': '793b06447ad98271',
    'q=1.3:R_hw(kind=l+,param=1/2,window=(-3, 3))': '662d6ed32426c825',
    'q=1.3:R_hw(kind=l+,param=1/2,window=(-1, 24))': 'd636d19d19c0c592',
    'q=1.3:R_hw(kind=l+,param=3/2,window=(-3, 3))': '71e0d331983de90c',
    'q=1.3:R_hw(kind=l+,param=3/2,window=(-1, 24))': '11e3ae4c72821f23',
    'q=1.3:R_hw(kind=l-,param=1/2,window=(-3, 3))': '040198d21509c11e',
    'q=1.3:R_hw(kind=l-,param=1/2,window=(-1, 24))': 'b5f73342036bf53c',
    'q=1.3:R_hw(kind=l-,param=3/2,window=(-3, 3))': '4aa5aeb135547a1a',
    'q=1.3:R_hw(kind=l-,param=3/2,window=(-1, 24))': '6bd228338ee34830',
    'q=1.3:R_hw(kind=a+,param=(0.3+0.2j),window=(-3, 3))': '843c0d3f3c177b77',
    'q=1.3:R_hw(kind=a+,param=(0.3+0.2j),window=(-1, 24))': '59612146174f18f2',
    'q=1.3:R_hw(kind=a-,param=(0.3+0.2j),window=(-3, 3))': '7c17af8b039d6530',
    'q=1.3:R_hw(kind=a-,param=(0.3+0.2j),window=(-1, 24))': '346b323db8efafbc',
    'q=1.3:Q_lambda(lam=(0.7+0.1j),sign=1,window=(-3, 3))': 'f2e7a9e307a0dff9',
    'q=1.3:Q_lambda(lam=(0.7+0.1j),sign=1,window=(-1, 24))': '52c4e7fe821ac9ad',
    'q=1.3:Q_lambda(lam=(0.7+0.1j),sign=-1,window=(-3, 3))': '2d175d1ae935f627',
    'q=1.3:Q_lambda(lam=(0.7+0.1j),sign=-1,window=(-1, 24))': '5391756d48054a01',
    'q=1.3:Q_lambda(lam=1.0,sign=1,window=(-3, 3))': '13dc8bd4b622eb48',
    'q=1.3:Q_lambda(lam=1.0,sign=1,window=(-1, 24))': '12e7bdc190a59170',
    'q=1.3:Q_lambda(lam=1.0,sign=-1,window=(-3, 3))': '5c5fa6b7bd682242',
    'q=1.3:Q_lambda(lam=1.0,sign=-1,window=(-1, 24))': '512ddcfdf80f0db1',
    'q=1.3:Q_comp(which=1,at=1,sign=1,window=(-3, 3))': '58f1eaa5bdaa8700',
    'q=1.3:Q_comp(which=1,at=1,sign=1,window=(-1, 24))': 'c1e3d999a730a0b5',
    'q=1.3:Q_comp(which=1,at=1,sign=-1,window=(-3, 3))': '874358ee33a7bebb',
    'q=1.3:Q_comp(which=1,at=1,sign=-1,window=(-1, 24))': 'c45f9587c0670d10',
    'q=1.3:Q_comp(which=1,at=sqrt_q,sign=1,window=(-3, 3))': 'e154b677636270df',
    'q=1.3:Q_comp(which=1,at=sqrt_q,sign=1,window=(-1, 24))': 'd91269a790eb3766',
    'q=1.3:Q_comp(which=1,at=sqrt_q,sign=-1,window=(-3, 3))': '3eeacee3477f1a5c',
    'q=1.3:Q_comp(which=1,at=sqrt_q,sign=-1,window=(-1, 24))': 'c0a2664557cdd65d',
    'q=1.3:Q_comp(which=2,at=1,sign=1,window=(-3, 3))': 'cabb1e18a7eff4f0',
    'q=1.3:Q_comp(which=2,at=1,sign=1,window=(-1, 24))': '585db5037ad294c4',
    'q=1.3:Q_comp(which=2,at=1,sign=-1,window=(-3, 3))': 'c863c3012e1697fc',
    'q=1.3:Q_comp(which=2,at=1,sign=-1,window=(-1, 24))': '86c03268f3c023e7',
    'q=1.3:Q_comp(which=2,at=sqrt_q,sign=1,window=(-3, 3))': 'ebf9d3773f26fb01',
    'q=1.3:Q_comp(which=2,at=sqrt_q,sign=1,window=(-1, 24))': '9e2f42588a7cfeee',
    'q=1.3:Q_comp(which=2,at=sqrt_q,sign=-1,window=(-3, 3))': '694d43cd2d154356',
    'q=1.3:Q_comp(which=2,at=sqrt_q,sign=-1,window=(-1, 24))': 'bc1d84235eb62ba5',
    'q=e^0.37i:R1_l(l=0)': 'e64abe1919c517f5',
    'q=e^0.37i:T_l(l=0,omega=1)': '7dbf33908beb91d6',
    'q=e^0.37i:T_l(l=0,omega=-1)': '1bf4b7eb6ce7f954',
    'q=e^0.37i:T_l(l=0,omega=i)': 'b9c01517dc960ae0',
    'q=e^0.37i:T_l(l=0,omega=-i)': '181f1de1163f52f7',
    'q=e^0.37i:R1_l(l=1/2)': 'd466565f82a286e2',
    'q=e^0.37i:T_l(l=1/2,omega=1)': '82f0a76a0e15cd4d',
    'q=e^0.37i:T_l(l=1/2,omega=-1)': 'c06e13c81600cd9c',
    'q=e^0.37i:T_l(l=1/2,omega=i)': '59040639b6195e5e',
    'q=e^0.37i:T_l(l=1/2,omega=-i)': 'b96230676e6f0122',
    'q=e^0.37i:R1_l(l=1)': '26c3f1c8082840e7',
    'q=e^0.37i:T_l(l=1,omega=1)': '54fe1ae9df1bb4ce',
    'q=e^0.37i:T_l(l=1,omega=-1)': '3bb120d624f5d510',
    'q=e^0.37i:T_l(l=1,omega=i)': 'fcedc20192eb9da1',
    'q=e^0.37i:T_l(l=1,omega=-i)': '418fa038cd65be58',
    'q=e^0.37i:R1_l(l=7/2)': 'eec8b24dbf26f491',
    'q=e^0.37i:T_l(l=7/2,omega=1)': '04aa2d7f6f165b70',
    'q=e^0.37i:T_l(l=7/2,omega=-1)': '09d7f2b282daa514',
    'q=e^0.37i:T_l(l=7/2,omega=i)': '0b79ee5758f9ff9f',
    'q=e^0.37i:T_l(l=7/2,omega=-i)': 'fcbfdd02b9a06714',
    'q=e^0.37i:R1_l(l=12)': 'a12fc8ae5549957b',
    'q=e^0.37i:T_l(l=12,omega=1)': '19e962b57ed6665f',
    'q=e^0.37i:T_l(l=12,omega=-1)': '41cee92acab82626',
    'q=e^0.37i:T_l(l=12,omega=i)': '74acb73293f2001c',
    'q=e^0.37i:T_l(l=12,omega=-i)': 'f3d4436f74b14306',
    'q=e^0.37i:Ri_l(l=1/2,sign=1)': 'd87c65ec0d2a6f03',
    'q=e^0.37i:Ri_l(l=1/2,sign=-1)': '434926a434940f95',
    'q=e^0.37i:Ri_l(l=5/2,sign=1)': 'cac58a2646a8413e',
    'q=e^0.37i:Ri_l(l=5/2,sign=-1)': 'b27281736cc951d9',
    'q=e^0.37i:Ri_l(l=19/2,sign=1)': '13d966dd4f678d38',
    'q=e^0.37i:Ri_l(l=19/2,sign=-1)': 'a1050562490592f0',
    'q=e^0.37i:Rsplit_n(n=1,signs=(1, 1))': 'cf487b2e12f1d2f2',
    'q=e^0.37i:Rsplit_n(n=1,signs=(1, -1))': 'b5b76ca14e571357',
    'q=e^0.37i:Rsplit_n(n=1,signs=(-1, 1))': '54043bca4ff84c34',
    'q=e^0.37i:Rsplit_n(n=1,signs=(-1, -1))': 'f41952aad26a385f',
    'q=e^0.37i:Rsplit_n(n=2,signs=(1, 1))': '982a50fc9338ddf7',
    'q=e^0.37i:Rsplit_n(n=2,signs=(1, -1))': 'd188f2d97696c094',
    'q=e^0.37i:Rsplit_n(n=2,signs=(-1, 1))': 'fb5c79c6c4a8f767',
    'q=e^0.37i:Rsplit_n(n=2,signs=(-1, -1))': 'ce7001f77ba301aa',
    'q=e^0.37i:Rsplit_n(n=9,signs=(1, 1))': '9c962de3900fd83a',
    'q=e^0.37i:Rsplit_n(n=9,signs=(1, -1))': 'ce5210f0b3a18633',
    'q=e^0.37i:Rsplit_n(n=9,signs=(-1, 1))': '4cef6502ca61a748',
    'q=e^0.37i:Rsplit_n(n=9,signs=(-1, -1))': '62d0329953e98385',
    'q=e^0.37i:R_a_eps(a=(0.3+0.2j),eps=0.4,window=(-3, 3))': '8776dfe095bcdbec',
    'q=e^0.37i:R_a_eps(a=(0.3+0.2j),eps=0.4,window=(-1, 24))': 'e18cd604393c9e2c',
    'q=e^0.37i:T_a_eps(a=(0.3+0.2j),eps=0.4,window=(-3, 3))': '1eabdc1aa4552199',
    'q=e^0.37i:T_a_eps(a=(0.3+0.2j),eps=0.4,window=(-1, 24))': '1bdb99263a8ff33a',
    'q=e^0.37i:R_a_special(a=0.7,branch=1,window=(-3, 3))': '91f483cebcb08691',
    'q=e^0.37i:R_a_special(a=0.7,branch=1,window=(-1, 24))': 'a296f757d25a4e8f',
    'q=e^0.37i:R_a_special(a=0.7,branch=-1,window=(-3, 3))': '3ddcefa6975a7e33',
    'q=e^0.37i:R_a_special(a=0.7,branch=-1,window=(-1, 24))': '5103b0c4dbdefb42',
    'q=e^0.37i:Rsplit_inf(a_prime=(0.4+0.1j),family=1,sign=1,window=(-3, 3))': '21a52b41d0df2514',
    'q=e^0.37i:Rsplit_inf(a_prime=(0.4+0.1j),family=1,sign=1,window=(-1, 24))': '66430f916752a7f8',
    'q=e^0.37i:Rsplit_inf(a_prime=(0.4+0.1j),family=1,sign=-1,window=(-3, 3))': '1cda6bce6969c481',
    'q=e^0.37i:Rsplit_inf(a_prime=(0.4+0.1j),family=1,sign=-1,window=(-1, 24))': '8adecede816c595b',
    'q=e^0.37i:Rsplit_inf(a_prime=(0.4+0.1j),family=-1,sign=1,window=(-3, 3))': 'bc1ec225e4ae61a2',
    'q=e^0.37i:Rsplit_inf(a_prime=(0.4+0.1j),family=-1,sign=1,window=(-1, 24))': '5f79828ea45872c7',
    'q=e^0.37i:Rsplit_inf(a_prime=(0.4+0.1j),family=-1,sign=-1,window=(-3, 3))': 'a7abc0d69d7ba47f',
    'q=e^0.37i:Rsplit_inf(a_prime=(0.4+0.1j),family=-1,sign=-1,window=(-1, 24))': 'e50b3dadf269f4b0',
    'q=e^0.37i:R_hw(kind=l+,param=1/2,window=(-3, 3))': 'eeab0d808cbeae9a',
    'q=e^0.37i:R_hw(kind=l+,param=1/2,window=(-1, 24))': '87353b1b3eb650f3',
    'q=e^0.37i:R_hw(kind=l+,param=3/2,window=(-3, 3))': '807a3d5678d7e5f3',
    'q=e^0.37i:R_hw(kind=l+,param=3/2,window=(-1, 24))': '4639b491910f0677',
    'q=e^0.37i:R_hw(kind=l-,param=1/2,window=(-3, 3))': '0fc872cd9e1ce8f2',
    'q=e^0.37i:R_hw(kind=l-,param=1/2,window=(-1, 24))': 'dd71ec9d547b9bb7',
    'q=e^0.37i:R_hw(kind=l-,param=3/2,window=(-3, 3))': '63c0adf3313aef98',
    'q=e^0.37i:R_hw(kind=l-,param=3/2,window=(-1, 24))': '8c709ee4de210911',
    'q=e^0.37i:R_hw(kind=a+,param=(0.3+0.2j),window=(-3, 3))': '76c9690d281868f1',
    'q=e^0.37i:R_hw(kind=a+,param=(0.3+0.2j),window=(-1, 24))': '9f54fa5889135230',
    'q=e^0.37i:R_hw(kind=a-,param=(0.3+0.2j),window=(-3, 3))': '4bc95c4d8328e09b',
    'q=e^0.37i:R_hw(kind=a-,param=(0.3+0.2j),window=(-1, 24))': 'f8aa6bdddba847ad',
    'q=e^0.37i:Q_lambda(lam=(0.7+0.1j),sign=1,window=(-3, 3))': 'cc79e8ac4dbd0cd4',
    'q=e^0.37i:Q_lambda(lam=(0.7+0.1j),sign=1,window=(-1, 24))': '1405011e11352911',
    'q=e^0.37i:Q_lambda(lam=(0.7+0.1j),sign=-1,window=(-3, 3))': '14d7efcf2e8d8ffb',
    'q=e^0.37i:Q_lambda(lam=(0.7+0.1j),sign=-1,window=(-1, 24))': 'f0b8f34383851e5e',
    'q=e^0.37i:Q_lambda(lam=1.0,sign=1,window=(-3, 3))': 'cfd915ddd5969117',
    'q=e^0.37i:Q_lambda(lam=1.0,sign=1,window=(-1, 24))': 'c8380a0dba5f393f',
    'q=e^0.37i:Q_lambda(lam=1.0,sign=-1,window=(-3, 3))': 'f26e68dd991e2dff',
    'q=e^0.37i:Q_lambda(lam=1.0,sign=-1,window=(-1, 24))': '30761cf8918900bf',
    'q=e^0.37i:Q_comp(which=1,at=1,sign=1,window=(-3, 3))': '2f32cd5e4ef52d8d',
    'q=e^0.37i:Q_comp(which=1,at=1,sign=1,window=(-1, 24))': 'd50a00e514241653',
    'q=e^0.37i:Q_comp(which=1,at=1,sign=-1,window=(-3, 3))': 'c40deb7f345c43b4',
    'q=e^0.37i:Q_comp(which=1,at=1,sign=-1,window=(-1, 24))': 'e691d842060351a5',
    'q=e^0.37i:Q_comp(which=1,at=sqrt_q,sign=1,window=(-3, 3))': '56bb52405d6c04a1',
    'q=e^0.37i:Q_comp(which=1,at=sqrt_q,sign=1,window=(-1, 24))': '04f25f3bea957230',
    'q=e^0.37i:Q_comp(which=1,at=sqrt_q,sign=-1,window=(-3, 3))': '4269d8e435c2152a',
    'q=e^0.37i:Q_comp(which=1,at=sqrt_q,sign=-1,window=(-1, 24))': '50a031f3aceb6e9a',
    'q=e^0.37i:Q_comp(which=2,at=1,sign=1,window=(-3, 3))': '50b32d18cd018cc4',
    'q=e^0.37i:Q_comp(which=2,at=1,sign=1,window=(-1, 24))': 'd4e8c3a9b3be9b39',
    'q=e^0.37i:Q_comp(which=2,at=1,sign=-1,window=(-3, 3))': 'c522fa6afb32badb',
    'q=e^0.37i:Q_comp(which=2,at=1,sign=-1,window=(-1, 24))': 'e590df16aa5137d8',
    'q=e^0.37i:Q_comp(which=2,at=sqrt_q,sign=1,window=(-3, 3))': 'cd2cba1178d37a87',
    'q=e^0.37i:Q_comp(which=2,at=sqrt_q,sign=1,window=(-1, 24))': '0d06df04cac3adeb',
    'q=e^0.37i:Q_comp(which=2,at=sqrt_q,sign=-1,window=(-3, 3))': 'e5361517cd325c76',
    'q=e^0.37i:Q_comp(which=2,at=sqrt_q,sign=-1,window=(-1, 24))': '9b266e7ef36a7a10',
    'p=3:R1_l(l=0)': 'e64abe1919c517f5',
    'p=3:T_l(l=0,omega=i)': 'b9c01517dc960ae0',
    'p=3:R1_l(l=1/2)': '6a822960a0637338',
    'p=3:T_l(l=1/2,omega=i)': 'c904b75a3d3473c8',
    'p=3:R1_l(l=1)': 'ea9f114592d37380',
    'p=3:T_l(l=1,omega=i)': '4b952307eb5ec5a9',
    'p=3:Ri_l(l=1/2,sign=-1)': 'e109cbcaaab3bb9e',
    'p=3:Rsplit_n(n=1,signs=(1, -1))': '16449bb387c0cd43',
    'p=3:Rsplit_n(n=1,signs=(-1, 1))': 'cd44b699a32d874d',
    'p=3:R_ab_lambda(a=0,b=0,lam=(1.7+0.6j))': '18d34cb338113775',
    'p=3:T_ab_lambda(a=0,b=0,lam=(1.7+0.6j))': 'd638f16a85a221af',
    'p=3:T_tilde(a=0,b=0,lam=(1.7+0.6j))': 'ba629b4b71ad3109',
    'p=3:R_ab_lambda(a=0,b=0,lam=(0.9-0.25j))': '607f82ae09aac46f',
    'p=3:T_ab_lambda(a=0,b=0,lam=(0.9-0.25j))': '3e724ea9601a11e5',
    'p=3:T_tilde(a=0,b=0,lam=(0.9-0.25j))': 'c7d0feb55d469dfc',
    'p=3:R_ab_lambda(a=0,b=0,lam=2.0)': 'f00c11e873c2ed66',
    'p=3:T_ab_lambda(a=0,b=0,lam=2.0)': 'e340714cf7594ee3',
    'p=3:T_tilde(a=0,b=0,lam=2.0)': 'ace0b81740508bb7',
    'p=3:R_ab_lambda(a=0,b=0.5,lam=(1.7+0.6j))': '5e9b7ae779b7649b',
    'p=3:T_ab_lambda(a=0,b=0.5,lam=(1.7+0.6j))': '4b25672d6ff50930',
    'p=3:T_tilde(a=0,b=0.5,lam=(1.7+0.6j))': '71889572f8cdd794',
    'p=3:R_ab_lambda(a=0,b=0.5,lam=(0.9-0.25j))': '1cb5b966fb7ba35f',
    'p=3:T_ab_lambda(a=0,b=0.5,lam=(0.9-0.25j))': 'a5eb5acea90653dc',
    'p=3:T_tilde(a=0,b=0.5,lam=(0.9-0.25j))': 'c719e56de4fa6afa',
    'p=3:R_ab_lambda(a=0,b=0.5,lam=2.0)': '48dfdf46b55eaca9',
    'p=3:T_ab_lambda(a=0,b=0.5,lam=2.0)': '0d9063039c67a552',
    'p=3:T_tilde(a=0,b=0.5,lam=2.0)': '370773c664776731',
    'p=3:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(1.7+0.6j))': '9672f1ef993f03b5',
    'p=3:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(1.7+0.6j))': '655e0768b875e501',
    'p=3:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=(1.7+0.6j))': 'e77f72b4017073f3',
    'p=3:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.9-0.25j))': '7b6ae963c2d192f5',
    'p=3:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.9-0.25j))': 'd08769599d2ef828',
    'p=3:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.9-0.25j))': '5474048ca6f88377',
    'p=3:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=2.0)': '5d82c646d7125d3c',
    'p=3:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=2.0)': '18cd0a47242c2b0a',
    'p=3:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=2.0)': '97fff3a0d6e5bdb7',
    'p=3:T_prime(b=0,lam=(1.7+0.6j))': '5c334c5d2e7cd267',
    'p=3:T_prime(b=0,lam=(0.9-0.25j))': '7c8ee37f74d20875',
    'p=3:T_prime(b=0,lam=2.0)': '090db8ea0b225d40',
    'p=3:T_prime(b=0.5,lam=(1.7+0.6j))': 'ff412d27dcff1240',
    'p=3:T_prime(b=0.5,lam=(0.9-0.25j))': 'd90be72900ba63ee',
    'p=3:T_prime(b=0.5,lam=2.0)': 'f53fe2009cbc8d1c',
    'p=3:Qp_lambda(lam=2.0)': 'a793e720179aff69',
    'p=3:Qp_lambda(lam=(0.7+0.4j))': 'cb0f9af9aef46d7b',
    'p=3:Qp_lambda(lam=1.0)': '4e5655665e3862e4',
    'p=3:Qp_lambda(lam=(0.5000000000000001+0.8660254037844386j))': '0796686c29637017',
    'p=3:Qp_lambda(lam=-1.0)': 'c26b89f4b5a2fd5b',
    'p=3:Q_root_comp(desc=Q1,s1=1,s2=1)': 'c24c474093009801',
    'p=3:Q_root_comp(desc=Q1,s1=1,s2=-1)': 'a70d4fd74f28169d',
    'p=3:Q_root_comp(desc=Q1,s1=-1,s2=1)': '24244b412e459e8c',
    'p=3:Q_root_comp(desc=Q1,s1=-1,s2=-1)': '02cc6d637094f2b1',
    'p=3:Q_root_comp(desc=Q1hat,s1=1,s2=1)': '39b130177f8f257c',
    'p=3:Q_root_comp(desc=Q1hat,s1=1,s2=-1)': '6ce7db06b0c693f9',
    'p=3:Q_root_comp(desc=Q1hat,s1=-1,s2=1)': 'a5d602ca29c38891',
    'p=3:Q_root_comp(desc=Q1hat,s1=-1,s2=-1)': '9c9bdc7e21116c7c',
    'p=3:Q_root_comp(desc=Qsqrt,s1=1,s2=1)': 'dad9f606595ac530',
    'p=3:Q_root_comp(desc=Qsqrt,s1=1,s2=-1)': 'a73d914e7fdddfc4',
    'p=3:Q_root_comp(desc=Qsqrt,s1=-1,s2=1)': 'e5c46ac503ed2f40',
    'p=3:Q_root_comp(desc=Qsqrt,s1=-1,s2=-1)': 'b96b243c5ebc17e9',
    'p=3:Q_root_comp(desc=Qsqrt_breve,s1=1,s2=1)': '52c62322dad4693c',
    'p=3:Q_root_comp(desc=Qsqrt_breve,s1=1,s2=-1)': '5eb81380272ab7c2',
    'p=3:Q_root_comp(desc=Qsqrt_breve,s1=-1,s2=1)': '9eb7ede79b51132c',
    'p=3:Q_root_comp(desc=Qsqrt_breve,s1=-1,s2=-1)': 'e56d23b164220561',
    'p=4:R1_l(l=0)': 'e64abe1919c517f5',
    'p=4:T_l(l=0,omega=i)': 'b9c01517dc960ae0',
    'p=4:R1_l(l=1/2)': '8239eb6368942cc4',
    'p=4:T_l(l=1/2,omega=i)': '2538eace841b165f',
    'p=4:Ri_l(l=1/2,sign=-1)': 'de03dd3ea97e3b88',
    'p=4:Rsplit_n(n=1,signs=(1, -1))': '7181f2dd54bc7b48',
    'p=4:Rsplit_n(n=1,signs=(-1, 1))': '8ebe2647d2924eea',
    'p=4:R_ab_lambda(a=0,b=0,lam=(1.7+0.6j))': 'ed22986438c7f490',
    'p=4:T_ab_lambda(a=0,b=0,lam=(1.7+0.6j))': '01a257c75d6f2f60',
    'p=4:T_tilde(a=0,b=0,lam=(1.7+0.6j))': '34c3e177865a6d9f',
    'p=4:R_ab_lambda(a=0,b=0,lam=(0.9-0.25j))': '571e837acbf61334',
    'p=4:T_ab_lambda(a=0,b=0,lam=(0.9-0.25j))': 'a2b29c656baf156e',
    'p=4:T_tilde(a=0,b=0,lam=(0.9-0.25j))': 'fc73f10f52451c4c',
    'p=4:R_ab_lambda(a=0,b=0,lam=2.0)': 'd9c13dfbcf1619e2',
    'p=4:T_ab_lambda(a=0,b=0,lam=2.0)': '42557efa6f4c9077',
    'p=4:T_tilde(a=0,b=0,lam=2.0)': 'dc0157199bb59751',
    'p=4:R_ab_lambda(a=0,b=0,lam=(-0.7071067811865474+0.7071067811865477j))': 'ebe0a3aae09911ce',
    'p=4:T_ab_lambda(a=0,b=0,lam=(-0.7071067811865474+0.7071067811865477j))': '2e5e1a0cd24daea9',
    'p=4:T_tilde(a=0,b=0,lam=(-0.7071067811865474+0.7071067811865477j))': 'b810ddb489d8f571',
    'p=4:R_ab_lambda(a=0,b=0,lam=(0.7071067811865474-0.7071067811865477j))': '0db1960a08157345',
    'p=4:T_ab_lambda(a=0,b=0,lam=(0.7071067811865474-0.7071067811865477j))': 'c72594f4bad415ed',
    'p=4:T_tilde(a=0,b=0,lam=(0.7071067811865474-0.7071067811865477j))': 'fb28f124ebfe1445',
    'p=4:R_ab_lambda(a=0,b=0.5,lam=(1.7+0.6j))': '84187950b2dcb793',
    'p=4:T_ab_lambda(a=0,b=0.5,lam=(1.7+0.6j))': '132a1a3d7dc750ad',
    'p=4:T_tilde(a=0,b=0.5,lam=(1.7+0.6j))': '7473f47e8c14b912',
    'p=4:R_ab_lambda(a=0,b=0.5,lam=(0.9-0.25j))': 'c2fda473c1116b15',
    'p=4:T_ab_lambda(a=0,b=0.5,lam=(0.9-0.25j))': 'fd2f6069da45bf9b',
    'p=4:T_tilde(a=0,b=0.5,lam=(0.9-0.25j))': '6abdf15dbd4ba41f',
    'p=4:R_ab_lambda(a=0,b=0.5,lam=2.0)': '8f1e91eb5d3f7253',
    'p=4:T_ab_lambda(a=0,b=0.5,lam=2.0)': 'ff2f0f0717d4e63f',
    'p=4:T_tilde(a=0,b=0.5,lam=2.0)': '102541f90d86f72e',
    'p=4:R_ab_lambda(a=0,b=0.5,lam=(-0.7071067811865474+0.7071067811865477j))': 'd586dd4dd087ef96',
    'p=4:T_ab_lambda(a=0,b=0.5,lam=(-0.7071067811865474+0.7071067811865477j))': '5b86bb80ad9a9909',
    'p=4:T_tilde(a=0,b=0.5,lam=(-0.7071067811865474+0.7071067811865477j))': 'd3e2e258a2284a8e',
    'p=4:R_ab_lambda(a=0,b=0.5,lam=(0.7071067811865474-0.7071067811865477j))': '4d779662c1422613',
    'p=4:T_ab_lambda(a=0,b=0.5,lam=(0.7071067811865474-0.7071067811865477j))': '9d38da0e173346e8',
    'p=4:T_tilde(a=0,b=0.5,lam=(0.7071067811865474-0.7071067811865477j))': 'c7f7fba11da4de5e',
    'p=4:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(1.7+0.6j))': 'd86edb4038fc699d',
    'p=4:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(1.7+0.6j))': '6de78ee0518beb9c',
    'p=4:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=(1.7+0.6j))': 'ab47e61ca08ac6f5',
    'p=4:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.9-0.25j))': '8cd4d2e0ece2a520',
    'p=4:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.9-0.25j))': 'bd87d3dcfa2894e0',
    'p=4:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.9-0.25j))': '7553c6e42082af1b',
    'p=4:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=2.0)': 'c9e46a5a6f33acae',
    'p=4:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=2.0)': 'b9ebc53d71cbc2b4',
    'p=4:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=2.0)': 'e27aa6add3d4b762',
    'p=4:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(-0.7071067811865474+0.7071067811865477j))': 'f27056e5b3df2b41',
    'p=4:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(-0.7071067811865474+0.7071067811865477j))': 'a0432b21159f4247',
    'p=4:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=(-0.7071067811865474+0.7071067811865477j))': '047a4652e40d00f5',
    'p=4:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.7071067811865474-0.7071067811865477j))': 'bbd457ddf013b79a',
    'p=4:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.7071067811865474-0.7071067811865477j))': 'a88df0dc894d665d',
    'p=4:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.7071067811865474-0.7071067811865477j))': 'e262c27fc6837238',
    'p=4:T_prime(b=0,lam=(1.7+0.6j))': 'd6a4765e772452f0',
    'p=4:T_prime(b=0,lam=(0.9-0.25j))': 'b49c7bf30b4784ee',
    'p=4:T_prime(b=0,lam=2.0)': '96cf131db68a90dd',
    'p=4:T_prime(b=0.5,lam=(1.7+0.6j))': '25db2a09a5786fd9',
    'p=4:T_prime(b=0.5,lam=(0.9-0.25j))': 'ada2a8a6537661ec',
    'p=4:T_prime(b=0.5,lam=2.0)': 'de9c34e13762e7e2',
    'p=4:Qp_lambda(lam=2.0)': '872f355389cb76cf',
    'p=4:Qp_lambda(lam=(0.7+0.4j))': 'e0e464772380bd79',
    'p=4:Qp_lambda(lam=1.0)': 'c58ebd45f9572bfd',
    'p=4:Qp_lambda(lam=(0.7071067811865476+0.7071067811865475j))': '1b46f1ff9d41fd41',
    'p=4:Qp_lambda(lam=-1.0)': '5973cd20a3d2e0ca',
    'p=4:Q_root_comp(desc=Q1_1,s1=1)': '1825951270751201',
    'p=4:Q_root_comp(desc=Q1_1,s1=-1)': '640b65efb0d23e55',
    'p=4:Q_root_comp(desc=Q1_2,s1=1)': 'ee08a68d447ad795',
    'p=4:Q_root_comp(desc=Q1_2,s1=-1)': '38a3fe171934a4bd',
    'p=4:Q_root_comp(desc=Qsqrt_hat,s1=1,s2=1)': '605351186a348882',
    'p=4:Q_root_comp(desc=Qsqrt_hat,s1=1,s2=-1)': '404ac5e35c84f179',
    'p=4:Q_root_comp(desc=Qsqrt_hat,s1=-1,s2=1)': '1f82980fb4f06a59',
    'p=4:Q_root_comp(desc=Qsqrt_hat,s1=-1,s2=-1)': '4a632dc973204fd8',
    'p=4:R_ab_degen(a=0.5,b=0.9,variant=plus)': 'ebd82d39b27be8bc',
    'p=4:R_ab_degen(a=0.5,b=0.9,variant=minus)': '2dd47b251eb5e5a3',
    'p=4:R_ab_degen(a=0,b=0,variant=plus)': 'd5d210973139c4f2',
    'p=4:R_ab_degen(a=0,b=0,variant=minus)': 'b20f69534eb0909e',
    'p=4:R_ab_degen(a=0.8,b=(2.8124999999999987-1.110223024625156e-15j),variant=plus)': '79e8d4fd5e60a4b7',
    'p=4:R_ab_degen(a=0.8,b=(2.8124999999999987-1.110223024625156e-15j),variant=minus)': '5f7ceb0c96f0e06a',
    'p=5:R1_l(l=0)': 'e64abe1919c517f5',
    'p=5:T_l(l=0,omega=i)': 'b9c01517dc960ae0',
    'p=5:R1_l(l=1/2)': '9630df68c86a1075',
    'p=5:T_l(l=1/2,omega=i)': '295eaf110b9b6041',
    'p=5:R1_l(l=2)': '857223929910151d',
    'p=5:T_l(l=2,omega=i)': '5411328018b9517a',
    'p=5:Ri_l(l=1/2,sign=-1)': '5d7110aca59d7c48',
    'p=5:Ri_l(l=3/2,sign=-1)': '573d8ab3d79559b5',
    'p=5:Rsplit_n(n=1,signs=(1, -1))': '90724c2613ea08a3',
    'p=5:Rsplit_n(n=1,signs=(-1, 1))': 'a1658352e685287c',
    'p=5:Rsplit_n(n=2,signs=(1, -1))': '9a64a0acb8c73dd4',
    'p=5:Rsplit_n(n=2,signs=(-1, 1))': '6c7c77775b0d8b32',
    'p=5:R_ab_lambda(a=0,b=0,lam=(1.7+0.6j))': 'ecf103c632758b55',
    'p=5:T_ab_lambda(a=0,b=0,lam=(1.7+0.6j))': '7350054e71b99439',
    'p=5:T_tilde(a=0,b=0,lam=(1.7+0.6j))': '9630b129d4843f19',
    'p=5:R_ab_lambda(a=0,b=0,lam=(0.9-0.25j))': '58d8cb1eecb90ddd',
    'p=5:T_ab_lambda(a=0,b=0,lam=(0.9-0.25j))': '23009dce866ad706',
    'p=5:T_tilde(a=0,b=0,lam=(0.9-0.25j))': '9975bbdcb4b21581',
    'p=5:R_ab_lambda(a=0,b=0,lam=2.0)': 'd876cf2f54304cf0',
    'p=5:T_ab_lambda(a=0,b=0,lam=2.0)': '92c320be288b523f',
    'p=5:T_tilde(a=0,b=0,lam=2.0)': 'c603e9aed3c99df9',
    'p=5:R_ab_lambda(a=0,b=0.5,lam=(1.7+0.6j))': '071f7b825c8e4a0f',
    'p=5:T_ab_lambda(a=0,b=0.5,lam=(1.7+0.6j))': '97c7964455845f5a',
    'p=5:T_tilde(a=0,b=0.5,lam=(1.7+0.6j))': '74b5516188b1b3de',
    'p=5:R_ab_lambda(a=0,b=0.5,lam=(0.9-0.25j))': 'f5a4f55e7ef40299',
    'p=5:T_ab_lambda(a=0,b=0.5,lam=(0.9-0.25j))': '2ffc0f40dc467b43',
    'p=5:T_tilde(a=0,b=0.5,lam=(0.9-0.25j))': '3e437084d722dcef',
    'p=5:R_ab_lambda(a=0,b=0.5,lam=2.0)': 'cd1a577d76a206f1',
    'p=5:T_ab_lambda(a=0,b=0.5,lam=2.0)': '083784fc767860f2',
    'p=5:T_tilde(a=0,b=0.5,lam=2.0)': '09b2f1fec0d47a2f',
    'p=5:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(1.7+0.6j))': '589a566750f6b31f',
    'p=5:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(1.7+0.6j))': '6078e930c8eddc2d',
    'p=5:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=(1.7+0.6j))': '72c47ad653742004',
    'p=5:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.9-0.25j))': 'cb9c68a170643e7f',
    'p=5:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.9-0.25j))': '47a38253914947f5',
    'p=5:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.9-0.25j))': '88cfe5b3aab321e8',
    'p=5:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=2.0)': '869af508d31b0ab0',
    'p=5:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=2.0)': '87dba0329117d60b',
    'p=5:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=2.0)': '4844c33a2c452653',
    'p=5:T_prime(b=0,lam=(1.7+0.6j))': '0e3104d3b164b12d',
    'p=5:T_prime(b=0,lam=(0.9-0.25j))': '870ee57633613802',
    'p=5:T_prime(b=0,lam=2.0)': 'a4a12afa51a3ea6b',
    'p=5:T_prime(b=0.5,lam=(1.7+0.6j))': 'abdd24aac17395d8',
    'p=5:T_prime(b=0.5,lam=(0.9-0.25j))': 'dd24d17953e6d9bb',
    'p=5:T_prime(b=0.5,lam=2.0)': 'ef4e68b8f4a9dba2',
    'p=5:Qp_lambda(lam=2.0)': 'fa53e9068724adcf',
    'p=5:Qp_lambda(lam=(0.7+0.4j))': '19d01867d88ecf49',
    'p=5:Qp_lambda(lam=1.0)': '5eecf795c2f909f8',
    'p=5:Qp_lambda(lam=(0.8090169943749475+0.5877852522924731j))': 'a356f9a67f962c18',
    'p=5:Qp_lambda(lam=-1.0)': '75ad06e74296bfd3',
    'p=5:Q_root_comp(desc=Q1,s1=1,s2=1)': '903f9802dd8e0862',
    'p=5:Q_root_comp(desc=Q1,s1=1,s2=-1)': '7392021c55cd7b6b',
    'p=5:Q_root_comp(desc=Q1,s1=-1,s2=1)': '81222988a27d2485',
    'p=5:Q_root_comp(desc=Q1,s1=-1,s2=-1)': '3199b7d7dbfe61eb',
    'p=5:Q_root_comp(desc=Q1hat,s1=1,s2=1)': '6cadb4be33e2f223',
    'p=5:Q_root_comp(desc=Q1hat,s1=1,s2=-1)': 'd1aa9d19ceb02727',
    'p=5:Q_root_comp(desc=Q1hat,s1=-1,s2=1)': '7743facf1e21018c',
    'p=5:Q_root_comp(desc=Q1hat,s1=-1,s2=-1)': '1e11b8951899d2a8',
    'p=5:Q_root_comp(desc=Qsqrt,s1=1,s2=1)': 'f873aabb1f47b4e4',
    'p=5:Q_root_comp(desc=Qsqrt,s1=1,s2=-1)': 'af15bf0dd7a5c319',
    'p=5:Q_root_comp(desc=Qsqrt,s1=-1,s2=1)': '8377d4fd8ea8a8f1',
    'p=5:Q_root_comp(desc=Qsqrt,s1=-1,s2=-1)': '06d066497246ee1e',
    'p=5:Q_root_comp(desc=Qsqrt_breve,s1=1,s2=1)': 'bc73c2e7dec22874',
    'p=5:Q_root_comp(desc=Qsqrt_breve,s1=1,s2=-1)': '0265bcd82065de31',
    'p=5:Q_root_comp(desc=Qsqrt_breve,s1=-1,s2=1)': 'ff1fde7bb7d69b54',
    'p=5:Q_root_comp(desc=Qsqrt_breve,s1=-1,s2=-1)': '7f5e7c023b7bf06d',
    'p=6:R1_l(l=0)': 'e64abe1919c517f5',
    'p=6:T_l(l=0,omega=i)': 'b9c01517dc960ae0',
    'p=6:R1_l(l=1/2)': 'b9f8230c67546021',
    'p=6:T_l(l=1/2,omega=i)': '6175b6e8d4e7c75c',
    'p=6:R1_l(l=1)': '13c2534cefc5e162',
    'p=6:T_l(l=1,omega=i)': 'c9a24e174c07528e',
    'p=6:Ri_l(l=1/2,sign=-1)': '661822a42d0b7c95',
    'p=6:Rsplit_n(n=1,signs=(1, -1))': '8869eebbd1fbd8a9',
    'p=6:Rsplit_n(n=1,signs=(-1, 1))': '005b9705433bea6d',
    'p=6:R_ab_lambda(a=0,b=0,lam=(1.7+0.6j))': '43ae038d78502321',
    'p=6:T_ab_lambda(a=0,b=0,lam=(1.7+0.6j))': '6c3cfa1aa5b94585',
    'p=6:T_tilde(a=0,b=0,lam=(1.7+0.6j))': '87ce7d2a1abbda92',
    'p=6:R_ab_lambda(a=0,b=0,lam=(0.9-0.25j))': 'ef3b995b20518919',
    'p=6:T_ab_lambda(a=0,b=0,lam=(0.9-0.25j))': '740d6bd74aa9541c',
    'p=6:T_tilde(a=0,b=0,lam=(0.9-0.25j))': 'ccf201fd8acd4f46',
    'p=6:R_ab_lambda(a=0,b=0,lam=2.0)': '40f5b100f3140282',
    'p=6:T_ab_lambda(a=0,b=0,lam=2.0)': '4068a67cd3187032',
    'p=6:T_tilde(a=0,b=0,lam=2.0)': '012a1e3c843f5602',
    'p=6:R_ab_lambda(a=0,b=0,lam=(-0.8660254037844385+0.5000000000000006j))': 'b2afa34165b7723d',
    'p=6:T_ab_lambda(a=0,b=0,lam=(-0.8660254037844385+0.5000000000000006j))': '14c02cf5e163c1fd',
    'p=6:T_tilde(a=0,b=0,lam=(-0.8660254037844385+0.5000000000000006j))': '6311adbf6b3aa7b0',
    'p=6:R_ab_lambda(a=0,b=0,lam=(0.8660254037844385-0.5000000000000006j))': '37c7b5736e4cfaa0',
    'p=6:T_ab_lambda(a=0,b=0,lam=(0.8660254037844385-0.5000000000000006j))': '1574337fd0d82b4f',
    'p=6:T_tilde(a=0,b=0,lam=(0.8660254037844385-0.5000000000000006j))': '38c2a550b060109f',
    'p=6:R_ab_lambda(a=0,b=0.5,lam=(1.7+0.6j))': '099349d9fe1cbdea',
    'p=6:T_ab_lambda(a=0,b=0.5,lam=(1.7+0.6j))': '2df672147e6a8f3b',
    'p=6:T_tilde(a=0,b=0.5,lam=(1.7+0.6j))': 'ee87db38b186cc56',
    'p=6:R_ab_lambda(a=0,b=0.5,lam=(0.9-0.25j))': '02990aa4a46b3363',
    'p=6:T_ab_lambda(a=0,b=0.5,lam=(0.9-0.25j))': 'eb026b3f7a8ca0de',
    'p=6:T_tilde(a=0,b=0.5,lam=(0.9-0.25j))': '7bf6075579ed9f9f',
    'p=6:R_ab_lambda(a=0,b=0.5,lam=2.0)': '9664d3b631f6809b',
    'p=6:T_ab_lambda(a=0,b=0.5,lam=2.0)': 'd9d5d6247715a2ae',
    'p=6:T_tilde(a=0,b=0.5,lam=2.0)': 'b9ed2b63dc204557',
    'p=6:R_ab_lambda(a=0,b=0.5,lam=(-0.8660254037844385+0.5000000000000006j))': 'c9342a24d036a9d9',
    'p=6:T_ab_lambda(a=0,b=0.5,lam=(-0.8660254037844385+0.5000000000000006j))': 'e0fd9b2495371df5',
    'p=6:T_tilde(a=0,b=0.5,lam=(-0.8660254037844385+0.5000000000000006j))': '94e7d0e5fa39c4cb',
    'p=6:R_ab_lambda(a=0,b=0.5,lam=(0.8660254037844385-0.5000000000000006j))': '9090ce4f0a6bcc22',
    'p=6:T_ab_lambda(a=0,b=0.5,lam=(0.8660254037844385-0.5000000000000006j))': '86e1ac0720a71bd1',
    'p=6:T_tilde(a=0,b=0.5,lam=(0.8660254037844385-0.5000000000000006j))': 'f706a36e6111f211',
    'p=6:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(1.7+0.6j))': 'c01978e51cfdffe6',
    'p=6:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(1.7+0.6j))': '86ab2cbad9bf539c',
    'p=6:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=(1.7+0.6j))': '0e105b1d29525cbb',
    'p=6:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.9-0.25j))': '4f7edcd09eec4120',
    'p=6:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.9-0.25j))': '1cb08a00882803f2',
    'p=6:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.9-0.25j))': '53e897c41a09fd53',
    'p=6:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=2.0)': '854e65153d91e6ad',
    'p=6:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=2.0)': '1dd658864ba354ee',
    'p=6:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=2.0)': '65cfd15f0b08de91',
    'p=6:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(-0.8660254037844385+0.5000000000000006j))': '67d8eadb3738597f',
    'p=6:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(-0.8660254037844385+0.5000000000000006j))': '11b452b4e2bdb2f8',
    'p=6:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=(-0.8660254037844385+0.5000000000000006j))': 'f3d9e38e5e856ccb',
    'p=6:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.8660254037844385-0.5000000000000006j))': '6ad894e4d2065b3b',
    'p=6:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.8660254037844385-0.5000000000000006j))': 'c1f869ffa0e7541c',
    'p=6:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.8660254037844385-0.5000000000000006j))': '36556b473841bf27',
    'p=6:T_prime(b=0,lam=(1.7+0.6j))': 'cb379a13c0652fc4',
    'p=6:T_prime(b=0,lam=(0.9-0.25j))': '4a8d6f62cbaab16f',
    'p=6:T_prime(b=0,lam=2.0)': '35a07899d8ca900c',
    'p=6:T_prime(b=0.5,lam=(1.7+0.6j))': 'c0f52d65a25f92df',
    'p=6:T_prime(b=0.5,lam=(0.9-0.25j))': '7da536cea46da060',
    'p=6:T_prime(b=0.5,lam=2.0)': 'e4db604c37938d9a',
    'p=6:Qp_lambda(lam=2.0)': '9950496007f09158',
    'p=6:Qp_lambda(lam=(0.7+0.4j))': 'd01cc66120f7a7c8',
    'p=6:Qp_lambda(lam=1.0)': '28dfcf0037292210',
    'p=6:Qp_lambda(lam=(0.8660254037844387+0.49999999999999994j))': '02e8c8a722c959c8',
    'p=6:Qp_lambda(lam=-1.0)': '24ded39f147eec84',
    'p=6:Q_root_comp(desc=Q1_1,s1=1)': '30a22c693dadfa04',
    'p=6:Q_root_comp(desc=Q1_1,s1=-1)': 'f617ca5d67321c68',
    'p=6:Q_root_comp(desc=Q1_2,s1=1)': '7e8bdb8c1408c68b',
    'p=6:Q_root_comp(desc=Q1_2,s1=-1)': '5daf49f876ef4bb8',
    'p=6:Q_root_comp(desc=Qsqrt_hat,s1=1,s2=1)': '9f311a22d3032658',
    'p=6:Q_root_comp(desc=Qsqrt_hat,s1=1,s2=-1)': '03a25c5581feaa4e',
    'p=6:Q_root_comp(desc=Qsqrt_hat,s1=-1,s2=1)': '3d3e8bbde49080dd',
    'p=6:Q_root_comp(desc=Qsqrt_hat,s1=-1,s2=-1)': '34117807b0481496',
    'p=6:R_ab_degen(a=0.5,b=0.9,variant=plus)': 'fa07f2aa3fc0b1f0',
    'p=6:R_ab_degen(a=0.5,b=0.9,variant=minus)': '87a983d7189944d2',
    'p=8:R1_l(l=0)': 'e64abe1919c517f5',
    'p=8:T_l(l=0,omega=i)': 'b9c01517dc960ae0',
    'p=8:R1_l(l=1/2)': '4ef6ec48a211fb92',
    'p=8:T_l(l=1/2,omega=i)': '9a4e6db9b8ab7bde',
    'p=8:R1_l(l=3/2)': '7053d71a7c76a769',
    'p=8:T_l(l=3/2,omega=i)': 'dcc88ceadcd37f8e',
    'p=8:Ri_l(l=1/2,sign=-1)': '6ca49f015d2ad5d8',
    'p=8:Ri_l(l=3/2,sign=-1)': 'ca8fb81c17f2a4bb',
    'p=8:Rsplit_n(n=1,signs=(1, -1))': 'a2dc3c6a82828e9c',
    'p=8:Rsplit_n(n=1,signs=(-1, 1))': '81f22a86f8fd0860',
    'p=8:Rsplit_n(n=2,signs=(1, -1))': '6528b22bfc035dbd',
    'p=8:Rsplit_n(n=2,signs=(-1, 1))': '9f9c54551c3b810f',
    'p=8:R_ab_lambda(a=0,b=0,lam=(1.7+0.6j))': 'dc8b15ef598ee69a',
    'p=8:T_ab_lambda(a=0,b=0,lam=(1.7+0.6j))': '187c77ec0571213f',
    'p=8:T_tilde(a=0,b=0,lam=(1.7+0.6j))': '47a33512307c2876',
    'p=8:R_ab_lambda(a=0,b=0,lam=(0.9-0.25j))': 'faeec246699edfee',
    'p=8:T_ab_lambda(a=0,b=0,lam=(0.9-0.25j))': '34b5029b2ddb4c21',
    'p=8:T_tilde(a=0,b=0,lam=(0.9-0.25j))': '0f7783a3b8d27023',
    'p=8:R_ab_lambda(a=0,b=0,lam=2.0)': '929dc576d3775304',
    'p=8:T_ab_lambda(a=0,b=0,lam=2.0)': 'e9484ed652dee109',
    'p=8:T_tilde(a=0,b=0,lam=2.0)': '85b1af845ead5d23',
    'p=8:R_ab_lambda(a=0,b=0,lam=(-0.9238795325112868+0.38268343236508945j))': 'fd4485fe33a38002',
    'p=8:T_ab_lambda(a=0,b=0,lam=(-0.9238795325112868+0.38268343236508945j))': 'b3d0708e092efbf4',
    'p=8:T_tilde(a=0,b=0,lam=(-0.9238795325112868+0.38268343236508945j))': '84e25dd2072fa43d',
    'p=8:R_ab_lambda(a=0,b=0,lam=(0.9238795325112868-0.38268343236508945j))': 'ef85ff0a80eef665',
    'p=8:T_ab_lambda(a=0,b=0,lam=(0.9238795325112868-0.38268343236508945j))': '2f2ac92f1c730814',
    'p=8:T_tilde(a=0,b=0,lam=(0.9238795325112868-0.38268343236508945j))': '957883aeeab9ad6b',
    'p=8:R_ab_lambda(a=0,b=0.5,lam=(1.7+0.6j))': 'fd35ec19aca1ff85',
    'p=8:T_ab_lambda(a=0,b=0.5,lam=(1.7+0.6j))': '788da0558010d684',
    'p=8:T_tilde(a=0,b=0.5,lam=(1.7+0.6j))': '22f7def6902fb310',
    'p=8:R_ab_lambda(a=0,b=0.5,lam=(0.9-0.25j))': 'c26249649efdba55',
    'p=8:T_ab_lambda(a=0,b=0.5,lam=(0.9-0.25j))': 'b73c3383004d7ab5',
    'p=8:T_tilde(a=0,b=0.5,lam=(0.9-0.25j))': '951264e394054fc4',
    'p=8:R_ab_lambda(a=0,b=0.5,lam=2.0)': '2d20f60a5ea6da61',
    'p=8:T_ab_lambda(a=0,b=0.5,lam=2.0)': '6c59fc020670df05',
    'p=8:T_tilde(a=0,b=0.5,lam=2.0)': 'ec153dcf9e7633ad',
    'p=8:R_ab_lambda(a=0,b=0.5,lam=(-0.9238795325112868+0.38268343236508945j))': '67bb4f24067268bd',
    'p=8:T_ab_lambda(a=0,b=0.5,lam=(-0.9238795325112868+0.38268343236508945j))': '6c26991df6f1a6aa',
    'p=8:T_tilde(a=0,b=0.5,lam=(-0.9238795325112868+0.38268343236508945j))': '24f1958c2485d1f6',
    'p=8:R_ab_lambda(a=0,b=0.5,lam=(0.9238795325112868-0.38268343236508945j))': '12da239a6d235059',
    'p=8:T_ab_lambda(a=0,b=0.5,lam=(0.9238795325112868-0.38268343236508945j))': 'e58f5586a78207f3',
    'p=8:T_tilde(a=0,b=0.5,lam=(0.9238795325112868-0.38268343236508945j))': '32bda368180eac38',
    'p=8:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(1.7+0.6j))': '929c61975b7c57a7',
    'p=8:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(1.7+0.6j))': '17b2398991dc0684',
    'p=8:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=(1.7+0.6j))': 'b2bc36a1d9a9cdad',
    'p=8:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.9-0.25j))': '99ef88b5d368f64b',
    'p=8:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.9-0.25j))': '50e5366cbf20dbdd',
    'p=8:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.9-0.25j))': 'e8bcc2baaa66c7ca',
    'p=8:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=2.0)': 'f5378424e71131d6',
    'p=8:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=2.0)': 'd8752d805f728154',
    'p=8:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=2.0)': 'db62e453ede6a31c',
    'p=8:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(-0.9238795325112868+0.38268343236508945j))': 'b7f01a700afbe17e',
    'p=8:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(-0.9238795325112868+0.38268343236508945j))': 'd2ffb091e0df3199',
    'p=8:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=(-0.9238795325112868+0.38268343236508945j))': '30d874f2f4f0d3fa',
    'p=8:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.9238795325112868-0.38268343236508945j))': 'd4518d7511af1a92',
    'p=8:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.9238795325112868-0.38268343236508945j))': 'bfbb076104a7fa1b',
    'p=8:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.9238795325112868-0.38268343236508945j))': 'f6c7bbf245e12634',
    'p=8:T_prime(b=0,lam=(1.7+0.6j))': 'c6b3307f33af58d6',
    'p=8:T_prime(b=0,lam=(0.9-0.25j))': 'cc60dc7ea2d6e0cf',
    'p=8:T_prime(b=0,lam=2.0)': '18a5dc17a60bdab9',
    'p=8:T_prime(b=0.5,lam=(1.7+0.6j))': '29850f468233f607',
    'p=8:T_prime(b=0.5,lam=(0.9-0.25j))': '7058dc2696a94b72',
    'p=8:T_prime(b=0.5,lam=2.0)': '04b6b0feab54df2a',
    'p=8:Qp_lambda(lam=2.0)': '2eaf4ce00b4b4eb5',
    'p=8:Qp_lambda(lam=(0.7+0.4j))': '3f3901e594f445d6',
    'p=8:Qp_lambda(lam=1.0)': 'a6ffb5967782047a',
    'p=8:Qp_lambda(lam=(0.9238795325112867+0.3826834323650898j))': '98d20dfe4350636a',
    'p=8:Qp_lambda(lam=-1.0)': '354a28045243b2b1',
    'p=8:Q_root_comp(desc=Q1_1,s1=1)': '4567cf211449b130',
    'p=8:Q_root_comp(desc=Q1_1,s1=-1)': 'f073a90736c0e3a9',
    'p=8:Q_root_comp(desc=Q1_2,s1=1)': 'f046a25a77cc03bb',
    'p=8:Q_root_comp(desc=Q1_2,s1=-1)': '402f5676269351cd',
    'p=8:Q_root_comp(desc=Qsqrt_hat,s1=1,s2=1)': '33e0c2d318220509',
    'p=8:Q_root_comp(desc=Qsqrt_hat,s1=1,s2=-1)': '79f8afe803bd8112',
    'p=8:Q_root_comp(desc=Qsqrt_hat,s1=-1,s2=1)': 'e21fa709eb5b6cb7',
    'p=8:Q_root_comp(desc=Qsqrt_hat,s1=-1,s2=-1)': 'fd3ae3d4406be961',
    'p=8:R_ab_degen(a=0.5,b=0.9,variant=plus)': '1c6079cac8b46b4f',
    'p=8:R_ab_degen(a=0.5,b=0.9,variant=minus)': 'ed3627f08c01e98e',
    'p=8:R_ab_degen(a=0,b=0,variant=plus)': '83eed9be8e4722d5',
    'p=8:R_ab_degen(a=0,b=0,variant=minus)': 'b913e112d05eaf0e',
    'p=8:R_ab_degen(a=0.8,b=(3.16543461535199+8.881784197001252e-16j),variant=plus)': '2ebf0fa9f2bb07d0',
    'p=8:R_ab_degen(a=0.8,b=(3.16543461535199+8.881784197001252e-16j),variant=minus)': '956c8a543a8f3aa9',
    'p=9:R1_l(l=0)': 'e64abe1919c517f5',
    'p=9:T_l(l=0,omega=i)': 'b9c01517dc960ae0',
    'p=9:R1_l(l=1/2)': 'c91ffe651ab27f61',
    'p=9:T_l(l=1/2,omega=i)': 'dd66064c33cb6632',
    'p=9:R1_l(l=4)': 'ff23c56e2f213139',
    'p=9:T_l(l=4,omega=i)': '6c0cb0c912e19ee8',
    'p=9:Ri_l(l=1/2,sign=-1)': '6aa4271607fed5ef',
    'p=9:Ri_l(l=7/2,sign=-1)': '9b0967ae31599bbe',
    'p=9:Rsplit_n(n=1,signs=(1, -1))': 'd95ebe636c37f7a9',
    'p=9:Rsplit_n(n=1,signs=(-1, 1))': '81fe6e57bbf28238',
    'p=9:Rsplit_n(n=4,signs=(1, -1))': '8455f1a38508e2ad',
    'p=9:Rsplit_n(n=4,signs=(-1, 1))': 'da5dffa974882d70',
    'p=9:R_ab_lambda(a=0,b=0,lam=(1.7+0.6j))': '338cbfd970a16e36',
    'p=9:T_ab_lambda(a=0,b=0,lam=(1.7+0.6j))': 'c889c6f7ae567af8',
    'p=9:T_tilde(a=0,b=0,lam=(1.7+0.6j))': 'cfff6593420bfe46',
    'p=9:R_ab_lambda(a=0,b=0,lam=(0.9-0.25j))': 'c868f50d265041b0',
    'p=9:T_ab_lambda(a=0,b=0,lam=(0.9-0.25j))': 'd9aa74041222e969',
    'p=9:T_tilde(a=0,b=0,lam=(0.9-0.25j))': '4bcd8f19d88cb2c2',
    'p=9:R_ab_lambda(a=0,b=0,lam=2.0)': '874f3ca16dd3fabb',
    'p=9:T_ab_lambda(a=0,b=0,lam=2.0)': '168a2da9c7e87a05',
    'p=9:T_tilde(a=0,b=0,lam=2.0)': 'd497d4a7eaf45244',
    'p=9:R_ab_lambda(a=0,b=0.5,lam=(1.7+0.6j))': '6ef5d3622a474127',
    'p=9:T_ab_lambda(a=0,b=0.5,lam=(1.7+0.6j))': 'c0dee011843a9668',
    'p=9:T_tilde(a=0,b=0.5,lam=(1.7+0.6j))': '9e6107781644d9b2',
    'p=9:R_ab_lambda(a=0,b=0.5,lam=(0.9-0.25j))': '3263e6ab1c7c6fd5',
    'p=9:T_ab_lambda(a=0,b=0.5,lam=(0.9-0.25j))': '9b9857fefedbe495',
    'p=9:T_tilde(a=0,b=0.5,lam=(0.9-0.25j))': '5daa525a13c97e33',
    'p=9:R_ab_lambda(a=0,b=0.5,lam=2.0)': '02acb83d41950799',
    'p=9:T_ab_lambda(a=0,b=0.5,lam=2.0)': 'd15df3c2195a2480',
    'p=9:T_tilde(a=0,b=0.5,lam=2.0)': 'dc296c2486a729f2',
    'p=9:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(1.7+0.6j))': '6804a4450fe3f6b5',
    'p=9:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(1.7+0.6j))': '7647d4fa0e50e0fa',
    'p=9:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=(1.7+0.6j))': '2dcca8e94fc3fe90',
    'p=9:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.9-0.25j))': '434016ed7afac421',
    'p=9:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.9-0.25j))': 'c0034f353f907d3b',
    'p=9:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.9-0.25j))': '352aed3d4f42a8b1',
    'p=9:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=2.0)': '74b0e96aee3b6094',
    'p=9:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=2.0)': '2a023cb28fc78965',
    'p=9:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=2.0)': '0e39c8d769719885',
    'p=9:T_prime(b=0,lam=(1.7+0.6j))': '6915a31a33adcf05',
    'p=9:T_prime(b=0,lam=(0.9-0.25j))': '8b6ed6c89b4e16e5',
    'p=9:T_prime(b=0,lam=2.0)': 'b1833bacfe32049b',
    'p=9:T_prime(b=0.5,lam=(1.7+0.6j))': 'c127e8366b986852',
    'p=9:T_prime(b=0.5,lam=(0.9-0.25j))': '4b145118bbf0334a',
    'p=9:T_prime(b=0.5,lam=2.0)': '928b986a34bd1966',
    'p=9:Qp_lambda(lam=2.0)': 'd76080b6c719517d',
    'p=9:Qp_lambda(lam=(0.7+0.4j))': '64d058683b915af8',
    'p=9:Qp_lambda(lam=1.0)': '39f13cc1b4fa0f17',
    'p=9:Qp_lambda(lam=(0.9396926207859084+0.3420201433256687j))': '0b9a484611397408',
    'p=9:Qp_lambda(lam=-1.0)': 'a055143ae018deeb',
    'p=9:Q_root_comp(desc=Q1,s1=1,s2=1)': '1f99b9007d553328',
    'p=9:Q_root_comp(desc=Q1,s1=1,s2=-1)': '607c23b7fae7f21f',
    'p=9:Q_root_comp(desc=Q1,s1=-1,s2=1)': '8be66fe742a2c513',
    'p=9:Q_root_comp(desc=Q1,s1=-1,s2=-1)': '8c386f46d76ff530',
    'p=9:Q_root_comp(desc=Q1hat,s1=1,s2=1)': 'e624299e15228ad5',
    'p=9:Q_root_comp(desc=Q1hat,s1=1,s2=-1)': '54306df53ec86c14',
    'p=9:Q_root_comp(desc=Q1hat,s1=-1,s2=1)': '71eb04f40ca8c06f',
    'p=9:Q_root_comp(desc=Q1hat,s1=-1,s2=-1)': '95720b948ad57c69',
    'p=9:Q_root_comp(desc=Qsqrt,s1=1,s2=1)': '266beeac34e6e179',
    'p=9:Q_root_comp(desc=Qsqrt,s1=1,s2=-1)': 'a854330d5d687ed0',
    'p=9:Q_root_comp(desc=Qsqrt,s1=-1,s2=1)': 'abd5c6e46627e2a1',
    'p=9:Q_root_comp(desc=Qsqrt,s1=-1,s2=-1)': '72f242a6e2615412',
    'p=9:Q_root_comp(desc=Qsqrt_breve,s1=1,s2=1)': 'e879841eb9558195',
    'p=9:Q_root_comp(desc=Qsqrt_breve,s1=1,s2=-1)': 'e6426b03409ca9d2',
    'p=9:Q_root_comp(desc=Qsqrt_breve,s1=-1,s2=1)': '0d731ad1aa946f56',
    'p=9:Q_root_comp(desc=Qsqrt_breve,s1=-1,s2=-1)': 'e393f1398f352850',
    'p=12:R1_l(l=0)': 'e64abe1919c517f5',
    'p=12:T_l(l=0,omega=i)': 'b9c01517dc960ae0',
    'p=12:R1_l(l=1/2)': '83dad117fa5fb713',
    'p=12:T_l(l=1/2,omega=i)': '57d6694ef43864b7',
    'p=12:R1_l(l=5/2)': '7e59f823828cd410',
    'p=12:T_l(l=5/2,omega=i)': 'c98edfed5658ee88',
    'p=12:Ri_l(l=1/2,sign=-1)': 'e3901914cbb48d68',
    'p=12:Ri_l(l=5/2,sign=-1)': 'ca7e6ba7f64e3cd9',
    'p=12:Rsplit_n(n=1,signs=(1, -1))': 'd94563f38817de0a',
    'p=12:Rsplit_n(n=1,signs=(-1, 1))': 'ece0ae6b4d025f22',
    'p=12:Rsplit_n(n=3,signs=(1, -1))': 'ad33e9d0926d60c4',
    'p=12:Rsplit_n(n=3,signs=(-1, 1))': 'b2a41d2c565d6bfd',
    'p=12:R_ab_lambda(a=0,b=0,lam=(1.7+0.6j))': '303f0c164f242e82',
    'p=12:T_ab_lambda(a=0,b=0,lam=(1.7+0.6j))': '3329f9553909f5c5',
    'p=12:T_tilde(a=0,b=0,lam=(1.7+0.6j))': '30e74914264d00ff',
    'p=12:R_ab_lambda(a=0,b=0,lam=(0.9-0.25j))': '2ae48fd1cea055fd',
    'p=12:T_ab_lambda(a=0,b=0,lam=(0.9-0.25j))': 'c9cc093900628f41',
    'p=12:T_tilde(a=0,b=0,lam=(0.9-0.25j))': '4ac35423b920bd7a',
    'p=12:R_ab_lambda(a=0,b=0,lam=2.0)': '83367c01d757a854',
    'p=12:T_ab_lambda(a=0,b=0,lam=2.0)': 'dd7d86df69ec06ae',
    'p=12:T_tilde(a=0,b=0,lam=2.0)': '1861a028c9d50073',
    'p=12:R_ab_lambda(a=0,b=0,lam=(-0.9659258262890682+0.2588190451025213j))': 'e29cc7e5db16144f',
    'p=12:T_ab_lambda(a=0,b=0,lam=(-0.9659258262890682+0.2588190451025213j))': 'ef45caf2cd39c501',
    'p=12:T_tilde(a=0,b=0,lam=(-0.9659258262890682+0.2588190451025213j))': '40c8af204d5d050e',
    'p=12:R_ab_lambda(a=0,b=0,lam=(0.9659258262890682-0.2588190451025213j))': 'f9171fab77245dd5',
    'p=12:T_ab_lambda(a=0,b=0,lam=(0.9659258262890682-0.2588190451025213j))': 'd6d0dbae7b5d3c61',
    'p=12:T_tilde(a=0,b=0,lam=(0.9659258262890682-0.2588190451025213j))': '92230efbfd24bc84',
    'p=12:R_ab_lambda(a=0,b=0.5,lam=(1.7+0.6j))': '2e1aa989999c744f',
    'p=12:T_ab_lambda(a=0,b=0.5,lam=(1.7+0.6j))': 'dc80094b82127019',
    'p=12:T_tilde(a=0,b=0.5,lam=(1.7+0.6j))': '52967d01eca93fb0',
    'p=12:R_ab_lambda(a=0,b=0.5,lam=(0.9-0.25j))': 'e3945b454ce73ba7',
    'p=12:T_ab_lambda(a=0,b=0.5,lam=(0.9-0.25j))': '763b9fae18fbd4f7',
    'p=12:T_tilde(a=0,b=0.5,lam=(0.9-0.25j))': 'c995a1647fa6bf5e',
    'p=12:R_ab_lambda(a=0,b=0.5,lam=2.0)': 'b8f71dc11d145ffd',
    'p=12:T_ab_lambda(a=0,b=0.5,lam=2.0)': 'de0ac078107818be',
    'p=12:T_tilde(a=0,b=0.5,lam=2.0)': '621cd5224ccd4966',
    'p=12:R_ab_lambda(a=0,b=0.5,lam=(-0.9659258262890682+0.2588190451025213j))': 'b2379f062798de3e',
    'p=12:T_ab_lambda(a=0,b=0.5,lam=(-0.9659258262890682+0.2588190451025213j))': 'acdedd4463c9b962',
    'p=12:T_tilde(a=0,b=0.5,lam=(-0.9659258262890682+0.2588190451025213j))': '4d1a844575f3f159',
    'p=12:R_ab_lambda(a=0,b=0.5,lam=(0.9659258262890682-0.2588190451025213j))': '56836f49e2833d5f',
    'p=12:T_ab_lambda(a=0,b=0.5,lam=(0.9659258262890682-0.2588190451025213j))': '5b9e390838f6c804',
    'p=12:T_tilde(a=0,b=0.5,lam=(0.9659258262890682-0.2588190451025213j))': 'e0a85b5037120d71',
    'p=12:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(1.7+0.6j))': '16bca1fe1ddde28c',
    'p=12:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(1.7+0.6j))': '537ecc976b5166ee',
    'p=12:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=(1.7+0.6j))': '8c448a5e1eb2a34c',
    'p=12:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.9-0.25j))': '22c41fa79a73fd4c',
    'p=12:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.9-0.25j))': '3b791a82ca40d4e0',
    'p=12:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.9-0.25j))': 'a4859153901d8656',
    'p=12:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=2.0)': '7aa6e4f6b3c25850',
    'p=12:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=2.0)': '057a1af42050868e',
    'p=12:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=2.0)': '0bab2e028c6c8e67',
    'p=12:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(-0.9659258262890682+0.2588190451025213j))': '998bb637aa50f743',
    'p=12:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(-0.9659258262890682+0.2588190451025213j))': 'cc4d989a4c97b418',
    'p=12:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=(-0.9659258262890682+0.2588190451025213j))': '91fd800ab6fb16e4',
    'p=12:R_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.9659258262890682-0.2588190451025213j))': '9a1adb9ec5397469',
    'p=12:T_ab_lambda(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.9659258262890682-0.2588190451025213j))': 'edb1f5087a8d10f7',
    'p=12:T_tilde(a=(0.7+0.31j),b=(1.2-0.4j),lam=(0.9659258262890682-0.2588190451025213j))': '6c3b55e96df49efc',
    'p=12:T_prime(b=0,lam=(1.7+0.6j))': '51fc19da557632f2',
    'p=12:T_prime(b=0,lam=(0.9-0.25j))': '29618a803a4a5b41',
    'p=12:T_prime(b=0,lam=2.0)': 'd184d0704685c3c7',
    'p=12:T_prime(b=0.5,lam=(1.7+0.6j))': '15b4aab0b2dc7b55',
    'p=12:T_prime(b=0.5,lam=(0.9-0.25j))': 'ef7c501f14e74757',
    'p=12:T_prime(b=0.5,lam=2.0)': 'a02200b7ba04fc0c',
    'p=12:Qp_lambda(lam=2.0)': 'b39735a1578793cc',
    'p=12:Qp_lambda(lam=(0.7+0.4j))': '35b2ae5f2dcf67fa',
    'p=12:Qp_lambda(lam=1.0)': 'b8849bc8e0891512',
    'p=12:Qp_lambda(lam=(0.9659258262890683+0.25881904510252074j))': '8db41e9f2d276b14',
    'p=12:Qp_lambda(lam=-1.0)': '834fb1936cb3a016',
    'p=12:Q_root_comp(desc=Q1_1,s1=1)': 'cece9b52020449dd',
    'p=12:Q_root_comp(desc=Q1_1,s1=-1)': 'b1cc96d57eb1d73f',
    'p=12:Q_root_comp(desc=Q1_2,s1=1)': 'e30360027aa164dd',
    'p=12:Q_root_comp(desc=Q1_2,s1=-1)': '1e631585e47ef5ed',
    'p=12:Q_root_comp(desc=Qsqrt_hat,s1=1,s2=1)': '3832b1c7bc37768d',
    'p=12:Q_root_comp(desc=Qsqrt_hat,s1=1,s2=-1)': 'a70628e27ff6e3af',
    'p=12:Q_root_comp(desc=Qsqrt_hat,s1=-1,s2=1)': 'cae480605fea4be8',
    'p=12:Q_root_comp(desc=Qsqrt_hat,s1=-1,s2=-1)': '577ea1a9a590c210',
    'p=12:R_ab_degen(a=0.5,b=0.9,variant=plus)': 'fc26a53bbd607608',
    'p=12:R_ab_degen(a=0.5,b=0.9,variant=minus)': '00b039bb07159395',
    'p=12:R_ab_degen(a=0,b=0,variant=plus)': '391c24ba20072ebb',
    'p=12:R_ab_degen(a=0,b=0,variant=minus)': '7c37ce6f8e6d7c34',
}


def test_grid_covers_every_registered_family():
    assert {name for _, name, _ in CASES} == set(REGISTRY)
    assert len({case_id(c) for c in CASES}) == len(CASES) == len(DIGESTS)


def test_family_bytes_pinned():
    changed = [case_id(c) for c in CASES if case_digest(c) != DIGESTS[case_id(c)]]
    assert not changed, f"{len(changed)} of {len(CASES)} cases changed: {changed[:10]}"


if __name__ == "__main__":
    for c in CASES:
        print(f"    {case_id(c)!r}: {case_digest(c)!r},")
