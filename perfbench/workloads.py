"""The benchmark's workloads: seeded inputs, the timed call into lrcdec, and checks.

Each workload builds the program state it times (``setup``), the
benchmark-side state that checks outputs (``checker``, built with the
reference arithmetic and verified against the program once), the input of
op ``i`` (``make_input``), the call into the public lrcdec API (``call``)
and the check of one output (``check``).  Inputs depend only on the seed
and the op index, so the same seed gives the same inputs at any speed.

``nominal_rate`` is the workload's ops per second at the seed commit on
a 2-vCPU Xeon, taken from its slower stretches.  A run makes exactly
ceil(seconds * nominal_rate) ops, so runs of one --seconds make the same
ops, with the same failures, whatever the machine's speed; op costs
differ twentyfold on lrc63_list, so a time window would otherwise take
in a different mix on a faster or slower run.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

import lrcdec
from lrcdec.radii import CodeShape
from reference import Gf2m

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# Error positions of LRC op i come from this stream and the op index alone;
# the seed draws messages and error values.  The list decoder's cost is set
# by which repair sets are error-free (a radius-t_g interpolation each), so
# fixing the positions keeps the cost mix of a run the same on every seed.
POSITION_STREAM = 20190923


def interleave(groups):
    """Merge groups so that every prefix holds each group in proportion.

    Item j of a group of size m sits at position (j + 1/2) / m; ties keep
    group order.
    """
    keyed = [
        ((j + 0.5) / len(g), gi, item)
        for gi, g in enumerate(groups)
        for j, item in enumerate(g)
    ]
    return [item for _, _, item in sorted(keyed, key=lambda x: x[:2])]


def load_expected(name: str) -> dict:
    path = EXPECTED_DIR / f"{name}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())


class Outcome(NamedTuple):
    """What the check of one op found."""

    ok: bool
    decode: bool = False
    decode_failed: bool = False
    note: str = ""


class LrcList:
    """``list_decode_lrc`` on a Tamo-Barg code, error weights cycling over ``weights``."""

    def __init__(self, name, q, n, k, r, rho, t_l, t_g, weights, digest_ops, nominal_rate):
        self.name = name
        self.nominal_rate = nominal_rate
        self.q, self.n, self.k, self.r, self.rho = q, n, k, r, rho
        self.t_l, self.t_g = t_l, t_g
        self.weights = weights
        self.digest_ops = digest_ops

    def setup(self):
        field = lrcdec.Field(self.q)
        code = lrcdec.construct_tamo_barg(field, self.n, self.k, self.r, self.rho)
        return code, lrcdec.DecodeConfig(t_l=self.t_l, t_g=self.t_g)

    @property
    def local_length(self) -> int:
        return self.r + self.rho - 1

    def checker(self, state, seed):
        code, _ = state
        gf = Gf2m(self.q, code.field.modulus)
        sup = code.supercode
        gen = np.zeros((self.k, self.n), dtype=np.int64)
        for i, deg in enumerate(code.degrees):
            for j, (a, v) in enumerate(zip(sup.locators, sup.multipliers)):
                gen[i, j] = gf.mul[v, gf.power(a, deg)]
        for i in range(self.k):
            unit = [0] * self.k
            unit[i] = 1
            if tuple(code.encode(unit)) != tuple(int(x) for x in gen[i]):
                raise RuntimeError(f"{self.name}: encode disagrees with the reference generator")
        parity = gf.nullspace(gen)
        if parity.shape[0] != self.n - self.k or gf.matmul(parity, gen.T).any():
            raise RuntimeError(f"{self.name}: reference parity check is not a parity check")
        expected = load_expected(self.name).get("digests", {}).get(str(seed))
        return {"gf": gf, "gen": gen, "parity": parity, "seed": seed,
                "digest": hashlib.sha256(), "expected_digest": expected}

    def make_input(self, state, chk, i):
        w = self.weights[i % len(self.weights)]
        rng = np.random.default_rng([chk["seed"], i])
        msg = rng.integers(0, self.q, size=(1, self.k), dtype=np.int64)
        cw = chk["gf"].matmul(msg, chk["gen"])[0]
        pos = np.random.default_rng([POSITION_STREAM, i]).choice(self.n, size=w, replace=False)
        received = cw.copy()
        received[pos] ^= rng.integers(1, self.q, size=w, dtype=np.int64)
        return tuple(int(x) for x in cw), tuple(int(x) for x in received)

    def call(self, state, inp):
        code, cfg = state
        return lrcdec.list_decode_lrc(code, inp[1], cfg)

    def check(self, chk, i, inp, out):
        sent, received = inp
        words = out.codewords
        if i < self.digest_ops:
            chk["digest"].update(f"{i}:{words!r};".encode())
        if sent not in words:
            return Outcome(False, True, note="transmitted codeword missing from the list")
        arr = np.asarray(words, dtype=np.int64)
        if arr.shape[1] != self.n:
            return Outcome(False, True, note="list entry of wrong length")
        if (arr != np.asarray(received)).sum(axis=1).max() > self.t_g:
            return Outcome(False, True, note="list entry farther than t_g")
        if chk["gf"].matmul(chk["parity"], arr.T).any():
            return Outcome(False, True, note="list entry fails the parity check")
        return Outcome(True, True)

    def final_checks(self, chk, done):
        """(ok, note) for the digest of the first digest_ops lists."""
        if done < self.digest_ops:
            return True, f"digest not checked: {done} < {self.digest_ops} ops"
        if chk["expected_digest"] is None:
            return True, f"digest not checked: seed {chk['seed']} not recorded"
        got = chk["digest"].hexdigest()
        if got != chk["expected_digest"]:
            return False, f"digest mismatch over the first {self.digest_ops} lists"
        return True, f"digest of the first {self.digest_ops} lists matches the record"


class MkBurst:
    """``mk_decode`` on the verified [12,4] PMDS code over GF(1024), ell = 8."""

    name = "mk_burst"
    ell = 8
    weights = list(range(8))
    promised = 5  # weights up to this always decode (criterion 8)
    local_length = 0
    nominal_rate = 480.0

    def setup(self):
        return lrcdec.random_pmds(2**10, 12, 4, 2, 2, seed=1)

    def checker(self, code, seed):
        gf = Gf2m(code.field.q, code.field.modulus)
        if gf.matmul(code.parity, code.generator.T).any():
            raise RuntimeError("mk_burst: parity and generator disagree")
        return {"gf": gf, "seed": seed}

    def make_input(self, code, chk, i):
        w = self.weights[i % len(self.weights)]
        rng = np.random.default_rng([chk["seed"], i])
        n, k, q = code.n, code.k, code.field.q
        msg = rng.integers(0, q, size=(self.ell, k), dtype=np.int64)
        cw = chk["gf"].matmul(msg, code.generator)
        support = np.sort(rng.choice(n, size=w, replace=False))
        vals = rng.integers(0, q, size=(self.ell, w), dtype=np.int64)
        for j in range(w):
            while not vals[:, j].any():
                vals[:, j] = rng.integers(0, q, size=self.ell)
        received = cw.copy()
        received[:, support] ^= vals
        return w, cw, lrcdec.InterleavedWord(code.field, received)

    def call(self, code, inp):
        return lrcdec.mk_decode(code.field, code.parity, inp[2])

    def check(self, chk, i, inp, out):
        w, sent, _ = inp
        if out is None:
            if w <= self.promised:
                return Outcome(False, True, note=f"weight {w} burst not decoded")
            return Outcome(True, True, decode_failed=True)
        if not np.array_equal(out[0].matrix, sent):
            return Outcome(False, True, note="decoded matrix differs from the transmitted one")
        return Outcome(True, True)

    def final_checks(self, chk, done):
        return True, f"checked: weights <= {self.promised} decode, to the matrix sent"


# The three `tables pmds` parameter sets, then the (300,240,12,4) sweep.
EXACT_SHAPES = [(45, 16, 8, 8), (70, 24, 8, 3), (196, 156, 26, 3), (300, 240, 12, 4)]
# mu = 1000 repair sets; the answer is exactly 1 (every support fails).
DEEP_OP = (2000, 1000, 1, 2, 1000)


class ExactProb:
    """``failure_prob_exact`` at every t in [d-1, n-k-1] for EXACT_SHAPES, plus DEEP_OP.

    The DP has no random input, so the ops do not depend on the seed.
    """

    name = "exact_prob"
    local_length = 0
    nominal_rate = 2.8

    def setup(self):
        sweeps = []
        for n, k, r, rho in EXACT_SHAPES:
            d = CodeShape(n, k, r, rho).d
            sweeps.append([(n, k, r, rho, t) for t in range(d - 1, n - k)])
        return [DEEP_OP] + interleave(sweeps)

    def checker(self, ops, seed):
        recorded = load_expected(self.name).get("values", {})
        expected = {DEEP_OP: Fraction(1)}
        for op in ops[1:]:
            key = ",".join(map(str, op))
            if key not in recorded:
                raise RuntimeError(f"exact_prob: no recorded value for {key}")
            expected[op] = Fraction(recorded[key])
        return {"expected": expected}

    def make_input(self, ops, chk, i):
        return ops[i % len(ops)]

    def call(self, ops, op):
        return lrcdec.failure_prob_exact(*op)

    def check(self, chk, i, op, out):
        if out != chk["expected"][op]:
            return Outcome(False, note=f"failure_prob_exact{op} differs from the record")
        return Outcome(True)

    def final_checks(self, chk, done):
        return True, "checked: returned Fractions against the record"


WORKLOADS = {
    "lrc15_list": LrcList(
        "lrc15_list", 16, 15, 6, 3, 3, t_l=1, t_g=5,
        weights=list(range(6)), digest_ops=60, nominal_rate=60.0,
    ),
    # Weights 0-5 usually leave a repair set error-free, whose shortened
    # decode runs at radius t_g (seconds); the rest take tenths of a second.
    # Interleaving keeps both kinds in proportion in any prefix of a run.
    "lrc63_list": LrcList(
        "lrc63_list", 64, 63, 16, 8, 14, t_l=8, t_g=24,
        weights=interleave([list(range(6, 25)), list(range(6))]), digest_ops=2,
        nominal_rate=0.37,
    ),
    "mk_burst": MkBurst(),
    "exact_prob": ExactProb(),
}
