"""Beyond-Johnson list decoding of GRS-subcode LRCs.

The list decoder decodes every repair set locally, then for each
combination of seemingly correct repair sets shortens the supercode at
those positions and list-decodes the remainder; candidates map back by
adding c_S, the codeword that agrees with the cleaned word there.  A
cheap probabilistic variant shortens only once, at the repair sets with
the most trustworthy local results.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .grs import RADIUS_LIMIT, gs_max_radius
from .lrc import LrcCode
from .radii import CodeShape, _below, _exceeds, _in_range, refined_error_count

__all__ = [
    "DecodeConfig",
    "DecodingList",
    "default_t_g",
    "BudgetExceeded",
    "list_decode_lrc",
    "unique_decode_probabilistic",
    "pe_tilde",
    "success_prob_general",
    "success_prob_grs",
    "interleaved_success_prob",
]


@dataclass(frozen=True)
class DecodeConfig:
    """Radii and search budget for the local-global decoders.

    t_l must not exceed gs_max_radius of the local codes, and t_g must
    exceed neither the refined global error count for that t_l nor
    gs_max_radius of the shortened supercode it decodes: the radii the
    GS decoder reaches, so every decode the search makes is complete.
    """

    t_l: int
    t_g: int
    budget: int = 10**6  # max shortened decodes before giving up


def _gs_paths() -> dict[str, int]:
    return {"settled": 0, "covered": 0, "interpolated": 0}


@dataclass
class DecodingList:
    """The list and what the search did: the local list sizes, the
    combinations and shortened decodes, and the GS decodes of the repair
    sets (local) and of the shortened words by the path that listed them
    (GrsCode.gs_list_decode): settled by a re-encoding set, covered by the
    family, or interpolated."""

    codewords: list[tuple[int, ...]] = field(default_factory=list)
    local_list_sizes: list[int] = field(default_factory=list)
    combinations_explored: int = 0
    shortened_decodes: int = 0
    complete: bool = True
    local_gs_paths: dict[str, int] = field(default_factory=_gs_paths)
    shortened_gs_paths: dict[str, int] = field(default_factory=_gs_paths)


class BudgetExceeded(RuntimeError):
    """Search budget exhausted; .partial holds the incomplete list."""

    def __init__(self, partial: DecodingList, budget: int):
        super().__init__(
            f"shortened-decode budget {budget} exceeded: "
            f"{partial.shortened_decodes} shortened decodes, "
            f"{partial.combinations_explored} combinations explored"
        )
        partial.complete = False
        self.partial = partial


def _local_stage(code: LrcCode, received, cfg: DecodeConfig, result: DecodingList):
    """The stage both decoders open with: check the word and the config,
    then decode every repair set locally, recording the list sizes and
    the GS paths in result.  Returns (word, lists, order): the word as a
    checked int64 array, lists[j] the (distance, local codeword) entries
    of repair set j, nearest first, and order the sets with a nonempty
    list, by list size, then index.  One _gs_near call (one product per
    slice of the plan) gives the c_R' of every set of one local code
    (LrcCode.local_groups); each set's gs_list_decode takes its column,
    and interpolates from it."""
    word = code.field.check_symbols(received, code.n)
    _validate_cfg(code, cfg)
    lists = [None] * code.shape.mu
    for local, sets, positions in code.local_groups:
        words = word[positions]
        cands, dists = local._gs_near(words, cfg.t_l)
        for j, w, near in zip(sets, words, zip(cands.swapaxes(0, 1), dists.T)):
            found = local.gs_list_decode(w, cfg.t_l, result.local_gs_paths, near)
            symbols = w.tolist()
            lists[j] = sorted((sum(a != b for a, b in zip(cw, symbols)), cw) for cw in found)
    result.local_list_sizes = [len(l) for l in lists]
    order = sorted((j for j in range(code.shape.mu) if lists[j]), key=lambda j: (len(lists[j]), j))
    return word, lists, order


def _validate_cfg(code: LrcCode, cfg: DecodeConfig):
    _in_range("budget", cfg.budget, 1)
    n_l, r, sup = code.shape.n_l, code.r, code.supercode
    _in_range("t_l", cfg.t_l, 0, gs_max_radius(n_l, r), RADIUS_LIMIT, "local ", n_l, r)
    bar = refined_error_count(code.shape, cfg.t_l, None)
    _in_range("t_g", cfg.t_g, 0, bar, "{}, the refined error count for t_l = {}", cfg.t_l)
    cut = min(_shortening_size(code, cfg) * n_l, sup.k)
    n, k = sup.n - cut, sup.k - cut
    # every radius up to gs_max_radius is reachable, so t_g covers t_g - chi
    _in_range("t_g", cfg.t_g, None, gs_max_radius(n, k), RADIUS_LIMIT, "shortened ", n, k)


def default_t_g(code: LrcCode, t_l: int) -> int:
    """The largest t_g at or below the refined error count that the
    decoders accept with this t_l, or 0 if none is; ValueError if the
    local decode does not reach t_l."""
    _validate_cfg(code, DecodeConfig(t_l, 0))  # t_g = 0 passes once t_l does
    for t_g in range(refined_error_count(code.shape, t_l, None), 0, -1):
        try:
            _validate_cfg(code, DecodeConfig(t_l, t_g))
        except ValueError:
            continue
        return t_g
    return 0


def _shortening_size(code: LrcCode, cfg: DecodeConfig) -> int:
    """Repair sets to shorten away; 0 means decode the whole word globally."""
    return max(0, code.shape.mu - cfg.t_g // (cfg.t_l + 1))


def _decode_shortened(code: LrcCode, received, chosen_sets, picks, cfg, result, known=()):
    """Clean the chosen repair sets to their picked local codewords,
    shorten the supercode there, decode, and map the candidates back.

    received is the word as _local_stage checked it, an int64 array;
    picks holds one (distance, local codeword) entry per chosen set.
    Shortening subtracts c_S, the supercode codeword that agrees with the
    cleaned word on the shortened positions S; a shortened candidate maps
    back to c_S plus the candidate with zeros at S.  When the chosen sets
    hold more positions than the supercode dimension k, the supercode is
    shortened at the first k of them, which leaves the zero code; the
    final distance and membership filter checks the other cleaned
    positions.  A candidate in known, as an earlier decode of the same
    word listed it, needs no membership test.
    """
    chi = sum(d for d, _ in picks)
    if chi > cfg.t_g:
        return []
    sup, at = code.supercode, code._sets[list(chosen_sets)].ravel()
    cleaned = np.array(received)
    cleaned[at] = [s for _, cw in picks for s in cw]
    result.shortened_decodes += 1
    if result.shortened_decodes > cfg.budget:
        raise BudgetExceeded(result, cfg.budget)
    pos = at[: sup.k].tolist()
    short, short_w, c_s = sup.shorten_received(cleaned, pos)
    cands = short.gs_list_decode(short_w, cfg.t_g - chi, result.shortened_gs_paths)
    if not cands:
        return []
    full = sup.unshorten(pos, c_s, cands)
    full = full[(full != received).sum(axis=1) <= cfg.t_g]
    cws = map(tuple, full.tolist())
    return [cw for cw, row in zip(cws, full) if cw in known or code.is_codeword(row)]


def list_decode_lrc(code: LrcCode, received, cfg: DecodeConfig) -> DecodingList:
    """All codewords within distance t_g of the received word.

    Complete whenever the configured radii respect the code's guarantees
    (validated up front).  Raises BudgetExceeded, carrying the partial
    list, if more than cfg.budget shortened decodes would be needed.
    """
    result = DecodingList()
    word, lists, order = _local_stage(code, received, cfg, result)
    found: set[tuple[int, ...]] = set()
    # with s_short = 0 the single empty combination decodes globally
    for combo in itertools.combinations(order, _shortening_size(code, cfg)):
        for picks in itertools.product(*(lists[j] for j in combo)):
            result.combinations_explored += 1
            found.update(_decode_shortened(code, word, combo, picks, cfg, result, found))
    result.codewords = sorted(found)
    return result


def unique_decode_probabilistic(code: LrcCode, received, cfg: DecodeConfig):
    """Single-shortening unique decoder.

    Shortens at the repair sets with the smallest nonzero local list
    size, taking the nearest entry of each list, and succeeds when the
    shortened decoder returns exactly one consistent codeword.  Returns
    the codeword or None.
    """
    result = DecodingList()
    word, lists, order = _local_stage(code, received, cfg, result)
    s_short = _shortening_size(code, cfg)
    if len(order) < s_short:
        return None
    chosen = tuple(sorted(order[:s_short]))
    picks = [lists[j][0] for j in chosen]
    cands = _decode_shortened(code, word, chosen, picks, cfg, result)
    uniq = sorted(set(cands))
    return uniq[0] if len(uniq) == 1 else None


# ---------------------------------------------------------------------------
# success probabilities
# ---------------------------------------------------------------------------

def _shortened_sets(mu: int, t_l: int, t_g: int, name: str = "t_g") -> int:
    """floor(t_g / (t_l + 1)), the repair sets a bound shortens away;
    ValueError, naming t_g as name, unless t_l and t_g are integers >= 0
    and that count is at most mu."""
    t_l = _in_range("t_l", t_l, 0)
    f = _in_range(name, t_g, 0) // (t_l + 1)
    return _in_range(f"{name} // (t_l + 1)", f, None, mu, "mu = {}")


def pe_tilde(n: int, d: int, q: int, t: int) -> Fraction:
    """Miscorrection bound: sum_(s<=t) (q-1)^s C(n,s) / (q-1)^(d-1).

    Bounds the probability that a wrong codeword of an [n, ., d] code
    over GF(q) lands within distance t of the received word, for any
    error weight.  Exact rational; values as small as 10^-50 occur.
    ValueError unless n, d, q and t are integers with n >= 0, d >= 1,
    q >= 2 and 0 <= t <= n.
    """
    _in_range("n", n, 0)
    _in_range("d", d, 1)
    _in_range("q", q, 2)
    _in_range("t", t, 0, n, "n = {}")
    acc = 0
    pw = 1
    for s in range(t + 1):
        acc += pw * math.comb(n, s)
        pw *= q - 1
    return Fraction(acc, (q - 1) ** (d - 1))


def _check_probabilities(**probs: float) -> None:
    """ValueError naming the first of probs outside [0, 1] (nan included)."""
    for name, p in probs.items():
        if not p >= 0:
            raise _below(name, p, 0)
        if p > 1:
            raise _exceeds(name, p, 1)


def success_prob_general(
    mu: int, t_g: int, t_l: int, p_e: float, p_local_unique: float, p_global_unique: float
) -> float:
    """Unique-decoding success bound for an arbitrary LRC.

    (1 - p_e)^floor(t_g/(t_l+1)) * p_local_unique^(mu - floor(t_g/(t_l+1)))
    * p_global_unique, where p_e bounds the per-repair-set miscorrection
    probability and the others are single-decoder uniqueness
    probabilities.  A bound p_e may exceed 1, as pe_tilde does, so the
    factor 1 - p_e is clamped at 0 and the result lies in [0, 1].
    ValueError for p_e < 0, a uniqueness probability outside [0, 1], mu
    not an integer >= 0, and t_g or t_l that _shortened_sets refuses.
    """
    f = _shortened_sets(_in_range("mu", mu, 0), t_l, t_g)
    if not p_e >= 0:
        raise _below("p_e", p_e, 0)
    _check_probabilities(p_local_unique=p_local_unique, p_global_unique=p_global_unique)
    return max(1 - p_e, 0) ** f * p_local_unique ** (mu - f) * p_global_unique


def success_prob_grs(shape: CodeShape, q: int, t_l: int, bar_t_g: int) -> Fraction:
    """Exact-rational success bound for GRS-subcode LRCs.

    (1 - pe(n_l, rho, q, t_l))^mu * (1 - pe(floor(bar_t_g/(t_l+1)) n_l, d, q, bar_t_g)).

    The value P is a lower bound on the probability that
    `unique_decode_probabilistic`, run at t_g = bar_t_g, returns the sent
    codeword hit by bar_t_g errors: positions a uniform bar_t_g-subset,
    values uniform nonzero symbols, independent of the codeword.  1 - P is
    dominated by the local term mu * pe_tilde(n_l, rho, q, t_l); the
    global term is orders of magnitude smaller on the Table-1 shapes.
    pe_tilde can exceed 1, and an even power of a negative factor would
    read as a probability, so each factor 1 - pe is clamped at 0: P = 0
    says the bound is vacuous there.  ValueError unless bar_t_g >= t_l + 1
    (a repair set is shortened away), for t_l or bar_t_g that
    _shortened_sets refuses and for q that pe_tilde refuses.
    """
    _shortened_sets(shape.mu, t_l, bar_t_g, "bar_t_g")
    _in_range("bar_t_g", bar_t_g, t_l + 1, None, "t_l + 1 = {}")
    pe_l = pe_tilde(shape.n_l, shape.rho, q, t_l)
    pe_g = pe_tilde((bar_t_g // (t_l + 1)) * shape.n_l, shape.d, q, bar_t_g)
    p = success_prob_general(shape.mu, bar_t_g, t_l, pe_l, max(1 - pe_l, 0), max(1 - pe_g, 0))
    return Fraction(p)


def interleaved_success_prob(
    shape: CodeShape,
    ell: int,
    q: int,
    t_l: int,
    t_g: int,
    pr_uds_local: float,
    pr_uds_global: float,
) -> float:
    """Success bound with interleaved component decoders.

    success_prob_general with p_e = pe_tilde over the interleaved symbol
    alphabet q^ell, as a float; the unique-decoding-success probabilities
    of the component decoders are supplied by the caller.  ValueError for
    q < 2, ell < 1, a probability outside [0, 1] and t_l < 0, in that
    order, and for what success_prob_general refuses.
    """
    _in_range("q", q, 2)
    _in_range("ell", ell, 1)
    _check_probabilities(pr_uds_local=pr_uds_local, pr_uds_global=pr_uds_global)
    p_e = float(pe_tilde(shape.n_l, shape.rho, q**ell, _in_range("t_l", t_l, 0)))
    return success_prob_general(shape.mu, t_g, t_l, p_e, pr_uds_local, pr_uds_global)
