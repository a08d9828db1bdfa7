"""Seeded request generator for the benchmark, standard library only.

Every word list, scramble and expected answer here is built without
importing ``groupcodes``, so no change to the program can alter the
inputs or the answers they are checked against. Words are tuples of
element indices; groups are the four small alphabets of the paper's
examples, given by their Cayley tables.
"""

from __future__ import annotations

import itertools
import json
import functools
import math
import random
from dataclasses import dataclass, field

Word = tuple  # tuple[int, ...]


# alphabets ----------------------------------------------------------------

@dataclass(frozen=True)
class Alphabet:
    """A small abelian group: table, automorphisms and its JSON form."""

    label: str
    table: tuple
    auts: tuple          # automorphisms as element-image tuples
    doc: dict = field(compare=False, hash=False)   # the JSON form handed to the program

    @property
    def q(self) -> int:
        return len(self.table)

    def mul(self, x: Word, y: Word) -> Word:
        t = self.table
        return tuple(t[a][b] for a, b in zip(x, y))


def _cyclic(m: int) -> Alphabet:
    table = tuple(tuple((a + b) % m for b in range(m)) for a in range(m))
    auts = tuple(tuple((k * a) % m for a in range(m))
                 for k in range(1, m) if math.gcd(k, m) == 1)
    return Alphabet(f"Z/{m}", table, auts, {"kind": "cyclic", "modulus": m})


def _klein() -> Alphabet:
    # the program encodes Z/2 x Z/2 in mixed radix, so the product is XOR
    table = tuple(tuple(a ^ b for b in range(4)) for a in range(4))
    auts = tuple((0,) + p for p in itertools.permutations((1, 2, 3)))
    factor = {"kind": "cyclic", "modulus": 2}
    return Alphabet("V4", table, auts, {"kind": "product", "factors": [factor, factor]})


Z2, Z3, Z4, V4 = _cyclic(2), _cyclic(3), _cyclic(4), _klein()
ALPHABETS = (Z2, Z3, Z4, V4)


# word sets ----------------------------------------------------------------

def closure(G: Alphabet, n: int, gens) -> tuple:
    """Sorted subgroup of G^n generated by the given words."""
    e = (0,) * n
    known = {e}
    frontier = [e]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = G.mul(x, g)
            if y not in known:
                known.add(y)
                frontier.append(y)
    return tuple(sorted(known))


def full_words(G: Alphabet, n: int) -> tuple:
    return tuple(itertools.product(range(G.q), repeat=n))


def rep_words(G: Alphabet, n: int) -> tuple:
    return tuple((a,) * n for a in range(G.q))


def sum_zero_words(G: Alphabet, n: int) -> tuple:
    out = []
    for w in itertools.product(range(G.q), repeat=n):
        acc = 0
        for s in w:
            acc = G.table[acc][s]
        if acc == 0:
            out.append(w)
    return tuple(out)


def hamming_words() -> tuple:
    checks = ((0, 2, 4, 6), (1, 2, 5, 6), (3, 4, 5, 6))
    return tuple(w for w in itertools.product(range(2), repeat=7)
                 if all(sum(w[i] for i in c) % 2 == 0 for c in checks))


def direct_sum(*parts) -> tuple:
    return tuple(sorted(sum(combo, ()) for combo in itertools.product(*parts)))


def shift(w: Word) -> Word:
    return w[1:] + w[:1]


def is_cyclic(words) -> bool:
    ws = set(words)
    return all(shift(w) in ws for w in ws)


def distance(x: Word, y: Word) -> int:
    return sum(a != b for a, b in zip(x, y))


def min_distance(words) -> int:
    """Pairwise scan; n + 1 for a singleton, as the program reports it."""
    ws = list(words)
    if len(ws) < 2:
        return len(ws[0]) + 1
    return min(distance(x, y) for x, y in itertools.combinations(ws, 2))


def ball(q: int, n: int, r: int) -> int:
    if r >= n:
        return q ** n
    return sum(math.comb(n, i) * (q - 1) ** i for i in range(r + 1))


def apply_pull(sigma, maps, w: Word) -> Word:
    """y[j] = f_j(x[sigma[j]]), the program's pull convention."""
    return tuple(maps[j][w[sigma[j]]] for j in range(len(sigma)))


@dataclass(frozen=True)
class Scramble:
    sigma: tuple         # pull permutation, 0-based
    maps: tuple          # one alphabet automorphism per coordinate

    def words(self, words) -> tuple:
        return tuple(sorted(apply_pull(self.sigma, self.maps, w) for w in words))

    def block(self, coords) -> frozenset:
        """Where source coordinates land: output j reads input sigma[j]."""
        inv = {s: j for j, s in enumerate(self.sigma)}
        return frozenset(inv[c] for c in coords)


def random_scramble(rng: random.Random, G: Alphabet, n: int) -> Scramble:
    sigma = list(range(n))
    rng.shuffle(sigma)
    return Scramble(tuple(sigma), tuple(rng.choice(G.auts) for _ in range(n)))


# codes with known answers ---------------------------------------------------

@dataclass(frozen=True)
class Part:
    """An indecomposable component with a name that fixes its isotype."""

    name: str
    alphabet: Alphabet
    words: tuple

    @property
    def length(self) -> int:
        return len(self.words[0])


def sum0(G: Alphabet, n: int) -> Part:
    return Part(f"sum0({G.label},{n})", G, sum_zero_words(G, n))


def rep(G: Alphabet, n: int) -> Part:
    return Part(f"rep({G.label},{n})", G, rep_words(G, n))


def full(G: Alphabet, n: int) -> Part:
    return Part(f"{G.label}^{n}", G, full_words(G, n))


def pool(G: Alphabet) -> list:
    """Pairwise non-isomorphic indecomposable group codes over G."""
    return [full(G, 1), rep(G, 2), rep(G, 3), sum0(G, 3)]


D = Part("D", Z2, sum_zero_words(Z2, 3))
R2 = Part("R2", Z2, rep_words(Z2, 2))
R3 = Part("R3", Z2, rep_words(Z2, 3))
H = Part("H", Z2, hamming_words())
Z4_HALF = Part("rep({0,2},2)", Z4, ((0, 0), (2, 2)))   # projections are the subgroup {0,2}


@dataclass
class Sum:
    """A scrambled direct sum: its words and where each part landed."""

    alphabet: Alphabet
    words: tuple
    blocks: list          # (part name, frozenset of 0-based output coordinates)

    def isotypes(self) -> list:
        counts: dict = {}
        for name, _ in self.blocks:
            counts[name] = counts.get(name, 0) + 1
        return sorted(counts.items())


def scrambled_sum(rng: random.Random, parts: list, scramble: bool = True) -> Sum:
    G = parts[0].alphabet
    words = direct_sum(*[p.words for p in parts])
    n = sum(p.length for p in parts)
    s = random_scramble(rng, G, n) if scramble else Scramble(tuple(range(n)), (tuple(range(G.q)),) * n)
    blocks = []
    start = 0
    for p in parts:
        blocks.append((p.name, s.block(range(start, start + p.length))))
        start += p.length
    return Sum(G, s.words(words), blocks)


def random_sum_parts(rng: random.Random, G: Alphabet, *, max_length: int = 12,
                     max_size: int = 2048) -> list:
    """Pool components with multiplicities, in the style of the self test."""
    choices = pool(G)
    rng.shuffle(choices)
    picked: list = []
    length, size = 0, 1
    for comp in choices:
        cap = (max_length - length) // comp.length
        if picked:
            cap = min(3, cap)
        alphas = [a for a in range(1, cap + 1) if size * len(comp.words) ** a <= max_size]
        if not alphas:
            continue
        alpha = rng.choice(alphas)
        picked.extend([comp] * alpha)
        length += alpha * comp.length
        size *= len(comp.words) ** alpha
        if length >= max_length - 1 or len({p.name for p in picked}) == 3:
            break
    return picked or [choices[0], choices[0]]


# GF(2) helpers for the certificate-free indecomposable codes --------------

def _rref(rows: list, n: int) -> tuple:
    """Row-reduce bit rows (ints, bit j = coordinate j); returns rows and pivots."""
    rows = list(rows)
    pivots = []
    r = 0
    for col in range(n):
        bit = 1 << col
        hit = next((i for i in range(r, len(rows)) if rows[i] & bit), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] & bit:
                rows[i] ^= rows[r]
        pivots.append(col)
        r += 1
    return rows[:r], pivots


def binary_connected(rows: list, n: int) -> bool:
    """Indecomposability of a binary linear code from its systematic form.

    With the generator matrix reduced to [I | A] up to column order, the
    code splits along a coordinate bipartition exactly when the bipartite
    graph of A's nonzero entries is disconnected (the matroid connectivity
    criterion for M[I|A]); a zero column is a constant coordinate.
    """
    red, pivots = _rref(rows, n)
    free = [c for c in range(n) if c not in pivots]
    if any(not any(r >> c & 1 for r in red) for c in free):
        return False
    nodes = [("r", i) for i in range(len(red))] + [("c", c) for c in free]
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        kind, v = stack.pop()
        if kind == "r":
            nbrs = [("c", c) for c in free if red[v] >> c & 1]
        else:
            nbrs = [("r", i) for i in range(len(red)) if red[i] >> v & 1]
        for u in nbrs:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(nodes)


def _bits_to_word(x: int, n: int) -> Word:
    return tuple(x >> j & 1 for j in range(n))


def certificate_free_binary(rng: random.Random, n: int, k: int = 5) -> tuple:
    """Random indecomposable binary [n, k] code that no certificate covers.

    Rejects degenerate, MDS, perfect and constant-weight draws, so only
    the exhaustive split search can prove indecomposability.
    """
    while True:
        rows = [rng.getrandbits(n) for _ in range(k)]
        red, _ = _rref(rows, n)
        if len(red) < k or not binary_connected(red, n):
            continue
        span = {0}
        for r in red:
            span |= {x ^ r for x in span}
        weights = {bin(x).count("1") for x in span if x}
        d = min(weights)
        if len(weights) == 1 or 2 ** k == 2 ** (n - d + 1) \
                or 2 ** k * ball(2, n, (d - 1) // 2) == 2 ** n:
            continue
        return tuple(sorted(_bits_to_word(x, n) for x in span))


# automorphism orders by brute force ---------------------------------------

def generators(G: Alphabet, words) -> list:
    """Greedy generating set of the subgroup with these words."""
    gens: list = []
    known = {(0,) * len(words[0])}
    for w in words:
        if w in known:
            continue
        gens.append(w)
        frontier = list(known)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = G.mul(x, g)
                if y not in known:
                    known.add(y)
                    frontier.append(y)
    return gens


@functools.lru_cache(maxsize=None)
def aut_order(part: Part) -> int:
    """Count ambient isometries f∘σ̄ of G^n mapping the part onto itself
    and restricting to a group automorphism of it.

    Plain backtracking over σ(j) and every alphabet bijection f_j, one
    output coordinate at a time, pruned only by codeword prefixes;
    homomorphy is checked at the leaves.
    """
    G, words = part.alphabet, part.words
    n = len(words[0])
    gens = generators(G, words)
    prefixes = [set(w[:j] for w in words) for j in range(n + 1)]
    perms = [p for p in itertools.permutations(range(G.q)) if p[0] == 0]
    sigma: list = []
    maps: list = []
    count = 0

    def phi(x: Word) -> Word:
        return apply_pull(sigma, maps, x)

    def rec(j: int, images: list) -> None:
        nonlocal count
        if j == n:
            if all(phi(G.mul(g, y)) == G.mul(phi(g), phi(y)) for g in gens for y in words):
                count += 1
            return
        for i in range(n):
            if i in sigma:
                continue
            for p in perms:
                nxt = [img + (p[w[i]],) for img, w in zip(images, words)]
                if all(x in prefixes[j + 1] for x in nxt):
                    sigma.append(i)
                    maps.append(p)
                    rec(j + 1, nxt)
                    sigma.pop()
                    maps.pop()

    rec(0, [() for _ in words])
    return count


# requests -------------------------------------------------------------------

def code_doc(G: Alphabet, words, group: bool = True) -> dict:
    doc = {"alphabet": G.doc, "length": len(words[0]),
           "codewords": [list(w) for w in words]}
    if group:
        doc["group"] = True
    return doc


def dumps(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"


@dataclass
class Request:
    """One CLI call: verb, input documents, extra flags, expected answer."""

    verb: str
    label: str
    docs: list
    expect: dict
    flags: list = field(default_factory=list)

    def key(self) -> str:
        return " ".join([self.verb] + self.flags) + "".join(dumps(d) for d in self.docs)


def analyze(label: str, G: Alphabet, words, d: int, group: bool = True) -> Request:
    n, size = len(words[0]), len(words)
    return Request("analyze", label, [code_doc(G, words, group)],
                   {"n": n, "q": G.q, "size": size, "d": d})


# Every maker takes the round's generator and k, the stream's draw index.
# Shape parameters (alphabet, length, template) cycle with k, so each run
# holds the same mix of shapes and the seed only varies the words.

def random_plain(rng: random.Random, k: int) -> Request:
    G = (Z2, Z3, Z4)[k % 3]
    n = 3 + k // 3 % 4
    count = rng.randrange(2, min(17, G.q ** n))
    words = set()
    while len(words) < count:
        words.add(tuple(rng.randrange(G.q) for _ in range(n)))
    words = tuple(sorted(words))
    return analyze(f"plain {G.label} n={n}", G, words, min_distance(words), group=False)


def random_group(rng: random.Random, k: int) -> Request:
    G = ALPHABETS[k % 4]
    n = 4 + k // 4 % 4
    while True:
        gens = [tuple(rng.randrange(G.q) for _ in range(n)) for _ in range(1 + k % 3)]
        words = closure(G, n, gens)
        if len(words) <= 64:
            return analyze(f"group {G.label} n={n}", G, words, min_distance(words))


def random_cyclic_words(rng: random.Random, G: Alphabet, n: int, max_size: int) -> tuple:
    """A cyclic group code: a random word closed under the group and the shift."""
    while True:
        w = tuple(rng.randrange(G.q) for _ in range(n))
        gens = [w]
        for _ in range(n - 1):
            gens.append(shift(gens[-1]))
        words = closure(G, n, gens)
        if 2 <= len(words) <= max_size:
            return words


def random_cyclic(rng: random.Random, k: int) -> Request:
    # short cyclic codes over Z/2, Z/3 and Z/4 are too few to never repeat in a run,
    # and random words over Z/4 mostly generate codes far above the size cap
    G, n = V4, 4 + k % 3
    words = random_cyclic_words(rng, G, n, 64)
    return analyze(f"cyclic {G.label} n={n}", G, words, min_distance(words))


def sum_request(verb: str, rng: random.Random, parts: list, flags=()) -> Request:
    """analyze/decompose/aut request on a scrambled direct sum of known parts."""
    s = scrambled_sum(rng, parts)
    label = f"{verb} " + "+".join(p.name for p in parts)
    doc = code_doc(s.alphabet, s.words)
    if verb == "analyze":
        return analyze(label, s.alphabet, s.words, min(min_distance(p.words) for p in parts))
    if verb == "decompose":
        return Request(verb, label, [doc], {"blocks": s.blocks, "isotypes": s.isotypes()})
    orders = {p.name: aut_order(p) for p in parts}
    expect = {"order": math.prod(orders[name] ** a * math.factorial(a)
                                 for name, a in s.isotypes())}
    if "--with-structure" in flags:
        expect["structure"] = sorted((orders[name], a) for name, a in s.isotypes())
    return Request(verb, label, [doc], expect, list(flags))


NAMED = ([H], [D, R3], [D, D], [H, R2], [D, R2, R3], [Z4_HALF, rep(Z4, 2)])


def named(rng: random.Random, k: int) -> Request:
    """A named family member (repetition, sum-zero, full space, Hamming,
    small sums) plus one pool component, scrambled by a coordinate
    permutation and automorphisms. The extra component keeps the family
    from running out of distinct inputs in a long run."""
    G = ALPHABETS[k % 4]
    family = k // 4 % 4
    if family == 0:
        parts = [rep(G, rng.randrange(2, 9))]
    elif family == 1:
        parts = [sum0(G, rng.randrange(2, 5 if G.q == 4 else 6))]
    elif family == 2:
        parts = [full(G, rng.randrange(1, 4))]
    else:
        parts = list(rng.choice(NAMED))
    parts.append(rng.choice(pool(parts[0].alphabet)))
    return sum_request("analyze", rng, parts)


LARGE = ([H, H], [D] * 4, [H, D, D], [D] * 5)


def large(rng: random.Random, k: int) -> Request:
    """One of the few analyze inputs with 256 to 1024 words."""
    return sum_request("analyze", rng, LARGE[k % len(LARGE)])


def interleave(rng: random.Random, k: int) -> Request:
    copies = 2 + k % 2
    G, n = V4, 3 + k // 2 % 2
    words = random_cyclic_words(rng, G, n, 16 if copies == 2 else 8)
    return Request("interleave", f"interleave {G.label} n={n} x{copies}",
                   [code_doc(G, words)],
                   {"size": len(words) ** copies, "n": n * copies},
                   ["--copies", str(copies)])


def join(rng: random.Random, k: int) -> Request:
    G1, G2, n = ALPHABETS[k % 4], ALPHABETS[k // 4 % 4], 2 + k // 16 % 3
    w1 = random_cyclic_words(rng, G1, n, 16)
    w2 = random_cyclic_words(rng, G2, n, 256 // len(w1))
    return Request("join", f"join {G1.label}+{G2.label} n={n}",
                   [code_doc(G1, w1), code_doc(G2, w2)], {"size": len(w1) * len(w2)})


def decompose_sum(parts: list):
    return lambda rng, k: sum_request("decompose", rng, parts)


def decompose_random(rng: random.Random, k: int) -> Request:
    return sum_request("decompose", rng, random_sum_parts(rng, ALPHABETS[k % 4]))


def indecomposable(n: int):
    def make(rng: random.Random, k: int) -> Request:
        words = certificate_free_binary(rng, n)
        block = frozenset(range(n))
        return Request("decompose", f"decompose indecomposable n={n}",
                       [code_doc(Z2, words)],
                       {"blocks": [("indecomposable", block)],
                        "isotypes": [("indecomposable", 1)]})
    return make


def aut_sum(parts: list, structure: bool = False):
    flags = ["--with-structure"] if structure else []
    return lambda rng, k: sum_request("aut", rng, parts, flags)


# workloads ------------------------------------------------------------------
#
# A round holds one request per slot. Slot counts are odd multiples of
# five, and the slots are chosen so that p50 and p90 of a run's pooled
# latencies fall inside a cluster of similar requests rather than on the
# gap between two kinds: decompose-large repeats its middle-cost templates
# so that they span the median.

def alternate(*makers):
    """One slot whose maker changes from round to round. The draw index k
    grows by the slot count each round, so the number of makers must be
    coprime to the workload's slot count."""
    return lambda rng, k: makers[k % len(makers)](rng, k)


WORKLOADS = {
    "analyze-mix": [random_plain] * 8 + [random_group] * 8 + [random_cyclic] * 2
                   + [named] * 4 + [large, interleave, join],
    "decompose-large": [decompose_random] * 2 + [decompose_sum([D] * 4), indecomposable(12)]
                       + [decompose_sum([D] * 5), indecomposable(13)] * 3
                       + [decompose_sum([H, H]), indecomposable(14)] * 2
                       + [alternate(decompose_sum([D] * 6), indecomposable(16))],
    "aut-search": [aut_sum([D, R3, full(Z2, 1)]), aut_sum([sum0(Z4, 3), rep(Z4, 2)]),
                   aut_sum([D, R3, R2]), aut_sum([R3, R3, R2]), aut_sum([sum0(Z3, 3), rep(Z3, 2)]),
                   aut_sum([sum0(Z3, 3), rep(Z3, 3)]), aut_sum([rep(Z4, 3)] * 2),
                   aut_sum([D, D, R2], True), aut_sum([rep(V4, 2)] * 2),
                   aut_sum([Z4_HALF, rep(Z4, 2), rep(Z4, 2)]), aut_sum([rep(Z3, 2)] * 3, True),
                   aut_sum([Z4_HALF] * 4, True), aut_sum([H, full(Z2, 1)], True),
                   aut_sum([D, R3, R3]), aut_sum([Z4_HALF, Z4_HALF, rep(Z4, 2)])],
}


class Stream:
    """The seeded request sequence of one workload, one round at a time.

    Round r draws from its own generator seeded by (seed, workload, r), so
    rounds can be made lazily and still match a run that made them up
    front. A request already issued in this stream is redrawn; a slot that
    finds no unused variant in 50 draws is left out of its round.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.slots = WORKLOADS[workload]
        self.seen: set = set()

    def round(self, r: int) -> list:
        rng = random.Random(f"{self.seed}/{self.workload}/{r}")
        out = []
        for i, make in enumerate(self.slots):
            k = r * len(self.slots) + i
            for _ in range(50):
                req = make(rng, k)
                key = req.key()
                if key not in self.seen:
                    self.seen.add(key)
                    out.append(req)
                    break
        return out
