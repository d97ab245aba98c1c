"""Seeded input generators for the three benchmark workloads.

Each generator returns the document text handed to the library plus the
answers known from how the input was built.  Nothing here imports
``ribboncalc``: the expected answers come from the pieces an input was
assembled from and from the documented move rules, so agreement with the
library is a real check.

Inputs depend only on (workload, seed, index): the same seed gives
byte-identical text.  Sizes follow a fixed schedule per workload, cycled by
operation index, so every seed sees the same mix of sizes and a run's cost
does not hinge on which sizes a seed happened to draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def case_rng(workload: str, seed: int, index: int) -> random.Random:
    # String seeds are hashed with SHA-512, so this does not depend on
    # PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{index}")


# -- abelian arithmetic for expected answers -----------------------------

def _prime_powers(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(diagonal: list[int]) -> tuple[int, ...]:
    """Invariant factors (ascending, each >= 2) of Z^k / diag(d_1..d_k).

    Works prime by prime: the largest exponents of every prime go into the
    largest factor, the next largest into the next, and so on.
    """
    exps: dict[int, list[int]] = {}
    for d in diagonal:
        for p, e in _prime_powers(abs(d)).items():
            exps.setdefault(p, []).append(e)
    width = max((len(v) for v in exps.values()), default=0)
    factors = [1] * width
    for p, es in exps.items():
        for k, e in enumerate(sorted(es, reverse=True)):
            factors[width - 1 - k] *= p ** e
    return tuple(factors)


# -- script_replay -------------------------------------------------------

# (components, script commands), cycled by operation index.  Per command
# the library recomputes sigma and H1 from scratch, so cost grows with
# the component count: O(n^4) linking matrices, the Fraction-based
# signature and the Smith form's coefficient growth.  Sorted by cost, the
# median falls inside the block of 16-component scripts and the 90th
# percentile inside the 28-component block, not between two sizes.
SCRIPT_SCHEDULE = ((12, 6), (16, 6), (28, 4), (14, 6), (16, 6),
                   (20, 5), (12, 6), (16, 6), (32, 4), (14, 6),
                   (24, 4), (16, 6), (12, 6), (28, 4), (20, 5),
                   (16, 6), (14, 6), (40, 3), (16, 6), (12, 6),
                   (24, 4), (28, 4), (16, 6), (20, 5), (14, 6),
                   (16, 6), (12, 6), (28, 4), (20, 5), (16, 6))
# Slides only ever join components of one cluster, so the linking matrix
# is a block sum of dense blocks of about this many rows.  A single dense
# scramble of 24 or more components sends the Smith form into coefficient
# blow-up on some seeds (3 of 250 scripts at 24 components with 2n slides,
# and some at 28-40 with n slides, took from seconds to over a minute),
# which one operation of a bounded run cannot absorb.
CLUSTER = 10


@dataclass(frozen=True)
class ScriptCase:
    diagram: str
    script: str
    # Per step (initial state first): (euler, signature, free rank, torsion)
    invariants: tuple[tuple[int, int, int, tuple[int, ...]], ...]
    # Final state: components as (id, kind, framing) and nonzero links as
    # {(i, j): (alg, geom)} with i <= j, plus the 3-handle count.
    final_components: tuple[tuple[str, str, int | None], ...]
    final_links: dict
    final_three_handles: int


class _Tracker:
    """The diagram as the move rules change it: integer data only."""

    def __init__(self):
        self.comps: list[list] = []          # [id, kind, framing]
        self.alg: dict[tuple[str, str], int] = {}
        self.geom: dict[tuple[str, str], int] = {}
        self.three = 0
        self.sigma = 0
        self.free = 0
        self.torsion: tuple[int, ...] = ()
        self.cluster: dict[str, int] = {}

    @staticmethod
    def key(i, j):
        return (i, j) if i <= j else (j, i)

    def comp(self, cid):
        return next(c for c in self.comps if c[0] == cid)

    def ids(self):
        return [c[0] for c in self.comps]

    def framed(self):
        return [c[0] for c in self.comps if c[1] == "framed"]

    def dotted(self):
        return [c[0] for c in self.comps if c[1] == "dotted"]

    def a(self, i, j):
        if i == j:
            return self.comp(i)[2] or 0
        return self.alg.get(self.key(i, j), 0)

    def g(self, i, j):
        return self.geom.get(self.key(i, j), 0)

    def bump(self, i, j, da, dg):
        k = self.key(i, j)
        self.alg[k] = self.alg.get(k, 0) + da
        self.geom[k] = self.geom.get(k, 0) + dg

    def euler(self):
        dotted = len(self.dotted())
        return 1 - dotted + (len(self.comps) - dotted) - self.three

    def state(self):
        return (self.euler(), self.sigma, self.free, self.torsion)

    # Moves, written from the rules in the diagram module's docstrings.

    def slide(self, moving, over, sign):
        """Band sum: an integer congruence, so sigma and H1 are unchanged."""
        f_o = self.a(over, over)
        old = self.a(moving, over)
        for k in self.ids():
            if k not in (moving, over):
                self.bump(moving, k, sign * self.a(over, k), self.g(over, k))
        self.bump(moving, over, sign * f_o, abs(f_o))
        m = self.comp(moving)
        if m[1] == "framed":
            m[2] = m[2] + f_o + 2 * sign * old

    def blowup(self, sign, cid):
        self.comps.append([cid, "framed", sign])
        self.sigma += sign

    def blowdown(self, cid):
        self.sigma -= self.comp(cid)[2]
        self.remove(cid)

    def remove(self, cid):
        self.comps = [c for c in self.comps if c[0] != cid]
        for d in (self.alg, self.geom):
            for k in [k for k in d if cid in k]:
                del d[k]

    def twist(self, t, cid, strands):
        """A t-framed blow-up with every strand slid over it: sigma += t."""
        listed = list(strands)
        for x in range(len(listed)):
            for y in range(x + 1, len(listed)):
                ci, cj = listed[x], listed[y]
                self.bump(ci, cj, t * strands[ci] * strands[cj],
                          abs(strands[ci] * strands[cj]))
        for ci, m in strands.items():
            c = self.comp(ci)
            c[2] += t * m * m
        self.comps.append([cid, "framed", t])
        for ci, m in strands.items():
            self.bump(ci, cid, t * m, abs(m))
        self.sigma += t

    def set_geom(self, i, j, g):
        self.geom[self.key(i, j)] = g

    def links(self):
        out = {}
        for k, a in self.alg.items():
            g = self.geom.get(k, 0)
            if (a, g) != (0, 0):
                out[k] = (a, g)
        return out


def _block_sum(rng: random.Random, n: int) -> _Tracker:
    """Unlinked pieces with known invariants, n components.

    The mix is fixed by n (a quarter in Hopf pairs, 30% each ±1 and
    p-framed, the rest 0-framed) so that scripts of one size cost alike;
    signs, p and the order come from the seed.
    """
    t = _Tracker()
    hopf, units, lens = n // 8, round(0.3 * n), round(0.3 * n)
    pieces = ([("hopf", 0)] * hopf
              + [("unit", rng.choice((1, -1))) for _ in range(units)]
              + [("lens", rng.randint(2, 7) * rng.choice((1, -1)))
                 for _ in range(lens)]
              + [("zero", 0)] * (n - 2 * hopf - units - lens))
    rng.shuffle(pieces)
    torsion_diag = []
    for k, (kind, val) in enumerate(pieces):
        group = len(t.comps) // CLUSTER
        if kind == "hopf":
            t.comps.append([f"d{k}", "dotted", None])
            t.comps.append([f"h{k}", "framed", 0])
            t.bump(f"d{k}", f"h{k}", 1, 1)
            t.cluster[f"d{k}"] = t.cluster[f"h{k}"] = group
        else:
            t.comps.append([f"c{k}", "framed", val])
            t.cluster[f"c{k}"] = group
            if kind == "unit":
                t.sigma += val
            elif kind == "lens":
                t.sigma += 1 if val > 0 else -1
                torsion_diag.append(val)
            else:
                t.free += 1
    t.torsion = invariant_factors(torsion_diag)
    return t


def _in_cluster(rng, t: _Tracker, members: list[str], need: int) -> list[str]:
    """The members of one seeded cluster that has at least ``need``."""
    groups: dict[int, list[str]] = {}
    for c in members:
        groups.setdefault(t.cluster[c], []).append(c)
    return rng.choice(sorted((g for g in groups.values() if len(g) >= need),
                             key=lambda g: g[0]))


def _random_slide(rng, t: _Tracker, avoid=()):
    """A framed-over-framed or dotted-over-dotted slide inside one cluster
    (both are congruences of the matrices behind sigma and H1)."""
    framed = _in_cluster(rng, t, [c for c in t.framed() if c not in avoid], 2)
    dotted = [c for c in t.dotted()
              if c not in avoid and t.cluster[c] == t.cluster[framed[0]]]
    if len(dotted) >= 2 and rng.random() < 0.15:
        moving, over = rng.sample(dotted, 2)
    else:
        moving, over = rng.sample(framed, 2)
    return moving, over, rng.choice((1, -1))


def script_case(seed: int, index: int, n: int | None = None,
                commands: int | None = None) -> ScriptCase:
    rng = case_rng("script_replay", seed, index)
    if n is None:
        n, commands = SCRIPT_SCHEDULE[index % len(SCRIPT_SCHEDULE)]
    t = _block_sum(rng, n)
    # Scramble: the diagram the library receives is already dense.
    for _ in range(2 * n):
        t.slide(*_random_slide(rng, t))
    comps = list(t.comps)
    rng.shuffle(comps)
    t.comps = [list(c) for c in comps]
    name = f"s{seed}x{index}"
    lines = [f"diagram {name}"]
    for cid, kind, f in t.comps:
        lines.append(f"component {cid} {kind}"
                     + ("" if f is None else f" {f}"))
    for (i, j), (a, g) in sorted(t.links().items()):
        lines.append(f"link {i} {j} {a} {g}")
    diagram = "\n".join(lines) + "\n"

    invariants = [t.state()]
    cmds: list[str] = []
    fresh = iter(range(10**6))

    def emit(cmd):
        cmds.append(cmd)
        invariants.append(t.state())

    def assertions():
        euler, sigma, free, torsion = t.state()
        choice = rng.randrange(3)
        if choice == 0:
            emit(f"assert-signature {sigma}")
        elif choice == 1:
            emit(f"assert-homology plus {free}"
                 + "".join(f" {d}" for d in torsion))
        else:
            emit(f"assert-euler {euler}")

    # Exactly ``commands`` commands, then a final assertion: multi-line
    # episodes are drawn only when they fit.
    while len(cmds) < commands:
        room = commands - len(cmds)
        r = rng.random()
        if r < 0.40 or (r < 0.55 and room < 5) or (0.65 <= r < 0.85
                                                   and room < 3):
            moving, over, s = _random_slide(rng, t)
            t.slide(moving, over, s)
            emit(f"slide {moving} {over} {'+' if s == 1 else '-'}")
        elif r < 0.55:
            # blowup, a slide round trip over it, isotopy, blowdown
            e = f"e{next(fresh)}"
            sign = rng.choice((1, -1))
            x = rng.choice(t.framed())
            s = rng.choice((1, -1))
            t.blowup(sign, e)
            t.cluster[e] = t.cluster[x]
            emit(f"blowup {'+' if sign == 1 else '-'} {e}")
            t.slide(x, e, s)
            emit(f"slide {x} {e} {'+' if s == 1 else '-'}")
            t.slide(x, e, -s)
            emit(f"slide {x} {e} {'-' if s == 1 else '+'}")
            t.set_geom(x, e, 0)
            emit(f"assert-geom {x} {e} 0")
            t.blowdown(e)
            emit(f"blowdown {e}")
        elif r < 0.65:
            e = f"t{next(fresh)}"
            sign = rng.choice((1, -1))
            group = _in_cluster(rng, t, t.framed(), 1)
            strands = {c: rng.choice((1, -1, 2, -2)) for c in
                       rng.sample(group, min(len(group), rng.randint(1, 3)))}
            t.twist(sign, e, strands)
            t.cluster[e] = t.cluster[group[0]]
            emit(f"twistblowup {'+' if sign == 1 else '-'} {e} "
                 + " ".join(f"{c}:{m}" for c, m in strands.items()))
        elif r < 0.75:
            k = next(fresh)
            dp, hp = f"dp{k}", f"hp{k}"
            t.comps.append([dp, "dotted", None])
            t.comps.append([hp, "framed", 0])
            t.bump(dp, hp, 1, 1)
            t.cluster[dp] = t.cluster[hp] = -1
            emit(f"addpair 12 {dp} {hp}")
            moving, over, s = _random_slide(rng, t, avoid=(dp, hp))
            t.slide(moving, over, s)
            emit(f"slide {moving} {over} {'+' if s == 1 else '-'}")
            t.remove(dp)
            t.remove(hp)
            emit(f"cancel {dp} {hp}")
        elif r < 0.85:
            hz = f"hz{next(fresh)}"
            t.comps.append([hz, "framed", 0])
            t.cluster[hz] = -1
            t.three += 1
            t.free += 1
            emit(f"addpair 23 {hz}")
            assertions()
            t.remove(hz)
            t.three -= 1
            t.free -= 1
            emit(f"cancel {hz}")
        else:
            slack = [(k, a) for k, a in t.alg.items()
                     if t.geom.get(k, 0) > abs(a)]
            if not slack:
                continue
            (i, j), a = rng.choice(sorted(slack))
            t.set_geom(i, j, abs(a))
            emit(f"assert-geom {i} {j} {abs(a)}")
        if len(cmds) < commands and rng.random() < 0.5:
            assertions()
    assertions()
    script = f"script {name}\n" + "\n".join(cmds) + "\n"
    return ScriptCase(diagram, script, tuple(invariants),
                      tuple(tuple(c) for c in t.comps), t.links(), t.three)


# -- tree_unroll ---------------------------------------------------------

@dataclass(frozen=True)
class TreeCase:
    text: str
    depth: int              # truncation depth
    positive: bool          # is_positive of the handle
    prune: int | None       # prune_depth of the handle
    cost: int | None        # kuga_blowup_cost (non-positive handles only)
    tower_nodes: int
    tower_positive_branch: bool
    tower_strict: bool
    tower_prune: int | None


# (family, size), cycled by operation index: binary (+,-) towers of
# 2^(n+1)-1 nodes, ternary (+,+,-) towers, diamond chains with 2^d
# positive paths, and positive cycles unrolled to their own length.
# Chains stop at 250: the tower's recursive branch search uses about three
# interpreter frames per level.  Per pass of 50: 18 chains, 13 binary(9),
# 6 ternary(6), 4 binary(10), 6 diamond(12) and one each of binary(12),
# diamond(16) and ternary(7).  Sorted by cost, the median falls inside the
# binary(9) block and the 90th percentile inside the diamond(12) block, so
# neither sits on a boundary between two sizes.
_ROW = (("chain", 100), ("binary", 9), ("chain", 150), ("ternary", 6),
        ("chain", 200), ("binary", 9), ("chain", 250), ("binary", 9))
TREE_SCHEDULE = (_ROW + (("diamond", 12), ("binary", 12), ("binary", 10))
                 + _ROW + (("diamond", 12), ("diamond", 16), ("binary", 10))
                 + _ROW + (("diamond", 12), ("ternary", 7), ("binary", 10))
                 + _ROW + (("diamond", 12), ("binary", 10))
                 + (("chain", 100), ("diamond", 12), ("ternary", 6),
                    ("chain", 150), ("diamond", 12), ("binary", 9),
                    ("ternary", 6)))

# Positive chains past the interpreter's recursion limit: the tower search
# fails from about 330 levels and is_positive from about 1000.  They raise
# RecursionError and run as a separate known-defect probe.
DEEP_CHAIN_LENGTHS = (600, 1200, 3000)


def _tree_text(name, nodes, root, edges):
    out = [f"tree {name}"]
    out.extend(f"node {n}" for n in nodes)
    out.append(f"root {root}")
    out.extend(f"edge {p} {c} {'+' if s == 1 else '-'}" for p, c, s in edges)
    return "\n".join(out) + "\n"


def _names(rng, count, prefix):
    """Distinct short node names in a seeded order."""
    names = [f"{prefix}{k}" for k in range(count)]
    rng.shuffle(names)
    return names


def tree_case(seed: int, index: int, family: str | None = None,
              size: int | None = None) -> TreeCase:
    rng = case_rng("tree_unroll", seed, index)
    if family is None:
        family, size = TREE_SCHEDULE[index % len(TREE_SCHEDULE)]
    name = f"h{seed}x{index}"
    if family in ("binary", "ternary"):
        # One node with self-loops: signs (+,-) or (+,+,-) in seeded order.
        (r,) = _names(rng, 1, "v")
        signs = [1, -1] if family == "binary" else [1, 1, -1]
        rng.shuffle(signs)
        text = _tree_text(name, [r], r, [(r, r, s) for s in signs])
        k = len(signs)
        nodes = (k ** (size + 1) - 1) // (k - 1)
        return TreeCase(text, size, True, None, None, nodes, True,
                        family == "ternary", None)
    if family == "diamond":
        # v_i -> a_i, b_i -> v_{i+1}, all positive; v_d has a negative
        # back-edge to the root.  2^d positive paths reach v_d.
        d = size
        names = _names(rng, 3 * d + 1, "n")
        v = names[:d + 1]
        a = names[d + 1:2 * d + 1]
        b = names[2 * d + 1:]
        edges = []
        for i in range(d):
            pair = [(v[i], a[i], 1), (v[i], b[i], 1)]
            rng.shuffle(pair)
            edges += pair + [(a[i], v[i + 1], 1), (b[i], v[i + 1], 1)]
        edges.append((v[d], v[0], -1))
        order = list(names)
        rng.shuffle(order)
        order.remove(v[0])
        text = _tree_text(name, [v[0]] + order, v[0], edges)
        # Truncate at depth 2k with k = min(d, 9): all maximal paths are
        # positive (the negative edge sits at depth 2d + 1).
        k = min(d, 9)
        nodes = 2 ** (k + 2) - 3
        return TreeCase(text, 2 * k, False, 1 + 2 * d, 2 ** d, nodes, True,
                        True, None)
    if family == "chain":
        # A positive cycle of length L; unrolled to depth L it is a path.
        names = _names(rng, size, "c")
        edges = [(names[i], names[(i + 1) % size], 1) for i in range(size)]
        text = _tree_text(name, names, names[0], edges)
        return TreeCase(text, size, True, None, None, size + 1, True, True,
                        None)
    raise ValueError(f"unknown tree family {family!r}")


# -- ribbon_plan ---------------------------------------------------------

# (sphere pairs, fingers, accessory loops)
RIBBON_SCHEDULE = ((20, 100, 4), (40, 200, 6), (60, 400, 8), (30, 150, 3),
                   (100, 600, 10), (80, 300, 12), (150, 900, 14),
                   (50, 250, 5), (200, 1200, 16), (120, 500, 20),
                   (300, 1500, 20), (70, 350, 8))
POSITIVE_EVERY = 4       # every fourth descriptor is positive

# Small cap trees as (nodes, root, edges), the non-positive ones with their
# cost and prune depth in closed form.
def _np_fan(a: int, b: int):
    """Positive path of length a, then b negative leaves and a negative
    back-edge: non-positive, cost b + 1, prune depth 1 + a."""
    v = [f"v{i}" for i in range(a + 1)]
    x = [f"x{j}" for j in range(b)]
    edges = [(v[i], v[i + 1], 1) for i in range(a)]
    edges += [(v[a], y, -1) for y in x] + [(v[a], v[0], -1)]
    return v + x, v[0], edges, b + 1, 1 + a


def _np_diamond(c: int):
    """Two positive paths into s, which has c + 1 negative edges:
    non-positive, cost 2 (c + 1), prune depth 3."""
    y = [f"y{j}" for j in range(c)]
    edges = [("r", "p", 1), ("r", "q", 1), ("p", "s", 1), ("q", "s", 1),
             ("s", "r", -1)] + [("s", z, -1) for z in y]
    return ["r", "p", "q", "s"] + y, "r", edges, 2 * (c + 1), 3


POSITIVE_TREES = {
    "chp": (["r"], "r", [("r", "r", 1)]),
    "pp": (["r", "a", "b"], "r",
           [("r", "a", 1), ("a", "r", 1), ("a", "b", -1)]),
}


@dataclass(frozen=True)
class RibbonCase:
    text: str
    pairs: int
    kind: str                # "product" or "positive-obstruction"
    witness: str | None
    blowups: int
    k: int
    replaced: int            # ReplaceCap steps


def ribbon_case(seed: int, index: int, ab_ids: bool = False,
                size: tuple[int, int, int] | None = None) -> RibbonCase:
    rng = case_rng("ribbon_plan" + ("_ab" if ab_ids else ""), seed, index)
    pairs, nf, nl = size or RIBBON_SCHEDULE[index % len(RIBBON_SCHEDULE)]
    positive = index % POSITIVE_EVERY == POSITIVE_EVERY - 1
    order = list(range(1, pairs + 1))
    rng.shuffle(order)
    rank = {s: i for i, s in enumerate(order)}
    fingers = []
    for k in range(nf):
        a, b = rng.sample(order, 2)
        if rank[a] > rank[b]:
            a, b = b, a
        if ab_ids:
            fid, wid = f"A{k + 1}", f"B{k + 1}"
        else:
            fid, wid = f"f{k}", f"w{k}"
        fingers.append((fid, a, b, wid))

    # Non-positive tree palette for this descriptor.
    palette = {}
    for j in range(3):
        if rng.random() < 0.5:
            palette[f"n{j}"] = _np_fan(rng.randint(0, 5), rng.randint(0, 4))
        else:
            palette[f"n{j}"] = _np_diamond(rng.randint(0, 6))
    nonpos = list(palette)

    def cap_for(kind):
        if kind == "standard":
            return None
        if kind == "positive":
            return rng.choice(("chp", "pp"))
        return rng.choice(nonpos)

    # Caps are fixed before loops are drawn, so a loop's refusal clause is
    # settled by which fingers it picks.
    wcap = {}
    for _, _, _, wid in fingers:
        r = rng.random()
        wcap[wid] = cap_for("standard" if r < 0.45 else
                            "positive" if r < 0.75 else "nonpositive")
    # At least one finger of each kind, so every loop shape can be drawn.
    if all(wcap[f[3]] not in POSITIVE_TREES for f in fingers):
        wcap[fingers[0][3]] = "chp"
    if all(wcap[f[3]] in POSITIVE_TREES for f in fingers):
        wcap[fingers[-1][3]] = None
    good = [f for f in fingers if wcap[f[3]] in POSITIVE_TREES]
    bad = [f for f in fingers if wcap[f[3]] not in POSITIVE_TREES]
    good_by_source: dict[int, list] = {}
    for f in good:
        good_by_source.setdefault(f[1], []).append(f)
    twins = [fs for fs in good_by_source.values() if len(fs) >= 2]
    loops = []
    lcap = {}
    witness = None
    witness_at = rng.randrange(nl) if positive else -1
    for li in range(nl):
        lid = f"l{li}"
        shape = rng.random()
        if li == witness_at:
            # Positive Whitney caps on fingers from distinct A spheres.
            size = rng.randint(1, 6)
            chosen, sources = [], set()
            for f in rng.sample(good, len(good)):
                if f[1] not in sources:
                    chosen.append(f)
                    sources.add(f[1])
                if len(chosen) == size:
                    break
            kind = "positive" if len(chosen) == 1 else rng.choice(
                ("standard", "positive", "nonpositive"))
            witness = lid
        elif shape < 0.2 and good:
            # Refused at clause (b): positive singleton, other loop cap.
            chosen = [rng.choice(good)]
            kind = rng.choice(("standard", "nonpositive"))
        elif shape < 0.4 and twins:
            # Refused at clause (c): two fingers from one A sphere.
            chosen = rng.sample(rng.choice(twins), 2)
            kind = rng.choice(("standard", "positive", "nonpositive"))
        else:
            # Refused at clause (a): a finger without a positive cap.
            chosen = [rng.choice(bad)] + rng.sample(
                fingers, min(len(fingers), rng.randint(0, 7)))
            chosen = list({f[0]: f for f in chosen}.values())
            kind = rng.choice(("standard", "positive", "nonpositive"))
        loops.append((lid, [f[0] for f in chosen]))
        lcap[lid] = cap_for(kind)

    needed = [(f[3], wcap[f[3]]) for f in fingers] + \
             [(lid, lcap[lid]) for lid, _ in loops]
    used = []
    for _, tree in needed:
        if tree is not None and tree not in used:
            used.append(tree)
    out = []
    for tname in used:
        if tname in POSITIVE_TREES:
            nodes, root, edges = POSITIVE_TREES[tname]
        else:
            nodes, root, edges, _, _ = palette[tname]
        out.append(_tree_text(tname, nodes, root, edges))
    out.append("middle\n")
    out.append(f"pairs {pairs}\n")
    for fid, a, b, wid in fingers:
        out.append(f"finger {fid} {a} {b} {wid}\n")
    for lid, chosen in loops:
        out.append(f"loop {lid} " + " ".join(chosen) + "\n")
    for cid, tree in needed:
        out.append(f"cap {cid} standard\n" if tree is None
                   else f"cap {cid} tree {tree}\n")
    text = "".join(out)
    if positive:
        return RibbonCase(text, pairs, "positive-obstruction", witness,
                          0, 0, 0)
    costs = [palette[tree][3:] for _, tree in needed if tree in palette]
    return RibbonCase(text, pairs, "product", None,
                      sum(c for c, _ in costs),
                      max((d for _, d in costs), default=0),
                      len(costs))
