"""Answers computed apart from groupshift, and the checks that use them.

Nothing here imports groupshift.  Group elements are handled with the
benchmark's own arithmetic: integer vectors for Z^d, free reduction for
F_k, and permutations of a level of the binary tree for the first
Grigorchuk group.  Every check raises CheckFailed on a wrong answer.
"""

from __future__ import annotations

import math


class CheckFailed(Exception):
    """A program output disagrees with the independent answer."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# generator names, as groupshift's descriptors define them

def axis_names(rank):
    return ("x", "y", "z")[:rank] if rank <= 3 else tuple(f"x{i + 1}" for i in range(rank))


def paired_symbols(rank):
    """Non-identity generator symbols in declaration order: x, x-, y, y-, ..."""
    out = []
    for name in axis_names(rank):
        out += [name, name + "-"]
    return tuple(out)


def inverse_symbol(sym):
    if sym == "1":
        return sym
    return sym[:-1] if sym.endswith("-") else sym + "-"


# ---------------------------------------------------------------------------
# Z^d by coordinates, F_k by free reduction

class AbelianArith:
    def __init__(self, rank):
        self.rank = rank
        self.symbols = paired_symbols(rank)
        self.step = {}
        for i, name in enumerate(axis_names(rank)):
            unit = [0] * rank
            unit[i] = 1
            self.step[name] = tuple(unit)
            self.step[name + "-"] = tuple(-u for u in unit)

    def element(self, word):
        total = [0] * self.rank
        for sym in word:
            if sym == "1":
                continue
            for i, d in enumerate(self.step[sym]):
                total[i] += d
        return tuple(total)

    def mul(self, a, b):
        return tuple(p + q for p, q in zip(a, b))

    def identity(self):
        return (0,) * self.rank

    def length(self, e):
        return sum(abs(v) for v in e)


class FreeArith:
    def __init__(self, rank):
        self.symbols = paired_symbols(rank)

    def element(self, word):
        stack = []
        for sym in word:
            if sym == "1":
                continue
            if stack and stack[-1] == inverse_symbol(sym):
                stack.pop()
            else:
                stack.append(sym)
        return tuple(stack)

    def mul(self, a, b):
        return self.element(a + b)

    def identity(self):
        return ()

    def length(self, e):
        return len(e)


def shortlex_ball(arith, radius):
    """Ball words in breadth-first shortlex order, with their elements.

    This is the addressing groupshift documents: canonical words listed
    level by level, parents in order, generators in declaration order.
    """
    words = [()]
    elems = [arith.identity()]
    seen = {arith.identity(): 0}
    level = [((), arith.identity())]
    for _ in range(radius):
        nxt = []
        for parent, base in level:
            for sym in arith.symbols:
                e = arith.mul(base, arith.element((sym,)))
                if e in seen:
                    continue
                seen[e] = len(words)
                words.append(parent + (sym,))
                elems.append(e)
                nxt.append((parent + (sym,), e))
        level = nxt
    return words, elems, seen


def abelian_ball_size(rank, radius):
    return sum(2**k * math.comb(rank, k) * math.comb(radius, k) for k in range(rank + 1))


def free_ball_size(rank, radius):
    if rank == 1:
        return 2 * radius + 1
    return 1 + 2 * rank * ((2 * rank - 1) ** radius - 1) // (2 * rank - 2)


# ---------------------------------------------------------------------------
# the first Grigorchuk group acting on a level of the binary tree

def _grig_image(letter, bits):
    out = list(bits)
    state = letter
    for i, b in enumerate(bits):
        if state == "e":
            break
        if state == "a":
            out[i] = 1 - b
            state = "e"
        elif state == "b":
            state = "a" if b == 0 else "c"
        elif state == "c":
            state = "a" if b == 0 else "d"
        elif state == "d":
            state = "e" if b == 0 else "b"
    return tuple(out)


class GrigorchukPerms:
    """Elements as permutations of the 2^depth vertices of one tree level."""

    def __init__(self, depth):
        self.depth = depth
        n = 2**depth
        self.identity_perm = tuple(range(n))
        self.gen = {}
        for letter in "abcd":
            perm = []
            for v in range(n):
                bits = tuple((v >> (depth - 1 - i)) & 1 for i in range(depth))
                img = _grig_image(letter, bits)
                perm.append(sum(b << (depth - 1 - i) for i, b in enumerate(img)))
            self.gen[letter] = tuple(perm)

    def element(self, letters):
        perm = self.identity_perm
        for letter in letters:
            if letter == "1":
                continue
            g = self.gen[letter]
            perm = tuple(g[p] for p in perm)
        return perm

    def mul(self, perm, letter):
        g = self.gen[letter]
        return tuple(g[p] for p in perm)

    def sphere_sizes(self, radius):
        seen = {self.identity_perm}
        level = [self.identity_perm]
        sizes = [1]
        for _ in range(radius):
            nxt = []
            for perm in level:
                for letter in "abcd":
                    q = self.mul(perm, letter)
                    if q not in seen:
                        seen.add(q)
                        nxt.append(q)
            sizes.append(len(nxt))
            level = nxt
        return sizes


def grigorchuk_perms(radius):
    """A tree level on which the radius-r ball is seen faithfully.

    The level is deepened until the ball size has stayed the same for
    three further levels; the deepest level is returned.
    """
    depth, last, stable = 2, None, 0
    while True:
        perms = GrigorchukPerms(depth)
        size = sum(perms.sphere_sizes(radius))
        stable = stable + 1 if size == last else 0
        if stable == 3:
            return perms
        last = size
        depth += 1


def grigorchuk_distances(perms, radius):
    """Word length of every element of the radius-r ball, by its permutation."""
    distance = {}
    level = {perms.identity_perm}
    for d in range(radius + 1):
        for perm in level:
            distance.setdefault(perm, d)
        level = {perms.mul(p, s) for p in level for s in "abcd"} - set(distance)
    return distance


# ---------------------------------------------------------------------------
# golden-mean configurations: no 1 at both h and h·x

def golden_config(rng, arith, radius, density=0.35):
    """A seeded admissible configuration on the radius-r ball.

    Cells are visited in shortlex order and set to 1 at random unless a
    neighbour along x already holds a 1; cells outside the ball read 0,
    so the configuration extends admissibly to the whole group.
    """
    _, elems, _ = shortlex_ball(arith, radius)
    x = arith.element(("x",))
    xi = arith.element(("x-",))
    ones = set()
    for e in elems:
        if rng.random() < density and arith.mul(e, x) not in ones and arith.mul(e, xi) not in ones:
            ones.add(e)
    return ones


def golden_violated(arith, addressed, ones):
    """Some addressed b has 1 at b and at b·x, with b·x addressed too."""
    x = arith.element(("x",))
    return any(e in ones and arith.mul(e, x) in ones for e in addressed if arith.mul(e, x) in addressed)


def coding(elems, ones, count):
    return "".join("1" if elems[m] in ones else "0" for m in range(count))


# ---------------------------------------------------------------------------
# checks on geometry outputs

def check_cover(succ, pred, distance, radius, margin, is_edge):
    """Independent walk over a path cover given as index maps.

    `is_edge(h, t)` answers whether t = h·s for a non-identity generator s.
    """
    n = len(distance)
    for name, fwd, back in (("succ", succ, pred), ("pred", pred, succ)):
        for h, t in fwd.items():
            require(0 <= h < n and 0 <= t < n, f"{name}[{h}]={t} is outside the ball")
            require(back.get(t) == h, f"{name}[{h}]={t} has no inverse entry")
            require(t != h and is_edge(h, t), f"{name}[{h}]={t} is not a generator edge")
    for h in range(n):
        if distance[h] <= radius - margin:
            require(h in succ and h in pred, f"interior cell {h} is a path end")
    for h in succ:
        cur, steps = h, 0
        while cur in succ:
            cur = succ[cur]
            steps += 1
            require(steps <= n, f"the cover has a cycle through cell {h}")


def check_square_free(colors, max_len):
    """No factor of even length <= max_len of a colour sequence reads ww."""
    for half in range(1, max_len // 2 + 1):
        for i in range(len(colors) - 2 * half + 1):
            require(
                colors[i : i + half] != colors[i + half : i + 2 * half],
                f"square of half-length {half} at position {i}",
            )


def probe_status(factors, components):
    """Verdict of one candidate from per-factor comparisons.

    factors: per factor a dict coordinate -> colour on a Z ball;
    components: per factor an integer translation.
    """
    mismatch = False
    for colors, shift in zip(factors, components):
        pairs = [(p, p + shift) for p in colors if p + shift in colors]
        if not pairs:
            return "Undetermined"
        if any(colors[p] != colors[q] for p, q in pairs):
            mismatch = True
    return "Broken" if mismatch else "Respected"


def z_coordinate(word):
    return sum(1 if s == "x" else -1 if s == "x-" else 0 for s in word)
