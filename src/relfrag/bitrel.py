"""The bit-sliced kernel: a batch of relations as Python integers.

A batch of B structures at stride m holds, per variable, m^2 Python
integers, one per pair (x, y) at index ``x*m + y``: bit i says whether
entry i has the pair.  Entries may have different universe sizes up to
m, the entries of one size consecutive.  Each pair also has a mask
(``batch_masks``): the entries whose size covers the pair, that is the
entries whose size exceeds max(x, y), which is all B bits when the
batch has one size.  The operators are then plain
integer operations.  Union, intersection and complement (XOR with the
mask) are one operation per pair; converse is a permutation of the
list; composition is the OR over z of ``R[x][z] & S[z][y]`` and dagger
is its De Morgan dual ~(~R ; ~S).  The maps that can reach past an
entry's square AND with the mask: complement, ``top``, ``I``, ``D``,
dagger, the projections [1,1] and [2,2], which copy the diagonal along
each row or column, and the letter ``cD``.  Composition, converse,
union, intersection, ``iI`` and ``iD`` keep the pairs outside an
entry's square empty.  So no batch value holds a pair outside its
entry's square, and no kernel writes its inputs: each returns a new
list or one of its inputs unchanged.  No kernel limits the size.

*Context words.*  ``iI`` / ``iD`` keep or clear the diagonal; ``cv`` is
converse; ``{(x, y)} ; D`` is row x minus (x, y), so ``cD`` sets (x, y)
to the OR of row x's other pairs, those before y and those after it,
masked.  It runs as straight-line code generated once per stride, the
m^2 pair integers unpacked into locals and each row's prefix and
suffix ORs built in one pass each.  The mask only clears the columns
past a smaller entry's size, so on a batch whose entries all have the
full size (the first and last pair have the same mask) ``cD`` skips
it.  Every letter
preserves unions and sends the empty relation to itself, so the n^2
images of the one-pair relations (``one_pair_relations``,
``singleton_images``) fix a word's map at size n exactly.  Entry j of
that batch is the one-pair relation ``1 << j`` (j = x*n + y), so the
images are the word's transfer matrix: bit j of pair i's integer says
whether pair j feeds pair i.  Two words differ at size n iff some image
differs, and if j is the lowest such entry then ``1 << j`` is the
numerically first separating relation of size n (a smaller relation
has only bits below j, whose images agree).
``rule_counterexamples`` evaluates each word once over all the sizes
asked for; ``search.verify_rules`` decides with it.  The literal scan
over all 2^(n^2) relations lives in the test suite as an independent
oracle.

*The word monoid.*  The distinct images of the words are the elements
of a finite monoid, and ``word_monoid`` keeps its Cayley table for one
set of sizes, filled as it is read: ``times(e, letter)`` computes a
cell with one ``apply_letter`` the first time it is asked for and
interns the image, and ``element(w)`` walks w from its last letter,
which acts first.  There is one table per size set, cached for the
process.  ``search.run_search`` keys its candidates by element, and
``decide.decide_word_equiv`` compares two words' elements at size 5.
From 5 points on the monoid has 124 elements; the largest table asked
for, that of sizes 1..5, closes at 1,239.

*Terms.*  ``eval_term_batch`` evaluates a term on a batch of
structures.  A composition with ``D`` or ``I`` runs on the letters:
``R ; D`` is ``cD`` with its mask, ``D ; R`` is ``(R^ ; D)^`` (the
masks are symmetric, so the conjugation keeps them), and ``R ; I`` and
``I ; R`` are R's own list, which is exact because R holds no pair
outside its square and safe because no kernel writes its inputs.  Every
other composition, and the one inside a dagger, takes the general
kernel.  ``first_separating`` takes the lowest set bit of the OR of
the pairwise XORs of the two sides, the first entry that separates
them, and reads that structure back at its own size.  The oracles of
``semantics`` hand it batches of one size, and the exact routes of
``decide`` one batch of several sizes.  ``pack_structures`` is the one
way from structures to a batch: the one-pair relations and both exact
routes of ``decide`` pack with it.

*Samples.*  ``sampled_batches`` draws seeded random structures straight
into batches, one ``random.getrandbits`` integer per pair and variable;
``semantics.random_check`` and ``sample_panel`` both draw with it.
``enumerated_batches`` lists every structure of one size in the same
batches, for ``semantics.exhaustive_check``.
"""

from __future__ import annotations

import random
from functools import lru_cache, reduce
from math import isqrt
from operator import and_, itemgetter, or_, xor
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .semantics import Rel, SemanticsError, Structure
from .terms import Bot, Comp, Compl, Dagger, Di, Id, Inter, Proj, Term, Top, Union, Var, fold
from .words import CAP_D, CAP_I, CONV, DOT_D, Letter, Word


def batch_masks(layout: Iterable[tuple[int, int]]) -> list[int]:
    """The masks of a batch of ``count`` entries of ``size`` for each
    (size, count) in turn, at the stride of the largest size."""
    layout = list(layout)
    m = max(n for n, _ in layout)
    # wider[k]: the entries whose size exceeds k, which are the entries
    # that cover every pair (x, y) with max(x, y) = k
    wider = [0] * m
    offset = 0
    for n, count in layout:
        wider[n - 1] |= ((1 << count) - 1) << offset
        offset += count
    for k in range(m - 2, -1, -1):
        wider[k] |= wider[k + 1]
    return list(_by_larger_coordinate(m)(wider))


@lru_cache(maxsize=None)
def _by_larger_coordinate(m: int):
    # reads item max(x, y) for pair x*m + y, as a tuple even when m is 1
    at = [max(x, y) for x in range(m) for y in range(m)]
    return itemgetter(*at) if m > 1 else lambda wider: (wider[0],)


def pack_structures(structures: Mapping[int, Iterable[Sequence[int]]], names: Sequence):
    """One batch of structures by size, each a relation per name in turn
    (row-major, ``Rel.bits``): the sizes ascending, the structures of a
    size in the order given, at the stride m of the largest size, so that
    bit j of pair x*m+y holds (x, y) of entry j.  Returns each name's
    pair integers and the batch's masks.  The entries fill one block of
    64 at a time, each pair's block a small integer, so no bit is ORed
    into an integer that grows with the batch; a batch of more than one
    block joins each pair's blocks once, as bytes."""
    m, j = max(structures), 0
    block = [[0] * (m * m) for _ in names]
    joined: list[list[bytearray]] = []  # per name and pair, the full blocks so far

    def flush() -> None:
        if not joined:
            joined.extend([bytearray() for _ in range(m * m)] for _ in names)
        for pairs, done in zip(block, joined):
            for p, r in enumerate(pairs):
                done[p] += r.to_bytes(8, "little")
                pairs[p] = 0

    for n in sorted(structures):
        at = [x * m + y for x in range(n) for y in range(n)]
        for rels in structures[n]:
            if j and not j % 64:
                flush()
            bit = 1 << j % 64
            for pairs, r in zip(block, rels):
                while r:  # each set bit, lowest first
                    pairs[at[(r & -r).bit_length() - 1]] |= bit
                    r &= r - 1
            j += 1
    if j > 64:
        flush()
        block = [[int.from_bytes(done, "little") for done in pairs] for pairs in joined]
    return dict(zip(names, block)), batch_masks((n, len(structures[n])) for n in sorted(structures))


@lru_cache(maxsize=None)
def _converse_order(m: int) -> tuple[int, ...]:
    # pair (x, y) of the converse is pair (y, x)
    return tuple(y * m + x for x in range(m) for y in range(m))


@lru_cache(maxsize=None)
def _dot_d(m: int):
    """``cD`` at stride m before masking, as straight-line code compiled
    with one ``exec``: (x, y) is set where row x has a pair other than
    (x, y), the OR of the row's pairs before y (``p``, built left to
    right) and after it (``s``, built right to left)."""
    lines, out = [], []
    for x in range(0, m * m, m):
        before = {1: f"r{x}"}
        for y in range(2, m):
            lines.append(f"p{x + y} = {before[y - 1]} | r{x + y - 1}")
            before[y] = f"p{x + y}"
        after = {m - 2: f"r{x + m - 1}"}
        for y in range(m - 3, -1, -1):
            lines.append(f"s{x + y} = {after[y + 1]} | r{x + y + 1}")
            after[y] = f"s{x + y}"
        out += [" | ".join(filter(None, (before.get(y), after.get(y)))) or "0"
                for y in range(m)]
    source = (f"def dot_d(rels):\n    {', '.join(f'r{i}' for i in range(m * m))}, = rels\n"
              + "".join(f"    {line}\n" for line in lines)
              + f"    return [{', '.join(out)}]\n")
    namespace: dict = {}
    exec(source, namespace)
    return namespace["dot_d"]


def apply_letter(rels: Sequence[int], letter: Letter, masks: Sequence[int]) -> list[int]:
    """One letter on every entry of a batch."""
    m = isqrt(len(masks))
    if letter is CAP_I:
        out = [0] * len(rels)
        out[::m + 1] = rels[::m + 1]  # the diagonal, every m+1 pairs
        return out
    if letter is CAP_D:
        out = list(rels)
        out[::m + 1] = [0] * m
        return out
    if letter is CONV:
        return [rels[i] for i in _converse_order(m)]
    if letter is DOT_D:
        out = _dot_d(m)(rels)
        # the last pair covers the same entries as the first only when
        # every entry has the full size, and then nothing needs clearing
        return out if masks[0] == masks[-1] else list(map(and_, out, masks))
    raise ValueError(f"unknown letter {letter!r}")


def apply_word_packed(rels: Sequence[int], w: Word, masks: Sequence[int]) -> list[int]:
    """Value of w filled with each relation of the batch; the last
    letter acts first (it is innermost)."""
    rels = list(rels)
    for letter in reversed(w):
        rels = apply_letter(rels, letter, masks)
    return rels


# ---------------------------------------------------------------------------
# Exact equality


@lru_cache(maxsize=None)
def one_pair_relations(sizes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The one-pair relations of each size, sizes ascending, (x, y) of
    size n as entry x*n + y of that size's segment, at the stride of the
    largest size, and the batch's masks."""
    batch, masks = pack_structures({n: [(1 << p,) for p in range(n * n)] for n in sizes}, [""])
    return tuple(batch[""]), tuple(masks)


class WordMonoid:
    """The monoid of the core words on the one-pair relations of a set of
    sizes, as a Cayley table filled as it is read.  Element e is the
    images ``images[e]``; element 0 is the empty word's, the batch of
    ``one_pair_relations``.  ``cells[e][letter]`` is the element of the
    letter applied after e, or None until first asked for."""

    def __init__(self, sizes: tuple[int, ...]):
        base, self._masks = one_pair_relations(sizes)
        self.images: list[tuple[int, ...]] = [base]
        self._ids = {base: 0}
        self.cells: list[list[Optional[int]]] = [[None] * 4]

    def times(self, e: int, letter: Letter) -> int:
        """The element of the letter applied after element e: one
        ``apply_letter`` the first time the cell is read."""
        out = self.cells[e][letter]
        if out is None:
            image = tuple(apply_letter(self.images[e], letter, self._masks))
            out = self._ids.setdefault(image, len(self.images))
            if out == len(self.images):
                self.images.append(image)
                self.cells.append([None] * 4)
            self.cells[e][letter] = out
        return out

    def element(self, w: Word) -> int:
        """The word's element; its last letter acts first."""
        e = 0
        for letter in reversed(w):
            e = self.times(e, letter)
        return e


@lru_cache(maxsize=None)
def word_monoid(sizes: tuple[int, ...]) -> WordMonoid:
    """The one table of each size set, ascending.  The callers ask for
    at most nine size sets (``search`` one per exhaustive size from 1 to
    ``MAX_SIZE``, ``decide`` (5,)), and a table holds at most 1,239
    elements of four cells each."""
    return WordMonoid(sizes)


def singleton_images(w: Word, n: int) -> list[int]:
    """Images under w of the n^2 one-pair relations: bit j of pair i's
    integer says whether pair i is in w[1 << j].  These fix w's value on
    every relation of size n."""
    base, masks = one_pair_relations((n,))
    return apply_word_packed(base, w, masks)


def rule_counterexamples(pairs: Sequence[tuple[Word, Word]],
                         sizes: Sequence[int]) -> dict[int, list[Optional[int]]]:
    """Per size and per pair of words, the numerically first packed
    relation R of that size with w1[R] != w2[R] (always a one-pair
    relation ``1 << j``), or None when the words agree on all 2^(n^2)
    relations.  Each word, and each suffix shared between words, is
    evaluated once, on the one-pair relations of every size at once."""
    sizes = tuple(sorted(set(sizes)))
    base, masks = one_pair_relations(sizes)
    images = {(): base}
    # shortest first, so that w[1:] is evaluated before w; the last
    # letter acts first, so w is w[0] applied to w[1:]
    for w in sorted({w[k:] for pair in pairs for w in pair for k in range(len(w))}, key=len):
        images[w] = apply_letter(images[w[1:]], w[0], masks)
    out: dict[int, list[Optional[int]]] = {n: [] for n in sizes}
    for w1, w2 in pairs:
        bad = reduce(or_, map(xor, images[w1], images[w2]))
        for n in sizes:
            segment = bad & ((1 << (n * n)) - 1)
            out[n].append(segment & -segment or None)
            bad >>= n * n
    return out


def scan_rule_pairs(pairs: Sequence[tuple[Word, Word]], n: int) -> list[Optional[int]]:
    """Per pair, its ``rule_counterexamples`` at size n."""
    return rule_counterexamples(pairs, (n,))[n]


def words_equal_all_relations(w1: Word, w2: Word, n: int) -> bool:
    """Whether the words agree on every relation of size n."""
    return singleton_images(w1, n) == singleton_images(w2, n)


def word_matrix(w: Word, n: int) -> list[list[int]]:
    """Boolean transfer matrix of the word, as rows of 0/1: bit j of the
    input feeds bit i of the output iff entry (i, j) is 1, so column j
    is the image of ``1 << j``."""
    return [[row >> j & 1 for j in range(n * n)] for row in singleton_images(w, n)]


# ---------------------------------------------------------------------------
# Terms on batches of structures


def _comp(r: Sequence[int], s: Sequence[int], m: int) -> list[int]:
    # (x, y) is in R ; S for the entries with (x, z) in R and (z, y) in
    # S for some z
    rows = [r[x:x + m] for x in range(0, m * m, m)]
    cols = [s[y::m] for y in range(m)]
    return [reduce(or_, map(and_, row, col)) for row in rows for col in cols]


def _project(r: list[int], img1: int, img2: int, masks: Sequence[int], m: int) -> list[int]:
    if (img1, img2) == (1, 2):
        return r
    if (img1, img2) == (2, 1):
        return [r[i] for i in _converse_order(m)]
    # [1,1] copies the loop (x, x) along row x, [2,2] along column x
    loops = r[::m + 1]
    spread = [loop for loop in loops for _ in range(m)] if img1 == 1 else loops * m
    return list(map(and_, spread, masks))


def _comp_term(t: Comp, batch, left: list[int], right: list[int]) -> list[int]:
    # an operand D makes the composition the letter cD, and an operand I
    # the identity; D ; R is (R^ ; D)^, the masks being symmetric
    masks = batch[1]
    if type(t.right) is Di:
        return apply_letter(left, DOT_D, masks)
    if type(t.right) is Id:
        return left
    if type(t.left) is Id:
        return right
    if type(t.left) is Di:
        return apply_letter(apply_letter(apply_letter(right, CONV, masks), DOT_D, masks),
                            CONV, masks)
    return _comp(left, right, batch[2])


def _batch_variable(t: Var, batch) -> list[int]:
    try:
        return list(batch[0][t.name])
    except KeyError:
        raise SemanticsError(f"variable {t.name!r} is not assigned") from None


# the walk's context is the batch: (assignment, masks, stride)
_BATCH = {Var: _batch_variable,
          Bot: lambda t, batch: [0] * len(batch[1]), Top: lambda t, batch: list(batch[1]),
          Id: lambda t, batch: apply_letter(batch[1], CAP_I, batch[1]),
          Di: lambda t, batch: apply_letter(batch[1], CAP_D, batch[1]),
          Union: lambda t, batch, left, right: list(map(or_, left, right)),
          Inter: lambda t, batch, left, right: list(map(and_, left, right)),
          Compl: lambda t, batch, arg: list(map(xor, arg, batch[1])),
          Comp: _comp_term,
          # De Morgan dual of composition: R $ S = ~(~R ; ~S)
          Dagger: lambda t, batch, left, right: list(map(xor, batch[1], _comp(
              list(map(xor, left, batch[1])), list(map(xor, right, batch[1])), batch[2]))),
          Proj: lambda t, batch, arg: _project(arg, t.proj.img1, t.proj.img2, batch[1], batch[2])}


def eval_term_batch(t: Term, assignment: Mapping[str, Sequence[int]],
                    masks: Sequence[int]) -> list[int]:
    """Evaluate a term on a whole batch of structures at once; each
    variable maps to its pair integers, and ``masks`` are the batch's."""
    return fold(t, _BATCH, (assignment, masks, isqrt(len(masks))))


# small enough that the first separating chunk ends a scan early
_CHUNK = 1 << 14


def first_separating(t1: Term, t2: Term, assignment: Mapping[str, Sequence[int]],
                     masks: Sequence[int]) -> Optional[Structure]:
    """The structure at the first entry of the batch where the two terms
    evaluate differently, at that entry's own size; None if they agree
    on the whole batch."""
    bad = reduce(or_, map(xor, eval_term_batch(t1, assignment, masks),
                          eval_term_batch(t2, assignment, masks)))
    if not bad:
        return None
    i = (bad & -bad).bit_length() - 1
    m = isqrt(len(masks))
    k = sum(masks[x * m + x] >> i & 1 for x in range(m))  # the entry's size
    return Structure(k, {name: Rel(k, sum((rels[x * m + y] >> i & 1) << (x * k + y)
                                          for x in range(k) for y in range(k)))
                         for name, rels in assignment.items()})


@lru_cache(maxsize=None)
def _periodic(b: int, width: int) -> int:
    # bit i is bit b of i, for i < width: runs of 2^b zeros and ones
    period = 2 << b
    run = ((1 << (1 << b)) - 1) << (1 << b)
    return run * (((1 << width) - 1) // ((1 << period) - 1))


def enumerated_batches(names: list[str],
                       size: int) -> Iterator[tuple[dict[str, list[int]], list[int]]]:
    """Every structure of one size on the variables ``names``, in
    enumeration order, as batches of up to ``_CHUNK`` entries with their
    masks.  Pair p of the variable in slot s is bit ``nn*(k-1-s) + nn-1-p``
    of the enumeration index (each variable's block of the index is its
    row-major relation read big-endian).  A batch's width is a power of
    two that divides its start, so bit b of start + i is a periodic
    pattern in i below the width and bit b of start above it."""
    nn, k = size * size, len(names)
    count = 1 << (nn * k)
    width = min(_CHUNK, count)
    for start in range(0, count, width):
        bits = [_periodic(b, width) if 1 << b < width
                else (1 << width) - 1 if start >> b & 1 else 0 for b in range(nn * k)]
        yield ({name: [bits[nn * (k - 1 - slot) + nn - 1 - p] for p in range(nn)]
                for slot, name in enumerate(names)},
               batch_masks([(size, width)]))


# ---------------------------------------------------------------------------
# Seeded samples


def sample_count(total: int) -> int:
    """What ``sampled_batches`` draws for ``total``: at least its four fixed entries."""
    return max(total, 4)


def sampled_batches(names: Iterable[str], size: int, total: int,
                    seed: int | str) -> Iterator[tuple[dict[str, list[int]], list[int]]]:
    """``sample_count(total)`` seeded random structures of one size, as
    batches of up to ``_CHUNK`` entries with their masks, drawn one batch
    at a time.  Each pair of each variable is present with probability 1/2,
    except that entries 0-3 of the first batch hold the empty, full,
    identity and difference relations in every variable.

    Order of draws on ``random.Random(seed)``: per batch, per variable
    sorted by name, per pair (x, y) in row-major order, one
    ``getrandbits(count)`` for the batch's count entries, bit i for
    entry i.  The four fixed entries overwrite bits that were drawn."""
    rng = random.Random(seed)
    total = sample_count(total)
    for start in range(0, total, _CHUNK):
        count = min(_CHUNK, total - start)
        batch = {name: [rng.getrandbits(count) for _ in range(size * size)]
                 for name in sorted(names)}
        if start == 0:
            # bit 0 empty, bit 1 full, bit 2 on the diagonal, bit 3 off it
            for rels in batch.values():
                for p in range(size * size):
                    diagonal = p % (size + 1) == 0  # (x, x) is pair x*(size+1)
                    rels[p] = rels[p] & ~0b1111 | (0b0110 if diagonal else 0b1010)
        yield batch, batch_masks([(size, count)])


def sample_panel(n: int, count: int, seed: int) -> tuple[int, ...]:
    """Deterministic panel of ``sample_count(count)`` relations of size
    n, as pair integers: the ``sampled_batches`` of one variable on the
    stream seeded with the string ``f"{seed}/{n}"``, one after the other."""
    rels = [0] * (n * n)
    for k, (batch, _) in enumerate(sampled_batches(["a"], n, count, f"{seed}/{n}")):
        rels = [r | c << k * _CHUNK for r, c in zip(rels, batch["a"])]
    return tuple(rels)


def sampled_counterexample(w1: Word, w2: Word, n: int, count: int,
                           seed: int) -> Optional[int]:
    """First panel relation separating the two words, or None.  When
    the words agree on every relation of size n no panel entry can
    separate them, and the panel is neither built nor evaluated.  Kept
    only because the perfbench tracer wraps it; every word question in
    the program is answered from the singleton images."""
    if words_equal_all_relations(w1, w2, n):
        return None
    panel = sample_panel(n, count, seed)
    masks = batch_masks([(n, sample_count(count))])
    bad = reduce(or_, map(xor, apply_word_packed(panel, w1, masks),
                          apply_word_packed(panel, w2, masks)))
    if not bad:
        return None
    i = (bad & -bad).bit_length() - 1
    return sum((r >> i & 1) << p for p, r in enumerate(panel))
