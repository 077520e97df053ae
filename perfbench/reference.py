"""Independent reference semantics for checking the program's outputs.

Relations are Python sets of pairs and every operator is written out
from its defining clause.  Nothing here imports ``relfrag``: terms use
a small tuple syntax of their own, printed to the program's text
syntax, and words are tuples of the four letter tokens.

Term syntax (tuples):

    ("var", name)  ("bot",)  ("top",)  ("I",)  ("D",)
    ("|", l, r)  ("&", l, r)  (";", l, r)  ("$", l, r)
    ("~", t)     ("proj", t, i, j)   # converse is ("proj", t, 2, 1)
"""

from __future__ import annotations

import json
import re
from itertools import product

LETTERS = ("iI", "iD", "cD", "cv")


# ---------------------------------------------------------------------------
# Terms


def show(t) -> str:
    """Program syntax; every binary node is parenthesised, so the text
    parses back to this tree whatever the operator precedence."""
    op = t[0]
    if op == "var":
        return t[1]
    if op in ("bot", "top", "I", "D"):
        return op
    if op in ("|", "&", ";", "$"):
        return f"({show(t[1])} {op} {show(t[2])})"
    if op == "~":
        return f"{show(t[1])}~"
    if op == "proj":
        inner = show(t[1])
        return f"{inner}^" if (t[2], t[3]) == (2, 1) else f"{inner}[{t[2]},{t[3]}]"
    raise ValueError(f"bad term {t!r}")


def variables(t) -> set:
    if t[0] == "var":
        return {t[1]}
    return set().union(*(variables(c) for c in t[1:] if isinstance(c, tuple)))


def evaluate(t, n: int, env: dict) -> frozenset:
    """Value of term t on an n-point universe; env maps each variable
    to a set of pairs."""
    points = range(n)
    op = t[0]
    if op == "var":
        return frozenset(env[t[1]])
    if op == "bot":
        return frozenset()
    if op == "top":
        return frozenset((x, y) for x in points for y in points)
    if op == "I":
        return frozenset((x, x) for x in points)
    if op == "D":
        return frozenset((x, y) for x in points for y in points if x != y)
    if op == "~":
        inner = evaluate(t[1], n, env)
        return frozenset((x, y) for x in points for y in points if (x, y) not in inner)
    if op == "proj":
        inner = evaluate(t[1], n, env)
        i, j = t[2], t[3]
        return frozenset((x1, x2) for x1 in points for x2 in points
                         if ((x1, x2)[i - 1], (x1, x2)[j - 1]) in inner)
    left = evaluate(t[1], n, env)
    right = evaluate(t[2], n, env)
    if op == "|":
        return left | right
    if op == "&":
        return left & right
    if op == ";":
        return frozenset((x, y) for x in points for y in points
                         if any((x, z) in left and (z, y) in right for z in points))
    if op == "$":
        return frozenset((x, y) for x in points for y in points
                         if all((x, z) in left or (z, y) in right for z in points))
    raise ValueError(f"bad term {t!r}")


def random_env(rng, names, n: int) -> dict:
    pairs = [(x, y) for x in range(n) for y in range(n)]
    return {v: {p for p in pairs if rng.random() < 0.5} for v in names}


def separating_env(rng, t1, t2, sizes, tries: int):
    """A (size, env) on which t1 and t2 differ: every assignment is
    tried at sizes with at most 2^8 of them, else ``tries`` random
    ones; None when nothing separates."""
    names = sorted(variables(t1) | variables(t2))
    for n in sizes:
        pairs = [(x, y) for x in range(n) for y in range(n)]
        if len(pairs) * len(names) <= 8:
            envs = ({v: {p for p, bit in zip(pairs, bits[k * len(pairs):]) if bit}
                     for k, v in enumerate(names)}
                    for bits in product((0, 1), repeat=len(pairs) * len(names)))
        else:
            envs = (random_env(rng, names, n) for _ in range(tries))
        for env in envs:
            if evaluate(t1, n, env) != evaluate(t2, n, env):
                return n, env
    return None


def structure_env(text: str) -> tuple[int, dict]:
    """(size, env) from the program's structure JSON."""
    obj = json.loads(text)
    return obj["size"], {k: {tuple(p) for p in v} for k, v in obj["relations"].items()}


# ---------------------------------------------------------------------------
# Words (leftmost letter outermost)


def parse_word(text: str) -> tuple:
    tokens = text.split()
    if tokens == ["eps"]:
        return ()
    if not all(tok in LETTERS for tok in tokens):
        raise ValueError(f"bad word {text!r}")
    return tuple(tokens)


def show_word(w) -> str:
    return " ".join(w) if w else "eps"


def shortlex_key(w) -> tuple:
    return len(w), tuple(LETTERS.index(a) for a in w)


def apply_word(w, rel, n: int) -> frozenset:
    rel = frozenset(rel)
    for letter in reversed(w):
        if letter == "iI":
            rel = frozenset((x, y) for x, y in rel if x == y)
        elif letter == "iD":
            rel = frozenset((x, y) for x, y in rel if x != y)
        elif letter == "cv":
            rel = frozenset((y, x) for x, y in rel)
        else:  # cD: R ; D = {(x, y) : some z != y with (x, z) in R}
            rows = {x for x, _ in rel}
            rel = frozenset((x, y) for x in rows for y in range(n)
                            if any((x, z) in rel for z in range(n) if z != y))
    return rel


def words_separator(w1, w2, n: int):
    """A one-pair relation on n points that separates the words, or
    None.  Every letter preserves unions, so a word's map is fixed by
    its images of the singletons and None means equal on all
    relations of size n."""
    for pair in product(range(n), repeat=2):
        if apply_word(w1, {pair}, n) != apply_word(w2, {pair}, n):
            return {pair}
    return None


def leftover_language(large_sides) -> tuple[int, int]:
    """(longest length, count) of the words with no large side as a
    factor, by breadth-first extension; raises if still growing at
    length 64 (not cofinite as far as this check is concerned)."""
    patterns = [tuple(p) for p in large_sides]
    level = [()]
    count, longest = 1, 0
    for length in range(1, 65):
        level = [w + (a,) for w in level for a in LETTERS
                 if not any((w + (a,))[-len(p):] == p for p in patterns if len(p) <= length)]
        if not level:
            return longest, count
        count += len(level)
        longest = length
    raise ValueError("leftover language still growing at length 64")


def unpack(bits: int, n: int) -> set:
    """Pairs of a packed relation: bit x*n + y holds the pair (x, y)."""
    return {(x, y) for x in range(n) for y in range(n) if bits >> (x * n + y) & 1}


def parse_rules(text: str) -> list[tuple[tuple, tuple]]:
    rules = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            small, large = line.split("=")
            rules.append((parse_word(small), parse_word(large)))
    return rules


# ---------------------------------------------------------------------------
# Output grammars


_SMT_TOKEN = re.compile(r"\(|\)|[^\s()]+")
_SMT_COMMANDS = {"set-logic", "declare-sort", "declare-fun", "assert", "check-sat"}


def check_smt2(text: str) -> None:
    """Raise ValueError unless text is balanced s-expressions made of
    known commands and ending in (check-sat)."""
    stack: list[list] = [[]]
    for tok in _SMT_TOKEN.findall(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise ValueError("unbalanced ')'")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise ValueError("unbalanced '('")
    commands = stack[0]
    if not commands or any(not isinstance(c, list) or not c or c[0] not in _SMT_COMMANDS
                           for c in commands):
        raise ValueError("unknown or missing SMT-LIB command")
    if commands[-1] != ["check-sat"]:
        raise ValueError("script must end with (check-sat)")
    if not any(c[0] == "assert" for c in commands):
        raise ValueError("no assertion")


_TPTP = re.compile(r"fof\(\s*[a-z][A-Za-z0-9_]*\s*,\s*(axiom|conjecture)\s*,(.*)\)\.\s*$")


def check_tptp(text: str) -> None:
    """Raise ValueError unless every statement is a bracket-balanced
    fof(...) axiom or conjecture and one of them is the conjecture."""
    roles = []
    for line in filter(str.strip, text.splitlines()):
        m = _TPTP.match(line.strip())
        if m is None:
            raise ValueError(f"not a fof statement: {line[:60]!r}")
        roles.append(m.group(1))
        depth = 0
        for c in m.group(2):
            depth += c in "(["
            depth -= c in ")]"
            if depth < 0:
                raise ValueError("unbalanced brackets")
        if depth:
            raise ValueError("unbalanced brackets")
    if "conjecture" not in roles:
        raise ValueError("no conjecture")


def check_dot(text: str) -> None:
    """Raise ValueError unless text is one balanced digraph with edges."""
    body = text.strip()
    if not body.startswith("digraph") or not body.endswith("}"):
        raise ValueError("not a digraph")
    if body.count("{") != body.count("}") or "->" not in body:
        raise ValueError("unbalanced or edgeless digraph")
