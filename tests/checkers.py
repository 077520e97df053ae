"""Small grammar validators for emitted SMT-LIB 2 and TPTP FOF text, and
equality of first-order formulas up to renaming bound variables."""

import re

from relfrag.fo import (FoAnd, FoAtom, FoEq, FoExists, FoFalse, FoForall, FoIff, FoNot, FoOr,
                        FoTrue)

_SMT_TOKEN = re.compile(r"\(|\)|[^\s()]+")
_SMT_HEADS = {"set-logic", "declare-sort", "declare-fun", "assert", "check-sat"}
_SMT_OPS = {"and", "or", "not", "=", "distinct", "exists", "forall", "true", "false"}
_SMT_SYMBOL = re.compile(r"(?:[0-9]+|[A-Za-z_][A-Za-z0-9_-]*)$")


def parse_sexprs(text: str):
    tokens = _SMT_TOKEN.findall(text)
    stack = [[]]
    for tok in tokens:
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
    return stack[0]


def check_smt2(text: str) -> None:
    """Raise ValueError unless the text is a plausible SMT-LIB 2 script:
    balanced s-expressions, known command heads, legal symbols."""
    commands = parse_sexprs(text)
    if not commands:
        raise ValueError("empty script")
    for cmd in commands:
        if not isinstance(cmd, list) or not cmd or cmd[0] not in _SMT_HEADS:
            raise ValueError(f"unknown command {cmd!r}")

    def walk(node):
        if isinstance(node, str):
            if node not in _SMT_OPS and not _SMT_SYMBOL.match(node):
                raise ValueError(f"bad symbol {node!r}")
            return
        for sub in node:
            walk(sub)
        if node and isinstance(node[0], str) and node[0] in ("exists", "forall"):
            if len(node) != 3 or not isinstance(node[1], list):
                raise ValueError("quantifier needs a binder list and a body")
            for binder in node[1]:
                if not (isinstance(binder, list) and len(binder) == 2):
                    raise ValueError(f"bad binder {binder!r}")

    for cmd in commands:
        walk(cmd)
    if commands[-1] != ["check-sat"]:
        raise ValueError("script must end with (check-sat)")


_TPTP_LINE = re.compile(
    r"fof\(\s*([a-z][A-Za-z0-9_]*)\s*,\s*(axiom|conjecture)\s*,\s*(.*)\)\.\s*$",
    re.DOTALL)
_TPTP_TOKEN = re.compile(
    r"\(|\)|\[|\]|,|:|\?|!|~|&|\||<=>|=>|!=|=|\$(?:true|false)|[A-Z][A-Za-z0-9_]*|[a-z][A-Za-z0-9_]*")


def check_tptp(text: str) -> None:
    """Raise ValueError unless every line is a balanced fof(...) axiom
    or conjecture with recognizable tokens (one statement per line)."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no statements")
    saw_conjecture = False
    for line in lines:
        m = _TPTP_LINE.match(line.strip())
        if m is None:
            raise ValueError(f"not a fof statement: {line[:60]!r}")
        saw_conjecture |= m.group(2) == "conjecture"
        body = m.group(3)
        consumed = "".join(_TPTP_TOKEN.findall(body))
        stripped = re.sub(r"\s+", "", body)
        if consumed != stripped:
            raise ValueError(f"unrecognized tokens in {body[:60]!r}")
        depth = 0
        for tok in _TPTP_TOKEN.findall(body):
            if tok in "([":
                depth += 1
            elif tok in ")]":
                depth -= 1
                if depth < 0:
                    raise ValueError("unbalanced brackets")
        if depth != 0:
            raise ValueError("unbalanced brackets")
    if not saw_conjecture:
        raise ValueError("no conjecture statement")


def alpha_equivalent(f, g) -> bool:
    """Equality up to a consistent renaming of bound variables; free
    variables must match exactly."""
    return _canon(f, {}, [0]) == _canon(g, {}, [0])


def _canon(f, bound: dict[str, str], counter: list[int]):
    if isinstance(f, (FoTrue, FoFalse)):
        return type(f).__name__
    if isinstance(f, FoAtom):
        return ("atom", f.rel, bound.get(f.left, f.left), bound.get(f.right, f.right))
    if isinstance(f, FoEq):
        return ("eq", bound.get(f.left, f.left), bound.get(f.right, f.right))
    if isinstance(f, FoNot):
        return ("not", _canon(f.arg, bound, counter))
    if isinstance(f, (FoAnd, FoOr, FoIff)):
        return (type(f).__name__, _canon(f.left, bound, counter),
                _canon(f.right, bound, counter))
    if isinstance(f, (FoExists, FoForall)):
        counter[0] += 1
        name = f"_b{counter[0]}"
        return (type(f).__name__, _canon(f.body, {**bound, f.var: name}, counter))
    raise ValueError(f"unexpected formula {f!r}")
