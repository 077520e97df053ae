"""``terms.record`` against the standard library's frozen dataclasses.

Every ``record`` class in relfrag gets a ``dataclasses.make_dataclass``
twin with the same fields and defaults.  Built from the same sample
values, the two must agree on ``repr``, ``hash``, ``==``, keyword and
default construction and immutability; ``__post_init__`` still rejects
bad values.
"""

import dataclasses
import importlib
from itertools import product

import pytest

from relfrag.automata import CofinitenessReport, Dfa
from relfrag.decide import Equivalent, Inequivalent, Mode, Unknown
from relfrag.fo import (FoAnd, FoAtom, FoEq, FoExists, FoFalse, FoForall, FoIff, FoNot, FoOr,
                        FoTrue)
from relfrag.rewriting import RewriteSystem, Rule
from relfrag.search import RuleCheck, SearchReport
from relfrag.semantics import OracleConfig, Rel, SemanticsError, SizeWindow, Structure
from relfrag.terms import (ID, PROJ_BOTH_1, PROJ_SWAP, Bot, Comp, Compl, Dagger, Di,
                           FragmentInfo, Id, Inter, Proj, Projection, TermError, Top, Union,
                           Var)
from relfrag.words import CAP_I, CONV, GeneralLetter

MODULES = ("terms", "fo", "semantics", "decide", "automata", "rewriting", "search",
           "constants", "words")

a, b = Var("a"), Var("b")
atom = FoAtom("a", "x0", "y0")
r1 = Rel(2, 0b0110)
rules = RewriteSystem((Rule((CAP_I,), (CAP_I, CAP_I), 1), Rule((CONV,), (CONV, CONV), 2)))

# positional arguments of at least one instance per class; two where the
# class has fields, so that == is seen both true and false.  The first
# stays valid with its defaulted fields left out.
SAMPLES = {
    Projection: [(1, 2), (2, 1)],
    Var: [("a",), ("b",)],
    Bot: [()], Top: [()], Id: [()], Di: [()],
    Union: [(a, b), (b, a)],
    Inter: [(a, b), (a, a)],
    Compl: [(a,), (b,)],
    Comp: [(a, b), (b, a)],
    Dagger: [(a, b), (b, b)],
    Proj: [(a, PROJ_SWAP), (a, PROJ_BOTH_1)],
    FragmentInfo: [(0, 0, 0), (3, 2, 3)],
    FoTrue: [()], FoFalse: [()],
    FoAtom: [("a", "x0", "y0"), ("b", "x0", "y0")],
    FoEq: [("x0", "y0"), ("y0", "x0")],
    FoNot: [(atom,), (FoTrue(),)],
    FoAnd: [(atom, FoTrue()), (FoTrue(), atom)],
    FoOr: [(atom, FoTrue()), (atom, FoFalse())],
    FoIff: [(atom, FoTrue()), (atom, atom)],
    FoExists: [("y1", atom), ("x1", atom)],
    FoForall: [("y1", atom), ("y1", FoNot(atom))],
    Rel: [(2, 0b0110), (2, 0)],
    Structure: [(2, {"a": r1}), (1, {})],
    SizeWindow: [(1, 3), (2, 2)],
    OracleConfig: [(5, (3, 4, 6), 2048, 0), (5, (5, 6), 100, 7)],
    Equivalent: [({"kind": "syntactic"},), ({"kind": "small-model", "sizes": [1]},)],
    Inequivalent: [(Structure(1, {}),), (Structure(2, {"a": r1}),)],
    Unknown: [(SizeWindow(1, 3), 64, (3, 4), "", 0), (None, 0, (), "candidate budget", 1)],
    Mode: [(1,), (3,)],
    Dfa: [(1, 0, frozenset({0}), ((0, 0, 0, 0),)),
          (2, 0, frozenset(), ((1, 1, 1, 1), (1, 1, 1, 1)), 1)],
    CofinitenessReport: [(True, 28, 1810), (False, None, None)],
    Rule: [((CAP_I,), (CAP_I, CAP_I), 1), ((CONV,), (CONV, CONV), 1)],
    RewriteSystem: [(rules.rules,), (rules.rules[:1],)],
    SearchReport: [(rules, True, 10, 5, "cofinite", 2, 0), (rules, False, 3, 1, "budget", None, 4)],
    RuleCheck: [(1, (CAP_I,), (CAP_I, CAP_I), 5, True, None, True, ()),
                (2, (CONV,), (CONV, CONV), 5, False, 3, False, ((6, 9),))],
    GeneralLetter: [("compl", 1, None, None), ("inter", 2, ID, None), ("proj", 1, None, PROJ_SWAP)],
}


def _record_classes():
    found = []
    for name in MODULES:
        module = importlib.import_module(f"relfrag.{name}")
        found += [obj for obj in vars(module).values()
                  if isinstance(obj, type) and obj.__module__ == module.__name__
                  and "_record_fields" in vars(obj)]
    return found


def _twin(cls):
    """The frozen dataclass with the record's fields and defaults."""
    fields = [(n, object, dataclasses.field(default=vars(cls)[n])) if n in vars(cls) else (n, object)
              for n in cls.__annotations__]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def _hash(x):
    try:
        return hash(x)
    except TypeError:
        return TypeError


def test_every_record_class_has_samples():
    classes = _record_classes()
    assert len(classes) == 38
    assert set(classes) == set(SAMPLES)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_record_matches_its_frozen_dataclass_twin(cls):
    twin = _twin(cls)
    names = tuple(cls.__annotations__)
    assert cls._record_fields == names
    pairs = [(cls(*args), twin(*args)) for args in SAMPLES[cls]]
    required = SAMPLES[cls][0][:len([n for n in names if n not in vars(cls)])]
    assert repr(cls(*required)) == repr(twin(*required))
    for args, (rec, tw) in zip(SAMPLES[cls], pairs):
        assert repr(rec) == repr(tw)
        assert _hash(rec) == _hash(tw)
        assert cls(**dict(zip(names, args))) == rec
        for name in (*names, "extra"):
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)
    for (r1_, t1), (r2_, t2) in product(pairs, repeat=2):
        assert (r1_ == r2_, r1_ != r2_) == (t1 == t2, t1 != t2)


def test_equality_holds_only_within_one_class():
    assert Union(a, b) != Inter(a, b)
    assert _twin(Union)(a, b) != _twin(Inter)(a, b)
    assert Bot() != Top() and FoTrue() != FoFalse()
    firsts = [cls(*SAMPLES[cls][0]) for cls in SAMPLES]
    for x, y in product(firsts, repeat=2):
        assert (x == y) == (x is y)


def test_defaults_and_keywords():
    assert OracleConfig(seed=3) == OracleConfig(5, (3, 4, 6), 2048, 3)
    assert OracleConfig(**dict(exhaustive_size=5, sample_sizes=(5, 6), samples_per_size=10,
                               seed=0)).sample_sizes == (5, 6)
    assert Mode() == Mode(1) and str(Mode(min_size=3)) == "rel>=3"
    assert GeneralLetter("proj", proj=PROJ_SWAP) == GeneralLetter("proj", 1, None, PROJ_SWAP)


def test_post_init_still_rejects():
    with pytest.raises(TermError, match="lowercase-initial"):
        Var("")
    with pytest.raises(TermError, match=r"got Projection\(img1=3, img2=1\)"):
        Projection(3, 1)
    with pytest.raises(ValueError, match="min_size"):
        Mode(0)
    with pytest.raises(SemanticsError, match=r"invalid size window \[2, 1\]"):
        SizeWindow(2, 1)


def test_instances_keep_a_dict_for_cached_properties():
    system = RewriteSystem(rules.rules)
    assert "_matcher" not in vars(system)
    matcher = system._matcher
    assert vars(system)["_matcher"] is matcher and system == rules
