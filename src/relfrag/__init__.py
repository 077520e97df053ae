"""Decision machinery for bounded-occurrence fragments of the calculus
of relations: terms and finite-model semantics, the four-class constant
quotient, context words over the four-letter alphabet, shortlex string
rewriting, pattern automata with cofiniteness checking, the equation
search loop, and first-order proof-obligation export."""

from .terms import (Term, Var, Bot, Top, Id, Di, Union, Inter, Compl, Comp,
                    Dagger, Proj, Projection, ParseError, parse_term, print_term,
                    vo, dotdagger_level, FragmentInfo)
from .semantics import (Rel, Structure, SizeWindow, eval_term, exhaustive_check,
                        random_check, structure_from_json, structure_to_json)
from .constants import ConstClass, cayley, classify_const, decide_0vo
from .words import (Letter, Word, GeneralLetter, apply_word, decompose_1vo,
                    reduce_letter, shortlex_compare, parse_word, format_word)
from .rewriting import (Rule, RewriteSystem, figure1_rules, rewrite_step,
                        normalize, is_irreducible, enumerate_irreducibles,
                        count_irreducibles, load_rules, parse_rules, format_rules)
from .automata import (Dfa, CofinitenessReport, build_pattern_dfa,
                       complement_and_trim, is_cofinite, minimize, export_dot)
from .search import OracleConfig, SearchReport, word_fingerprint, word_equiv_oracle, run_search, verify_rules
from .normalforms import complement_nf, projection_nf, union_nf, complement_dual
from .fo import (FoFormula, standard_translation, export_equation_smt2,
                 export_equation_tptp, alpha_equivalent)
from .decide import (Verdict, Equivalent, Inequivalent, Unknown, Mode, REL,
                     parse_mode, decide_word_equiv, decide_terms)

__version__ = "0.1.0"
