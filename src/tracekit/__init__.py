"""Exact trace semantics for branching systems, with determinization,
minimization, and machine-checked laws.

The package works over exact carriers only (Booleans, machine integers for
the naturals, fractions for the rationals): every reported value and every
law check is a literal equality, never a float comparison.

Importing the package loads none of its modules: a name below loads its
module on first read, so a program that never reads a law checker never
loads `tracekit.laws`.
"""

from importlib import import_module

# module -> its public names, in the order of __all__
_EXPORTS = {
    "automata": """GPS LTS NFA TERM AlternatingAut MooreAut Tree UnknownStateError ValidationError WeightedAut
        WeightedTreeAut all_trees format_tree require_valid tree_height validate""",
    "determinize": "BudgetExceeded DetResult alt_to_nfa canonical_det_nfa chi_good chi_wrong det_subset det_weighted",
    "laws": """BOX CHI_GOOD CHI_WRONG DIAMOND IDENTITY_NAT LawFailure LawReport PredicateAction SemiringAction
        check_action_laws check_correctness check_exchange check_logic_morphism_diagram check_monad_morphism
        check_naturality format_report known_counterexample""",
    "minimize": "ObservableDFA brzozowski_minimal brzozowski_observable dfa_equiv partition_refine",
    "semantics": """LanguageTable TraceDist TreeLanguageTable alt_trace bottom_up_algebra bt_nfa_trace fold_tree
        format_word gps_trace length_semantics lts_traces moore_trace nfa_trace wa_trace wta_trace""",
    "weights": "BOOL NAT RAT SEMIRINGS PartialProb Semiring WeightVec map_weights monad_mul unit",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_OWNER)


def __getattr__(name: str):
    """Import the module that owns name, and keep its value here."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
