"""The package's export table, read in a fresh interpreter: which modules an
import loads, and what each exported name resolves to."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# module -> its public names, in the order of tracekit.__all__
EXPORTS = {
    "automata": ["GPS", "LTS", "NFA", "TERM", "AlternatingAut", "MooreAut", "Tree", "UnknownStateError",
                 "ValidationError", "WeightedAut", "WeightedTreeAut", "all_trees", "format_tree", "require_valid",
                 "tree_height", "validate"],
    "determinize": ["BudgetExceeded", "DetResult", "alt_to_nfa", "canonical_det_nfa", "chi_good", "chi_wrong",
                    "det_subset", "det_weighted"],
    "laws": ["BOX", "CHI_GOOD", "CHI_WRONG", "DIAMOND", "IDENTITY_NAT", "LawFailure", "LawReport", "PredicateAction",
             "SemiringAction", "check_action_laws", "check_correctness", "check_exchange",
             "check_logic_morphism_diagram", "check_monad_morphism", "check_naturality", "format_report",
             "known_counterexample"],
    "minimize": ["ObservableDFA", "brzozowski_minimal", "brzozowski_observable", "dfa_equiv", "partition_refine"],
    "semantics": ["LanguageTable", "TraceDist", "TreeLanguageTable", "alt_trace", "bottom_up_algebra", "bt_nfa_trace",
                  "fold_tree", "format_word", "gps_trace", "length_semantics", "lts_traces", "moore_trace",
                  "nfa_trace", "wa_trace", "wta_trace"],
    "weights": ["BOOL", "NAT", "RAT", "SEMIRINGS", "PartialProb", "Semiring", "WeightVec", "map_weights",
                "monad_mul", "unit"],
}
ALL = [name for names in EXPORTS.values() for name in names]
MODULES = ["tracekit." + module for module in ["automata", "cli", "determinize", "minimize", "semantics", "weights"]]


def fresh(code: str):
    """The JSON value that code, run in a new interpreter with src/ on the
    path, prints."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


LOADED = "sorted(m for m in sys.modules if m.startswith('tracekit.'))"


def test_only_check_loads_the_law_checkers():
    steps = fresh(f"""
import io, json, sys
from contextlib import redirect_stdout
import tracekit
steps = [{LOADED}]
import tracekit.cli
steps.append({LOADED})
with redirect_stdout(io.StringIO()):
    status = tracekit.cli.main(["check", "chi-good"])
steps.append([status, "tracekit.laws" in sys.modules])
print(json.dumps(steps))
""")
    assert steps == [[], MODULES, [0, True]]


def test_each_name_resolves_to_its_defining_module():
    assert len(ALL) == 71
    found = fresh(f"""
import importlib, json
import tracekit
exports = {EXPORTS!r}
same = [name for module, names in exports.items() for name in names
        if getattr(tracekit, name) is getattr(importlib.import_module("tracekit." + module), name)]
print(json.dumps([tracekit.__all__, same]))
""")
    assert found == [ALL, ALL]


def test_star_import_and_dir_list_every_name():
    star, listed = fresh("""
import json, tracekit
listed = dir(tracekit)
namespace = {}
exec("from tracekit import *", namespace)
print(json.dumps([sorted(set(namespace) - {"__builtins__"}), listed]))
""")
    assert star == sorted(ALL)
    assert set(ALL) <= set(listed)


def test_an_unknown_name_raises_attribute_error():
    error = fresh("""
import json, tracekit
try:
    tracekit.no_such_name
except AttributeError as exc:
    print(json.dumps([type(exc).__name__, str(exc), hasattr(tracekit, "laws")]))
""")
    assert error == ["AttributeError", "module 'tracekit' has no attribute 'no_such_name'", False]
