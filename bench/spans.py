"""Per-layer spans recorded from outside the package.

The layers are tracekit's modules. While a Tracer is installed, every public
function of a layer module is replaced, wherever the package holds a
reference to it (module globals and the fields of module-level dataclass
instances such as `laws.CHI_GOOD`), by a wrapper that keeps a stack of open
spans. A span opens only when a call enters a different span key than the
innermost open one, so calls within a layer add no timing overhead. Some
functions get a key of their own (`cli.parse`, `automata.validate`,
`minimize.refine`, ...) so that the phases of one layer are told apart.

A span's self time is its duration minus the durations of the spans opened
inside it. Counts (states, table entries, law instances, ...) are read from
the arguments and results of calls that open a span.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

LAYERS = ("cli", "automata", "weights", "semantics", "determinize", "minimize", "laws")

PHASES = {
    "cli": {
        "load_file": "parse", "load_automaton": "parse", "parse_document": "parse", "decode_weight": "parse",
        "dump_automaton": "serialize", "serialize_document": "serialize", "encode_weight": "serialize",
        "render_value": "serialize",
    },
    "automata": {"require_valid": "validate", "validate": "validate"},
    "determinize": {"chi_good": "chi_good"},
    "minimize": {
        "brzozowski_minimal": "brzozowski", "brzozowski_observable": "brzozowski",
        "partition_refine": "refine", "dfa_equiv": "equiv",
    },
}


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _table(tr, args, kwargs, result):
    tr.counts["semantics.entries"] += len(getattr(result, "entries", ()))


def _det(tr, args, kwargs, result):
    machine = getattr(result, "machine", None)
    if machine is not None:
        tr.counts["determinize.states"] += machine.n_states
    else:
        tr.counts["determinize.budget_exceeded"] += 1
        tr.counts["determinize.wasted_states"] += getattr(result, "discovered", 0)


def _chi_good(tr, args, kwargs, result):
    family = _first(args, kwargs)
    tr.counts["determinize.chi_good_hits"] += len(result)
    tr.counts["determinize.chi_good_subsets"] += 1 << len(frozenset().union(*family))


def _brzozowski(tr, args, kwargs, result):
    tr.counts["minimize.states_in"] += _first(args, kwargs).n_states
    tr.counts["minimize.states_out"] += result.machine.n_states
    tr.counts["minimize.certificates"] += len(result.certificates)


def _refine(tr, args, kwargs, result):
    tr.counts["minimize.states_in"] += _first(args, kwargs).n_states
    tr.counts["minimize.states_out"] += result[0].n_states


def _law(tr, args, kwargs, result):
    tr.counts["laws.instances"] += getattr(result, "instances_checked", 0)


HOOKS = {
    ("semantics", name): _table
    for name in ("nfa_trace", "bt_nfa_trace", "lts_traces", "alt_trace", "wa_trace", "gps_trace", "wta_trace", "moore_trace")
}
HOOKS.update({("determinize", name): _det for name in ("det_subset", "det_weighted", "alt_to_nfa", "canonical_det_nfa")})
HOOKS[("determinize", "chi_good")] = _chi_good
HOOKS[("minimize", "brzozowski_minimal")] = _brzozowski
HOOKS[("minimize", "brzozowski_observable")] = _brzozowski
HOOKS[("minimize", "partition_refine")] = _refine
HOOKS.update({
    ("laws", name): _law
    for name in ("check_naturality", "check_action_laws", "check_monad_morphism",
                 "check_logic_morphism_diagram", "check_exchange", "check_correctness")
})


def _materialize(args, kwargs):
    """chi_good's family may be any iterable; fix it so the hook can read it."""
    if args:
        return ([frozenset(u) for u in args[0]],) + tuple(args[1:]), kwargs
    return args, {k: [frozenset(u) for u in v] for k, v in kwargs.items()}


class Tracer:
    """Span stack, self times and counts of one traced pass."""

    def __init__(self):
        self.stack: List[list] = []  # [span key, child seconds]
        self.self_time: Counter = Counter()  # span key -> seconds
        self.calls: Counter = Counter()  # (layer, function) -> calls
        self.counts: Counter = Counter()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        phase = PHASES.get(layer, {}).get(name)
        key = f"{layer}.{phase}" if phase else layer
        hook = HOOKS.get((layer, name))
        prepare = _materialize if (layer, name) == ("determinize", "chi_good") else None
        calls, stack, self_time = self.calls, self.stack, self.self_time
        ident = (layer, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[ident] += 1
            if stack and stack[-1][0] == key:
                return fn(*args, **kwargs)
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            frame = [key, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                duration = perf_counter() - start
                self_time[key] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                raise
            duration = perf_counter() - start
            stack.pop()
            self_time[key] += duration - frame[1]
            if hook is not None:
                hook(self, args, kwargs, result)
            if stack:
                # the parent's child time covers this span and the hook
                stack[-1][1] += perf_counter() - start
            return result

        return wrapper

    def install(self) -> None:
        wrappers: Dict[Any, Callable] = {}
        for layer in LAYERS:
            module = sys.modules[f"tracekit.{layer}"]
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[obj] = self._wrap(layer, name, obj)
        for modname, module in list(sys.modules.items()):
            if modname != "tracekit" and not modname.startswith("tracekit."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, name, obj))
                    object.__setattr__(module, name, wrappers[obj])
                elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
                    for field in dataclasses.fields(obj):
                        value = getattr(obj, field.name)
                        if inspect.isfunction(value) and value in wrappers:
                            self._patches.append((obj, field.name, value))
                            object.__setattr__(obj, field.name, wrappers[value])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            object.__setattr__(owner, name, original)
        self._patches.clear()

    def layer_metrics(self, scale: float) -> Dict[str, Tuple[float, str]]:
        """Per-layer figures of this pass, keyed by metric name, as (value,
        unit); self times are multiplied by scale."""
        t = Counter({key: seconds * scale for key, seconds in self.self_time.items()})
        c = self.counts
        calls = lambda layer, names=None: sum(
            n for (lay, name), n in self.calls.items() if lay == layer and (names is None or name in names))
        rate = lambda count, seconds: count / seconds if seconds > 0 else 0.0
        subsets = c["determinize.chi_good_subsets"]
        return {
            "cli.parse_s": (t["cli.parse"], "s"),
            "cli.serialize_s": (t["cli.serialize"], "s"),
            "cli.self_s": (t["cli"], "s"),
            "automata.validate_s": (t["automata.validate"], "s"),
            "automata.validate_calls": (calls("automata", ("validate",)), "count"),
            "semantics.busy_s": (t["semantics"], "s"),
            "semantics.entries": (c["semantics.entries"], "count"),
            "semantics.entries_per_s": (rate(c["semantics.entries"], t["semantics"]), "1/s"),
            "determinize.busy_s": (t["determinize"], "s"),
            "determinize.states": (c["determinize.states"], "count"),
            "determinize.wasted_states": (c["determinize.wasted_states"], "count"),
            "determinize.budget_exceeded": (c["determinize.budget_exceeded"], "count"),
            "determinize.chi_good_s": (t["determinize.chi_good"], "s"),
            "determinize.chi_good_calls": (calls("determinize", ("chi_good",)), "count"),
            "determinize.chi_good_hit_ratio": (c["determinize.chi_good_hits"] / subsets if subsets else 0.0, "ratio"),
            "minimize.brzozowski_s": (t["minimize.brzozowski"], "s"),
            "minimize.refine_s": (t["minimize.refine"], "s"),
            "minimize.equiv_s": (t["minimize.equiv"], "s"),
            "minimize.states_in": (c["minimize.states_in"], "count"),
            "minimize.states_out": (c["minimize.states_out"], "count"),
            "minimize.certificates": (c["minimize.certificates"], "count"),
            "laws.busy_s": (t["laws"], "s"),
            "laws.instances": (c["laws.instances"], "count"),
            "laws.instances_per_s": (rate(c["laws.instances"], t["laws"]), "1/s"),
            "weights.busy_s": (t["weights"], "s"),
            "weights.calls": (calls("weights"), "count"),
        }
