"""Every top-level function and class of ``pandmort``, and every method of
its classes, is reached from the command line, or is named in ``UNREACHED``
with the reason it stays.

The call graph is built from names alone: a definition reaches every
definition, in any module, whose name it mentions as a variable or an
attribute.  A class mentions what its body does outside its methods and in
its dunder methods, which count as reached with their class because Python
calls them implicitly; each other method is a definition of its own.  The
roots are ``cli.main`` and the module-level code of every module (import
statements excluded).  Mentioning a name is enough, so the graph
over-approximates the calls; a definition it finds unreached has no caller
at all.

Likewise every optional parameter of a ``pandmort`` function, and every
field with a default of a ``pandmort`` dataclass, is passed by some call in
``pandmort`` or in the benchmark's modules, or is named in ``UNPASSED`` with
the reason it stays (see `unpassed_parameters`).  And its default is left in
place by some such call too, or the parameter is in ``UNPASSED``: a default
that every call overrides is a value only tests reach (see
`overridden_defaults`).
"""

import ast
from pathlib import Path

import pandmort

# Unreached definitions, "module.name" or "module.Class.method", with the
# reason each one stays.
# "benchmark input": `perfbench` looks it up by name (`checks.py`,
# `tracing.py` or `calibration.py`), so removing it breaks the benchmark.
UNREACHED = {
    "annualize_forecast.life_expectancy":
        "oracle of life_expectancy_by_year; benchmark input (tracing.py wraps it)",
    "baseline.loglik": "oracle: the likelihood that the fits maximize, for tests",
    "baseline.score": "oracle: the analytic gradient that tests check the fits with",
    "baseline.score_common": "benchmark input (checks.py)",
    "baseline.score_country": "benchmark input (checks.py)",
    "baseline.simulate_period_effects": "pending ROADMAP item 10 (simulate stage)",
    "coda.inverse_clr": "pending ROADMAP item 11 (used only by reconstruct_compositions)",
    "coda.reconstruct_compositions": "pending ROADMAP item 11",
    "coda.standardized_weekly_deaths": "pending ROADMAP item 11",
    "covid_layer.aggregate_to_groups": "pending ROADMAP item 11 (granularity study)",
    "covid_layer.flatten_weeks": "benchmark input (checks.py)",
    "covid_layer.run_granularity_study": "pending ROADMAP item 11 (granularity study)",
    "covid_layer.score_covid": "benchmark input (checks.py)",
    "exposures._month_start_days": "pending ROADMAP item 11 (monthly exposures)",
    "exposures.weekly_exposures_monthly_interpolation": "pending ROADMAP item 11",
    "ingest.parse_stmf": "benchmark input (tracing.py wraps it)",
    "synthetic.sample_weekly_panel": "benchmark input (calibration.py)",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


def _mentioned(nodes):
    """The variable and attribute names mentioned anywhere in ``nodes``."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def _methods(node):
    """The methods of class ``node`` that are not dunder methods."""
    return [n for n in node.body if isinstance(n, FUNCTIONS)
            and not (n.name.startswith("__") and n.name.endswith("__"))]


def unreached_definitions():
    """The "module.name" of every top-level definition, and the
    "module.Class.method" of every method, that no path from ``cli.main`` or
    module-level code mentions."""
    mentions = {}  # "module.name" or "module.Class.method" -> names it mentions
    by_name = {}  # name -> the keys of the definitions of that name
    module_code = set()  # names that module-level code mentions
    for path in sorted(Path(pandmort.__file__).parent.glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        for node in body:
            if not isinstance(node, DEFINITIONS):
                continue
            key = f"{path.stem}.{node.name}"
            own = [node]
            if isinstance(node, ast.ClassDef):
                methods = _methods(node)
                own = node.decorator_list + node.bases + node.keywords + [
                    n for n in node.body if n not in methods]
                for method in methods:
                    mentions[f"{key}.{method.name}"] = _mentioned([method])
                    by_name.setdefault(method.name, set()).add(f"{key}.{method.name}")
            mentions[key] = _mentioned(own)
            by_name.setdefault(node.name, set()).add(key)
        module_code |= _mentioned(
            n for n in body if not isinstance(n, DEFINITIONS + (ast.Import, ast.ImportFrom)))
    reached = set()
    todo = ["cli.main"] + [k for name in module_code for k in by_name.get(name, ())]
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        todo += [k for name in mentions[key] for k in by_name.get(name, ())]
    return set(mentions) - reached


def test_every_definition_is_reached_or_listed_with_a_reason():
    unreached = unreached_definitions()
    assert sorted(unreached - set(UNREACHED)) == [], "unreached and not in UNREACHED"
    # An entry whose definition is now reached, or gone, leaves the list.
    assert sorted(set(UNREACHED) - unreached) == [], "in UNREACHED but reached or removed"
    assert all(reason.strip() for reason in UNREACHED.values())


# Optional parameters that no call in `src/pandmort` or the benchmark's
# modules passes, "module.name(parameter)" or "module.Class.method(parameter)",
# with the reason each one stays.
UNPASSED = {
    "coda.coda_fit(perturb)": "pending ROADMAP item 5 (the +1 perturbation of the CoDa stage)",
    "covid_layer.run_granularity_study(levels)": "pending ROADMAP item 11 (granularity study)",
    "covid_layer.run_granularity_study(method)": "pending ROADMAP item 11 (granularity study)",
    "ingest.parse_population(layout)": "pending ROADMAP item 11 (the nl_monthly layout)",
    "annualize_forecast.life_expectancy(kind)":
        "oracle: tests check both kinds of life_expectancy_by_year against it",
    "baseline.loglik(base)": "oracle: the likelihood of the offset fits, for tests",
    "synthetic.make_pandemic_truth(amplitude)":
        "test data: criterion 8 plants a smaller pandemic effect",
    "synthetic.sample_annual_panel(cohort_bump)":
        "test data: criterion 8 plants a baby-boom cohort",
    "synthetic.sample_weekly_panel(exposure_week)":
        "test data: criterion 8 samples that cohort's larger weekly exposures",
}


def _optional(node, bound):
    """The names of the optional parameters of function ``node``, and its
    parameters that a call can fill by position (``bound`` ones skipped)."""
    a = node.args
    positional = [p.arg for p in a.posonlyargs + a.args]
    optional = positional[len(positional) - len(a.defaults):] + [
        p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return optional, positional[bound:]


def _callee(node):
    """The name a call or a handed-on function goes by, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _fields(node):
    """The optional parameters of the call of ``@dataclass`` class ``node``
    (its fields with a default), and its parameters in order (all fields)."""
    fields = [s for s in node.body
              if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    return [s.target.id for s in fields if s.value is not None], [s.target.id for s in fields]


def _calls():
    """The "module.name(parameter)" of every optional parameter of a
    ``pandmort`` function or method, or field with a default of a
    ``@dataclass`` class, "module.Class(field)"; and, for each call in
    ``pandmort`` or in the benchmark's modules and each definition it
    resolves to, the definition's key, the optional parameters the call
    passes and those it leaves to their defaults.

    Calls are resolved by name alone, as in `unreached_definitions`: a call
    of ``name`` passes a parameter of every definition of that name, by
    keyword or by position; calling a class calls its ``__init__``, or its
    fields if it is a dataclass; a definition handed as an argument to a
    call (a runner such as ``speed.Clock.time``) gets that call's keywords;
    and a ``*`` or ``**`` argument passes every parameter."""
    package = Path(pandmort.__file__).parent
    by_name = {}  # callee name -> [(key, optional, positional)]
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, FUNCTIONS):
                by_name.setdefault(node.name, []).append(
                    (f"{path.stem}.{node.name}", *_optional(node, 0)))
            elif isinstance(node, ast.ClassDef):
                if any(_callee(getattr(d, "func", d)) == "dataclass" for d in node.decorator_list):
                    by_name.setdefault(node.name, []).append(
                        (f"{path.stem}.{node.name}", *_fields(node)))
                for method in node.body:
                    if not isinstance(method, FUNCTIONS):
                        continue
                    static = any(_callee(d) == "staticmethod" for d in method.decorator_list)
                    entry = (f"{path.stem}.{node.name}.{method.name}",
                             *_optional(method, 0 if static else 1))
                    by_name.setdefault(method.name, []).append(entry)
                    if method.name == "__init__":
                        by_name.setdefault(node.name, []).append(entry)
    parameters = {f"{key}({p})" for defs in by_name.values() for key, optional, _ in defs
                  for p in optional}
    calls = []  # (key, passed, left to their defaults)
    benchmark = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
    assert benchmark, "no benchmark modules beside the tests"
    for path in sorted(package.glob("*.py")) + benchmark:
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(call, ast.Call):
                continue
            splat = (any(isinstance(a, ast.Starred) for a in call.args)
                     or any(k.arg is None for k in call.keywords))
            keywords = {k.arg for k in call.keywords}
            resolved = [(key, optional, positional[:len(call.args)] + list(keywords))
                        for key, optional, positional in by_name.get(_callee(call.func), ())]
            resolved += [(key, optional, keywords)
                         for arg in call.args for key, optional, _ in by_name.get(_callee(arg), ())]
            for key, optional, named in resolved:
                passed = {p for p in optional if splat or p in named}
                calls.append((key, passed, set(optional) - passed))
    return parameters, calls


def unpassed_parameters():
    """The "module.name(parameter)" (see `_calls`) of every optional
    parameter that no call in ``pandmort`` or in the benchmark's modules
    passes."""
    parameters, calls = _calls()
    return parameters - {f"{key}({p})" for key, passed, _ in calls for p in passed}


def overridden_defaults():
    """The "module.name(parameter)" (see `_calls`) of every optional
    parameter whose default no call in ``pandmort`` or in the benchmark's
    modules leaves in place: every call passes it, so only tests use the
    default."""
    parameters, calls = _calls()
    return parameters - {f"{key}({p})" for key, _, left in calls for p in left}


def test_every_optional_parameter_is_passed_or_listed_with_a_reason():
    unpassed = unpassed_parameters()
    assert sorted(unpassed - set(UNPASSED)) == [], "never passed and not in UNPASSED"
    # An entry whose parameter is now passed, or gone, leaves the list.
    assert sorted(set(UNPASSED) - unpassed) == [], "in UNPASSED but passed or removed"
    assert all(reason.strip() for reason in UNPASSED.values())


def test_every_default_is_left_in_place_by_some_call():
    # A parameter in UNPASSED keeps its default for the reason given there.
    assert sorted(overridden_defaults() - set(UNPASSED)) == [], "only tests use the default"
