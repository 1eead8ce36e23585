"""Source guards: theorem guards survive `python -O`, which strips
`assert`; modules keep to their own private attributes; every attribute
set from outside its class is declared in one; the library reads no
environment variable; no module imports at start-up what a CLI call
need not pay for; no engine class builds reduced words; a coweight is
a `Coweight` everywhere, and only the CLI's coweight parser names
`Fraction`; only `AffineWeylGroup.index_of` builds a Newton index; only
`levi_alcove.levi_weyl_group` cuts out the Levi of a direction v; no
module keeps the coordinate grid of Levis; the ball cap lives in the
CLI alone; and every module parses at the Python floor of
`pyproject.toml`."""

import ast
import re
from pathlib import Path

import newton_cocenter

SOURCE = Path(newton_cocenter.__file__).resolve().parent


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == [], "use LogicError instead of assert: " + ", ".join(found)


def _private_reach_ins(path):
    """(line, text) of each `_`-prefixed, non-dunder attribute read or
    written on anything but `self` or `cls`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_") \
                or node.attr.endswith("__"):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        yield node.lineno, ast.unparse(node), isinstance(node.ctx, ast.Load)


def _allowed(module, text, is_read):
    # os._exit is the exit of a forked worker; a WeylElement's weak
    # reference to its datum is read by the datum module that owns both
    return text == "os._exit" or (module == "root_datum" and is_read
                                  and text.endswith("._datum"))


def test_no_module_reaches_into_private_attributes():
    found = [f"{path.name}:{line}: {text}"
             for path in sorted(SOURCE.glob("*.py"))
             for line, text, is_read in _private_reach_ins(path)
             if not _allowed(path.stem, text, is_read)]
    assert found == [], "use a public attribute or method: " + ", ".join(found)


def _assigned_attributes(tree):
    """(line, base name, attribute) of each attribute assignment target,
    unpacked from tuples and lists."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets += target.elts
            elif isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
                yield node.lineno, target.value.id, target.attr


def test_attributes_set_from_outside_are_declared():
    # a memo that a module keeps on another object, such as
    # ctx.exponents or report.wall_time, is declared by the
    # class of that object, so its state is listed in one place
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.glob("*.py"))}
    declared = set()
    for tree in trees.values():
        declared.update(attr for _, base, attr in _assigned_attributes(tree)
                        if base == "self")
    found = [f"{name}:{line}: {base}.{attr}"
             for name, tree in trees.items()
             for line, base, attr in _assigned_attributes(tree)
             if base not in ("self", "cls") and attr not in declared]
    assert found == [], "declare these attributes in their class: " + ", ".join(found)


def _run_at_import(node):
    """The statements and expressions under node outside function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _run_at_import(child)


def test_no_module_level_import_of_slow_stdlib_modules():
    # `dataclasses` pulls in `inspect`, and with `typing` they cost a CLI
    # call more start-up than a GL5 query takes, and so does `fractions`
    # with `decimal` and `numbers`; a function may still import what only
    # its own path needs (`traceback` on a crash, `fractions` to parse --v)
    slow = {"dataclasses", "inspect", "typing", "fractions", "decimal", "numbers"}
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in _run_at_import(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] in slow]
    assert found == [], "import these inside the function that needs them: " \
        + ", ".join(found)


def _names(node):
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.name for alias in node.names]
    return []


def test_library_reads_no_environment_variables():
    # every behaviour is chosen by a CLI option, never by a hidden knob
    knobs = {"environ", "environb", "getenv", "getenvb"}
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if knobs.intersection(_names(node))]
    assert found == [], "read no environment variable: " + ", ".join(found)


def test_suites_read_only_their_own_parameters():
    # each suite reads its parameters as params[key], only the keys of
    # its `SUITES` defaults and "seed", so no second default can
    # contradict `SUITES`; and every default is read by its suite
    from newton_cocenter.verify import SUITES
    defaults = {fn.__name__: set(params) for fn, params in SUITES.values()}
    tree = ast.parse((SOURCE / "verify.py").read_text(encoding="utf-8"))
    suites = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name.startswith("suite_")]
    assert sorted(node.name for node in suites) == sorted(defaults)
    found = []
    for node in suites:
        read = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name) \
                    and sub.value.id == "params" and isinstance(sub.slice, ast.Constant):
                read.add(sub.slice.value)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) \
                    and sub.value.id == "params":
                found.append(f"{node.name}:{sub.lineno}: params.{sub.attr}")
        if not read <= defaults[node.name] | {"seed"}:
            found.append(f"{node.name} reads {sorted(read - defaults[node.name])}")
        if not defaults[node.name] <= read:
            found.append(f"{node.name} never reads {sorted(defaults[node.name] - read)}")
    assert found == [], "read params[key] for the SUITES keys only: " + ", ".join(found)


def test_suites_keep_no_failure_counters():
    # every property counts its instances and failures in
    # SuiteReport.check, so no suite keeps a counter or a first
    # counterexample of its own
    tree = ast.parse((SOURCE / "verify.py").read_text(encoding="utf-8"))
    found = []
    for suite in tree.body:
        if not (isinstance(suite, ast.FunctionDef) and suite.name.startswith("suite_")):
            continue
        for node in ast.walk(suite):
            if isinstance(node, ast.AugAssign):
                found.append(f"{suite.name}:{node.lineno}: {ast.unparse(node)}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) \
                    and node.id in ("fails", "first", "failed"):
                found.append(f"{suite.name}:{node.lineno}: assigns {node.id}")
    assert found == [], "count through SuiteReport.check: " + ", ".join(found)


def test_words_stay_out_of_the_engine():
    # canonical_order is the one definition of the canonical order: no
    # class keeps a word-based twin of it, and only the grammar suite
    # builds affine words (NewtonIndex.sort_key orders Newton indices)
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                found += [f"{path.name}:{node.lineno}: {cls.name}.{node.name}"
                          for node in cls.body if isinstance(node, ast.FunctionDef)
                          and node.name in ("word", "sort_key", "wa_omega_split")
                          and (cls.name, node.name) != ("NewtonIndex", "sort_key")]
        if path.stem != "verify":
            found += [f"{path.name}:{node.lineno}: _affine_word" for node in ast.walk(tree)
                      if "_affine_word" in _names(node) or (
                          isinstance(node, ast.FunctionDef) and node.name == "_affine_word")]
    assert found == [], "order by canonical_order, print words in verify: " + ", ".join(found)
    verify = ast.parse((SOURCE / "verify.py").read_text(encoding="utf-8"))
    assert any(isinstance(node, ast.Call) and _names(node.func) == ["_affine_word"]
               for node in ast.walk(verify))


# the one function that may name Fraction: the coweight parser, whose
# grammar is Fraction's; the engine computes with integers over a denominator
_FRACTION_USERS = {("cli", "parse_coweight")}
_OLD_COWEIGHT_FORMS = {"scaled", "InternedCoweight", "intern_coweight",
                       "dominant_rep_scaled", "frac_str"}


def test_coweights_are_one_type():
    # root_datum.Coweight is the one coweight type: Fraction and
    # fractions are named, imports included, only by the function above,
    # and none of the forms it replaced is defined
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                   and (path.stem, fn.name) in _FRACTION_USERS for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name in _OLD_COWEIGHT_FORMS:
                found.append(f"{path.name}:{node.lineno}: defines {node.name}")
            elif id(node) not in allowed and ({"Fraction", "fractions"} & {
                    *_names(node), getattr(node, "module", None)}):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == [], "hold coweights as root_datum.Coweight: " + ", ".join(found)


# the helpers that AffineWeylGroup.index_of, newton.orbit_sum and
# levi_alcove.newton_v_positive replaced
_REPLACED_INDEX_HELPERS = {"newton_index_map", "m_in_g_stratum_check", "_orbit_sum",
                           "_newton_point_v_positive"}


def test_newton_indices_are_built_by_index_of():
    # AffineWeylGroup.index_of is the one construction of a Newton
    # index, that of an element and the image of a Levi's index alike,
    # and none of the helpers it replaced is defined or named
    found, built = [], 0
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) and cls.name == "AffineWeylGroup"
                   for fn in cls.body
                   if isinstance(fn, ast.FunctionDef) and fn.name == "index_of"
                   for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _names(node.func) == ["NewtonIndex"]:
                if id(node) in allowed:
                    built += 1
                else:
                    found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Name)) \
                    and getattr(node, "name", getattr(node, "id", None)) \
                    in _REPLACED_INDEX_HELPERS:
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)[:40]}")
    assert found == [], "build Newton indices by AffineWeylGroup.index_of: " + ", ".join(found)
    assert built == 1


def test_the_levi_of_v_is_cut_out_by_levi_weyl_group():
    # the roots vanishing on v, and the Levi context built from them,
    # are computed in levi_weyl_group alone; the roots positive on v
    # are no attribute of a context but levi_alcove.phi_plus of v
    owners, found = [], []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                owners += [f"{path.stem}.{fn.name}" for node in ast.walk(fn)
                           if isinstance(node, ast.Call) and _names(node.func) == ["LeviWeylGroup"]
                           or isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
                           and _names(node.left.func) == ["dot"]
                           and any(isinstance(op, ast.Eq) for op in node.ops)]
        found += [f"{path.name}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "phi_plus"]
    assert owners == ["levi_alcove.levi_weyl_group"] * 2
    assert found == [], "the roots positive on v are levi_alcove.phi_plus(group, v): " \
        + ", ".join(found)


_RETIRED_LEVI_GRID = ("_levi_grid", "max_den", "max-den")


def _spelled(node):
    """The identifier node defines or names, or its string constant."""
    if isinstance(node, ast.Constant):
        return [node.value] if isinstance(node.value, str) else []
    return [text for field in ("name", "id", "arg", "attr")
            if isinstance(text := getattr(node, field, None), str)]


def test_no_module_keeps_the_levi_grid():
    # the Levis come from the root datum (`levi_alcove.parabolic_faces`);
    # the coordinate grid that once found them, and its denominator
    # bound, are neither defined nor named, as a parameter, option or key
    found = [f"{path.name}:{getattr(node, 'lineno', '?')}: {text}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             for text in _spelled(node)
             if any(retired in text for retired in _RETIRED_LEVI_GRID)]
    assert found == [], "list the Levis by parabolic_faces: " + ", ".join(found)


# the ball cap, its two defaults and its message
_CAP_SPELLINGS = ("ball_cap", "DEFAULT_BALL_CAP", "exceeds the cap")


def _parameters(fn):
    args = fn.args
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] \
        + [a.arg for a in (args.vararg, args.kwarg) if a]


def test_the_ball_cap_lives_in_the_cli():
    # the cap bounds the --length of the CLI's strata and rigid: no
    # other module spells it, the group is built from its datum alone,
    # and no function that enumerates a ball takes a cap
    found = [f"{path.name}:{getattr(node, 'lineno', '?')}: {text}"
             for path in sorted(SOURCE.glob("*.py")) if path.stem != "cli"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             for text in _spelled(node)
             if any(spelling in text for spelling in _CAP_SPELLINGS)]
    assert found == [], "check the ball cap in cli only: " + ", ".join(found)
    defs = {(stem, node.name): node for stem in ("affine_weyl", "newton", "hecke_cocenter")
            for node in ast.parse((SOURCE / f"{stem}.py").read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    methods = {fn.name: fn for fn in defs["affine_weyl", "AffineWeylGroup"].body
               if isinstance(fn, ast.FunctionDef)}
    assert _parameters(methods["__init__"]) == ["self", "datum"]
    for fn in (methods["enumerate_ball"], defs["newton", "strata"],
               defs["hecke_cocenter", "rigid_decomposition"]):
        assert not [p for p in _parameters(fn) if "cap" in p], fn.name


def test_every_module_parses_at_the_python_floor():
    # requires-python is a promise nothing else checks: no syntax of a
    # later Python (a match statement passes at 3.10, except* fails)
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    major, minor = map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                                      pyproject).groups())
    for path in sorted(SOURCE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(major, minor))
