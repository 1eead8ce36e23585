"""Command-line front end.

Subcommands: describe, newton, strata, reduce, triple, alcove-test,
positivity, levi, cocenter-reduce, induce, rigid, verify.  Output is
deterministic for a fixed configuration and seed; timing goes to stderr
so reports compare byte-for-byte.  Exit codes: 0 success, 1 verify
failures, 2 parse/input errors, 3 internal logic errors and any other
unexpected exception (traceback on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from fractions import Fraction

from .affine_weyl import AffineWeylGroup, element_str, parse_element
from .errors import ConfigurationError, InputError, LogicError, ResourceError
from .hecke_cocenter import (
    HeckeElement, QPoly, StoredNormalForms, cocenter_reduce, induce,
    normal_form_texts, parse_poly, rigid_decomposition,
)
from .levi_alcove import (
    is_v_alcove, levi_weyl_group, positivity_exponent,
)
from .newton import is_straight, newton_index, newton_point, strata
from .reduction import canonical_min_rep, reduce_to_min, standard_triple
from .root_datum import build_root_datum, frac_str, parse_group_label
from .verify import run_suite

CACHE_ENV = "NEWTON_COCENTER_CACHE"
CACHE_SCHEMA = "nf-v1"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state in
    it between calls."""
    p = argparse.ArgumentParser(
        prog="newton-cocenter",
        description="Exact computations in extended affine Weyl groups and "
                    "the cocenter of the generic affine Hecke algebra.")
    p.add_argument("--group", help="group label, e.g. A1, C2:ad, GL5 (default A1)")
    p.add_argument("--config", help="config file with keys type, rank, lattice")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="forked worker processes for `verify all`, at most "
                        "one per shard of suites (serial without os.fork); "
                        "output is canonical for any value")
    p.add_argument("--json", action="store_true", help="JSON output")
    p.add_argument("--tsv", action="store_true", help="TSV output")
    p.add_argument("--ball-cap", type=int, help="override the ball radius cap")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("describe", help="print the root datum and affine data")

    s = sub.add_parser("newton", help="Newton point, index and straightness")
    s.add_argument("elem")

    s = sub.add_parser("strata", help="Newton stratification of a length ball")
    s.add_argument("--length", type=int, required=True)
    s.add_argument("--omega", action="append",
                   help="kappa label like [0,1]; repeatable")

    s = sub.add_parser("reduce", help="reduce to a minimal-length element")
    s.add_argument("elem")

    s = sub.add_parser("triple", help="standard triple of the minimal class")
    s.add_argument("elem")

    s = sub.add_parser("alcove-test", help="the v-alcove condition")
    s.add_argument("elem")
    s.add_argument("--v", required=True)

    s = sub.add_parser("positivity", help="quasi-positivity exponent")
    s.add_argument("elem")
    s.add_argument("--v", required=True)

    s = sub.add_parser("levi", help="Levi data for a coweight")
    s.add_argument("--v", required=True)
    s.add_argument("action", choices=["describe"])

    s = sub.add_parser("cocenter-reduce", help="normal form in the cocenter")
    s.add_argument("expr")

    s = sub.add_parser("induce", help="induce a Levi cocenter element")
    s.add_argument("--v", required=True)
    s.add_argument("expr")

    s = sub.add_parser("rigid", help="rigid decomposition report")
    s.add_argument("--length", type=int, required=True)

    s = sub.add_parser("verify", help="run a verification suite")
    s.add_argument("suite")
    s.add_argument("--length", type=int)
    s.add_argument("--max-den", type=int, dest="max_den")
    s.add_argument("--pair-budget", type=int, dest="pair_budget")
    s.add_argument("--seeds", type=int)
    return p


def load_config(path: str) -> tuple[str, str, int | None]:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigurationError(f"bad config line {line!r}")
                key, val = (x.strip() for x in line.split("=", 1))
                values[key] = val
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    if "type" not in values:
        raise ConfigurationError("config is missing the 'type' key")
    rank = int(values["rank"]) if "rank" in values else None
    return values["type"], values.get("lattice", "sc"), rank


def _make_group(args) -> AffineWeylGroup:
    if args.config:
        kind, lattice, rank = load_config(args.config)
        datum = build_root_datum(kind, lattice, rank)
    else:
        kind, lattice = parse_group_label(args.group or "A1")
        datum = build_root_datum(kind, lattice)
    return AffineWeylGroup(datum, ball_cap=args.ball_cap)


def parse_coweight(group, text: str):
    """Coweights come in as JSON arrays of "p/q" strings (or a bare
    comma-separated list)."""
    text = text.strip()
    try:
        if text.startswith("["):
            items = json.loads(text)
        else:
            items = text.split(",")
        v = tuple(Fraction(str(x)) for x in items)
    except (ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot parse coweight {text!r}: {exc}") from exc
    if len(v) != group.datum.rank:
        raise InputError(f"coweight needs {group.datum.rank} coordinates")
    return v


def coweight_json(v) -> list[str]:
    return [frac_str(Fraction(c)) for c in v]


def parse_hecke_expr(group, text: str) -> HeckeElement:
    """expr := term (("+"|"-") term)*; term := poly "*" "T[" elem "]".

    Signs separate terms only right after a closing "]"; all other
    +/- belong to the polynomial coefficient.
    """
    chunks = []
    cur = []
    sign = 1
    prev = ""
    for ch in text:
        if ch in "+-" and prev == "]":
            chunks.append((sign, "".join(cur)))
            sign, cur = (1 if ch == "+" else -1), []
        else:
            cur.append(ch)
            if not ch.isspace():
                prev = ch
    chunks.append((sign, "".join(cur)))
    result = HeckeElement.zero()
    for sgn, chunk in chunks:
        chunk = chunk.strip()
        m = re.match(r"^(.*?)\*?\s*T\[(.*)\]$", chunk, re.DOTALL)
        if not m:
            raise InputError(f"cannot parse term {chunk!r} (production 'term')")
        poly_text = m.group(1).strip().rstrip("*").strip()
        if poly_text in ("", "+"):
            poly = QPoly.const(1)
        elif poly_text == "-":
            poly = QPoly.const(-1)
        else:
            poly = parse_poly(poly_text)
        elem = parse_element(group, m.group(2))
        result = result + HeckeElement.basis(elem, poly * QPoly.const(sgn))
    return result


def _nf_json(group, nf) -> dict:
    return {
        "components": [
            {
                "nu": coweight_json(nu.nu_bar),
                "omega": list(nu.omega),
                "terms": [
                    {"elem": element_str(group, w), "poly": str(c)}
                    for w, c in sorted(part.terms.items(),
                                       key=lambda kv: group.sort_key(kv[0]))
                ],
            }
            for nu, part in nf.components().items()
        ]
    }


def _print_nf(group, nf, as_json):
    if as_json:
        print(json.dumps(_nf_json(group, nf), sort_keys=True))
        return
    if not nf.terms:
        print("0")
        return
    for nu, part in nf.components().items():
        print(f"component {nu}:")
        for w, c in sorted(part.terms.items(), key=lambda kv: group.sort_key(kv[0])):
            print(f"  ({c}) * T[{element_str(group, w)}]")


# -- per-command handlers ------------------------------------------------


def cmd_describe(group, args) -> int:
    datum = group.datum
    info = {
        "group": datum.descriptor(),
        "rank": datum.rank,
        "positive_roots": len(datum.positive_roots),
        "weyl_order": datum.w0_order,
        "simple_roots": [list(a) for a in datum.simple_roots],
        "simple_coroots": [list(a) for a in datum.simple_coroots],
        "affine_simple_reflections": {
            f"S{lab}": element_str(group, s) for lab, s in group.simple_items()},
        "omega_finite": datum.omega_is_finite,
    }
    if args.json:
        print(json.dumps(info, sort_keys=True))
    else:
        for k, v in info.items():
            print(f"{k}: {v}")
    return 0


def cmd_newton(group, args) -> int:
    w = parse_element(group, args.elem)
    nu = newton_point(group, w)
    idx = newton_index(group, w)
    payload = {
        "elem": element_str(group, w),
        "length": group.length(w),
        "nu": coweight_json(nu),
        "nu_bar": coweight_json(idx.nu_bar),
        "kappa": list(idx.omega),
        "straight": is_straight(group, w),
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_strata(group, args) -> int:
    labels = [_parse_label(l) for l in args.omega] if args.omega else None
    fibers = strata(group, args.length, labels)
    if args.json:
        for nu, elems in fibers.items():
            for w in elems:
                print(json.dumps({
                    "elem": element_str(group, w),
                    "length": group.length(w),
                    "kappa": list(nu.omega),
                    "newton": coweight_json(nu.nu_bar),
                }, sort_keys=True))
        return 0
    print("nu_bar\tkappa\tcount\tmin_length_in_fiber")
    for nu, elems in fibers.items():
        min_len = min(group.length(w) for w in elems)
        print("\t".join([
            ",".join(coweight_json(nu.nu_bar)),
            ",".join(str(x) for x in nu.omega),
            str(len(elems)), str(min_len)]))
    return 0


def _parse_label(text: str):
    raw = text.strip()
    if raw.startswith("[") and raw.endswith("]"):
        raw = raw[1:-1]
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError as exc:
        raise InputError(f"bad omega label {text!r}: {exc}") from exc


def cmd_reduce(group, args) -> int:
    w = parse_element(group, args.elem)
    w_min, path = reduce_to_min(group, w)
    triple = standard_triple(group, w_min)
    if args.json:
        print(json.dumps({
            "start": element_str(group, w),
            "steps": [{"kind": st.kind, "s": f"S{st.label}",
                       "elem": element_str(group, st.result),
                       "length": group.length(st.result)}
                      for st in path.steps],
            "min": element_str(group, w_min),
            "canonical": element_str(group, canonical_min_rep(group, w_min)),
            "triple": _triple_json(group, triple),
        }, sort_keys=True))
        return 0
    print(f"start {element_str(group, w)} length {group.length(w)}")
    for st in path.steps:
        print(f"{st.kind} S{st.label} -> {element_str(group, st.result)} "
              f"length {group.length(st.result)}")
    print(f"min {element_str(group, w_min)} length {group.length(w_min)}")
    _print_triple(group, triple)
    return 0


def _triple_json(group, triple):
    return {"x": element_str(group, triple.x),
            "K": [f"S{lab}" for lab in triple.k_labels],
            "u": element_str(group, triple.u)}


def _print_triple(group, triple):
    k = ",".join(f"S{lab}" for lab in triple.k_labels)
    print(f"triple x={element_str(group, triple.x)} K=[{k}] "
          f"u={element_str(group, triple.u)}")


def cmd_triple(group, args) -> int:
    w = parse_element(group, args.elem)
    w_min, _ = reduce_to_min(group, w)
    triple = standard_triple(group, w_min)
    if args.json:
        print(json.dumps(_triple_json(group, triple), sort_keys=True))
    else:
        _print_triple(group, triple)
    return 0


def cmd_alcove_test(group, args) -> int:
    w = parse_element(group, args.elem)
    v = parse_coweight(group, args.v)
    from .root_datum import mat_act
    result = {
        "elem": element_str(group, w),
        "v": coweight_json(v),
        "fixes_v": tuple(mat_act(w.finite, v)) == v,
        "v_alcove": is_v_alcove(group, w, v),
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def cmd_positivity(group, args) -> int:
    w = parse_element(group, args.elem)
    v = parse_coweight(group, args.v)
    cert = positivity_exponent(group, w, v)
    print(json.dumps({
        "elem": element_str(group, w),
        "v": coweight_json(v),
        "exponent": cert.exponent,
        "bound": cert.bound,
        "n0": cert.n0,
        "n1": cert.n1,
        "denominator_scale": cert.denominator_scale,
        "min_shift_at_exponent": cert.min_shift_at_exponent,
    }, sort_keys=True))
    return 0


def cmd_levi(group, args) -> int:
    v = parse_coweight(group, args.v)
    m = levi_weyl_group(group, v)
    info = {
        "v": coweight_json(v),
        "phi_zero": [list(a) for a in m.levi.phi_zero],
        "phi_plus": [list(a) for a in m.levi.phi_plus],
        "w_m_order": m.levi.order,
        "affine_simple_reflections": {
            f"S{lab}": element_str(group, s) for lab, s in m.simple_items()},
    }
    if args.json:
        print(json.dumps(info, sort_keys=True))
    else:
        for k, val in info.items():
            print(f"{k}: {val}")
    return 0


def cmd_cocenter_reduce(group, args) -> int:
    f = parse_hecke_expr(group, args.expr)
    nf = cocenter_reduce(group, f)
    _print_nf(group, nf, args.json)
    return 0


def cmd_induce(group, args) -> int:
    v = parse_coweight(group, args.v)
    m = levi_weyl_group(group, v)
    f = parse_hecke_expr(group, args.expr)
    if not f.terms:
        raise InputError("induce needs a nonzero element")
    first = sorted(f.terms, key=m.sort_key)[0]
    nu_m = m.newton_index(first)
    nf = induce(group, m, f, nu_m)
    _print_nf(group, nf, args.json)
    return 0


def cmd_rigid(group, args) -> int:
    rows = rigid_decomposition(group, args.length)
    if args.json:
        for r in rows:
            print(json.dumps({
                "nu_bar": coweight_json(r.nu.nu_bar),
                "kappa": list(r.nu.omega),
                "levi": r.levi_label,
                "count": r.class_count,
                "covered": r.covered,
            }, sort_keys=True))
        return 0
    print("nu_bar\tkappa\tlevi\tcount\tcovered")
    for r in rows:
        print("\t".join([
            ",".join(coweight_json(r.nu.nu_bar)),
            ",".join(str(x) for x in r.nu.omega),
            r.levi_label, str(r.class_count), str(r.covered).lower()]))
    return 0 if all(r.covered for r in rows) else 1


def cmd_verify(group, args) -> int:
    overrides = {
        "length": args.length,
        "max_den": args.max_den,
        "pair_budget": args.pair_budget,
        "seeds": args.seeds,
        "seed": args.seed,
    }
    reports = run_suite(args.suite, group, overrides, jobs=args.jobs)
    ok = all(r.passed for r in reports)
    for r in reports:
        if args.json:
            print(json.dumps(r.to_json_obj(), sort_keys=True))
        elif args.tsv:
            print(r.to_tsv())
        else:
            print(r.to_text())
        print(f"[{r.suite}] wall time {r.wall_time:.2f}s", file=sys.stderr)
    return 0 if ok else 1


_HANDLERS = {
    "describe": cmd_describe,
    "newton": cmd_newton,
    "strata": cmd_strata,
    "reduce": cmd_reduce,
    "triple": cmd_triple,
    "alcove-test": cmd_alcove_test,
    "positivity": cmd_positivity,
    "levi": cmd_levi,
    "cocenter-reduce": cmd_cocenter_reduce,
    "induce": cmd_induce,
    "rigid": cmd_rigid,
    "verify": cmd_verify,
}


def _cache_warning(path, message):
    print(f"warning: NF cache {path}: {message}", file=sys.stderr)


def _load_nf_cache(group):
    """Attach the persisted normal forms of this group, unparsed; each
    entry is checked when it is first used (`StoredNormalForms`).

    An unreadable file and a wrong schema are reported on stderr and the
    file is ignored; a missing file is not reported.  Whenever the cache
    is in use the group gets a store, empty if nothing was read.
    """
    root = os.environ.get(CACHE_ENV)
    if not root:
        return None
    path = os.path.join(root, f"{CACHE_SCHEMA}-{group.datum.descriptor().replace(':', '-')}.json")
    group._nf_stored = StoredNormalForms(group, {})
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return path
    except (OSError, ValueError) as exc:
        _cache_warning(path, f"unreadable, ignored ({exc})")
        return path
    if not isinstance(data, dict) or data.get("schema") != CACHE_SCHEMA \
            or not isinstance(data.get("normal_forms"), dict):
        _cache_warning(path, f"not a {CACHE_SCHEMA} cache, ignored")
        return path
    group._nf_stored.forms = data["normal_forms"]
    return path


def _save_nf_cache(group, path):
    """Report the dropped stored entries, then write the stored entries
    never read plus every normal form of this run, in this process or
    its workers, atomically: a temporary file in the same directory,
    then os.replace.  Nothing is written when no normal form was used.
    A failure is reported, not raised."""
    if not path:
        return
    stored = group._nf_stored
    if stored.dropped:
        _cache_warning(path, f"dropped {len(stored.dropped)} invalid entries")
    if not group._nf_cache and not stored.computed:
        return
    forms = dict(stored.forms)
    forms.update(stored.computed)
    forms.update(normal_form_texts(group, group._nf_cache.items()))
    payload = {"schema": CACHE_SCHEMA, "group": group.datum.descriptor(),
               "normal_forms": forms}
    # a per-process name in the same directory, so os.replace is atomic
    # and concurrent writers do not share a temporary file
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
        os.replace(tmp, path)
    except OSError as exc:
        _cache_warning(path, f"not written ({exc})")
        try:
            os.remove(tmp)
        except OSError:
            pass


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    start = time.monotonic()
    try:
        group = _make_group(args)
        cache_path = _load_nf_cache(group)
        code = _HANDLERS[args.command](group, args)
        _save_nf_cache(group, cache_path)
    except (InputError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 2
    except LogicError as exc:
        print(f"logic error: {exc}", file=sys.stderr)
        return 3
    except Exception:
        # exit 1 means "verification failed"; anything unexpected is a
        # bug.  traceback is imported only here: it adds about 3 ms to
        # every start-up.
        import traceback
        traceback.print_exc(file=sys.stderr)
        return 3
    print(f"[{args.command}] wall time {time.monotonic() - start:.2f}s",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
