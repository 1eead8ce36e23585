"""Command-line front end.

Subcommands: describe, newton, strata, reduce, triple, alcove-test,
positivity, levi, cocenter-reduce, induce, rigid, verify.  Output is
deterministic for a fixed configuration and seed; timing goes to stderr
so reports compare byte-for-byte.  Exit codes: 0 success, 1 verify
failures, 2 parse/input errors, 3 internal logic errors and any other
unexpected exception (traceback on stderr).

A call loads and builds only what its subcommand uses.  The arguments
are parsed by a parser that holds that subcommand alone (`_COMMANDS`
drives both it and the full parser); where it would print help or an
error, the full parser parses again and prints, so every message is the
full parser's.  `json`, `hecke_cocenter`, `levi_alcove` and `verify`
are imported by the handlers that use them, not at start-up.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import time

from .affine_weyl import AffineWeylGroup, element_str, parse_element
from .errors import ConfigurationError, InputError, LogicError, ResourceError
from .newton import newton_point, strata
from .reduction import canonical_min_rep, reduce_to_min, standard_triple
from .root_datum import build_root_datum, coweight, mat_act, parse_group_label


def _int_at_least(low: int):
    """An argparse type: a whole number of at least `low`, so that an
    out-of-range count is exit 2, never a vacuous run."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _arg(*flags, **kwargs):
    return flags, kwargs


_ELEM = _arg("elem")
_EXPR = _arg("expr")
_V = _arg("--v", required=True)
_LENGTH = _arg("--length", type=_int_at_least(0), required=True)
# the largest --length of strata and rigid when --ball-cap is not given
DEFAULT_BALL_CAP_LOW_RANK = 12
DEFAULT_BALL_CAP = 8

# subcommand -> (help, arguments in the order they are added)
_COMMANDS = {
    "describe": ("print the root datum and affine data", []),
    "newton": ("Newton point, index and straightness", [_ELEM]),
    "strata": ("Newton stratification of a length ball", [
        _LENGTH, _arg("--omega", action="append",
                      help="kappa label like [0,1]; repeatable")]),
    "reduce": ("reduce to a minimal-length element", [_ELEM]),
    "triple": ("standard triple of the minimal class", [_ELEM]),
    "alcove-test": ("the v-alcove condition", [_ELEM, _V]),
    "positivity": ("quasi-positivity exponent", [_ELEM, _V]),
    "levi": ("Levi data for a coweight", [_V, _arg("action", choices=["describe"])]),
    "cocenter-reduce": ("normal form in the cocenter", [_EXPR]),
    "induce": ("induce a Levi cocenter element", [_V, _EXPR]),
    "rigid": ("rigid decomposition report", [_LENGTH]),
    "verify": ("run a verification suite", [
        _arg("suite"), _arg("--length", type=_int_at_least(0)),
        _arg("--pair-budget", type=_int_at_least(1)),
        _arg("--seeds", type=_int_at_least(1))]),
}


class _Retry(Exception):
    """A one-subcommand parser would print here."""


class _PartialParser(argparse.ArgumentParser):
    """Raises _Retry where a parser prints help or an error (and then
    exits), so that every message comes from the full parser."""

    def print_help(self, file=None):
        raise _Retry

    def error(self, message):
        raise _Retry


@functools.cache
def _build_parser(command=None) -> argparse.ArgumentParser:
    """The full parser, or with a command a parser that holds only that
    subcommand; each is built once per process, and parse_args keeps no
    state in it between calls."""
    p = (argparse.ArgumentParser if command is None else _PartialParser)(
        prog="newton-cocenter",
        description="Exact computations in extended affine Weyl groups and "
                    "the cocenter of the generic affine Hecke algebra.")
    p.add_argument("--group", help="group label, e.g. A1, C2:ad, GL5 (default A1)")
    p.add_argument("--config", help="config file with keys type, rank, lattice")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    p.add_argument("--jobs", type=_int_at_least(1), default=1,
                   help="forked worker processes for `verify all`, at most "
                        "one per shard of suites (serial without os.fork); "
                        "output is canonical for any value")
    p.add_argument("--json", action="store_true", help="JSON output")
    p.add_argument("--tsv", action="store_true", help="TSV output")
    p.add_argument("--ball-cap", type=_int_at_least(0),
                   help=f"the largest --length of strata and rigid (default "
                        f"{DEFAULT_BALL_CAP_LOW_RANK} up to rank 2, {DEFAULT_BALL_CAP} above)")
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS if command is None else [command]:
        help_text, arguments = _COMMANDS[name]
        s = sub.add_parser(name, help=help_text)
        for flags, kwargs in arguments:
            s.add_argument(*flags, **kwargs)
    return p


def _parse_args(argv):
    """Parse with the parser of the first token that names a subcommand.
    Where that parser would print, or no token names one, parse again
    with the full parser, which makes every message and exit code; a
    wrong guess, such as a group named like a command, lands there too.
    A "--" just before the command is dropped: argparse reads it as one."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = next((t for t in argv if t in _COMMANDS), None)
    if command is not None:
        if (i := argv.index(command)) and argv[i - 1] == "--":
            del argv[i - 1]
        try:
            return _build_parser(command).parse_args(argv)
        except _Retry:
            pass
    return _build_parser().parse_args(argv)


def _dumps(obj) -> str:
    """obj as canonical JSON.  json is imported on first use, here and in
    `parse_coweight`: text output and most inputs never read it."""
    import json
    return json.dumps(obj, sort_keys=True)


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
    try:
        rank = int(values["rank"]) if "rank" in values else None
    except ValueError as exc:
        raise ConfigurationError(f"bad rank in config {path}: {exc}") from exc
    return values["type"], values.get("lattice", "sc"), rank


def _make_group(args) -> AffineWeylGroup:
    if args.config:
        kind, lattice, rank = load_config(args.config)
        datum = build_root_datum(kind, lattice, rank)
    else:
        kind, lattice = parse_group_label(args.group or "A1")
        datum = build_root_datum(kind, lattice)
    return AffineWeylGroup(datum)


def parse_coweight(group, text: str):
    """Coweights come in as JSON arrays of "p/q" strings (or a bare
    comma-separated list)."""
    from fractions import Fraction  # its grammar is the coweight grammar
    text = text.strip()
    try:
        if text.startswith("["):
            import json
            items = json.loads(text)
        else:
            items = text.split(",")
        v = coweight([Fraction(str(x)) for x in items])
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse coweight {text!r}: {exc}") from exc
    if len(v.x) != group.datum.rank:
        raise InputError(f"coweight needs {group.datum.rank} coordinates")
    return v


def parse_hecke_expr(group, text: str):
    """The HeckeElement of text.

    expr := term (("+"|"-") term)*; term := poly "*" "T[" elem "]".
    Signs separate terms only right after a closing "]"; all other
    +/- belong to the polynomial coefficient.
    """
    from .hecke_cocenter import HeckeElement, QPoly, parse_poly
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
    from .hecke_cocenter import newton_components
    return {
        "components": [
            {
                "nu": nu.nu_bar.strs(),
                "omega": list(nu.omega),
                "terms": [
                    {"elem": element_str(group, w), "poly": str(part.terms[w])}
                    for w in group.canonical_order(part.terms)
                ],
            }
            for nu, part in newton_components(group, nf).items()
        ]
    }


def _print_nf(group, nf, as_json):
    from .hecke_cocenter import newton_components
    if as_json:
        print(_dumps(_nf_json(group, nf)))
        return
    if not nf.terms:
        print("0")
        return
    for nu, part in newton_components(group, nf).items():
        print(f"component {nu}:")
        for w in group.canonical_order(part.terms):
            print(f"  ({part.terms[w]}) * T[{element_str(group, w)}]")


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
        print(_dumps(info))
    else:
        for k, v in info.items():
            print(f"{k}: {v}")
    return 0


def cmd_newton(group, args) -> int:
    w = parse_element(group, args.elem)
    nu = newton_point(group, w)
    idx = group.newton_index(w)
    payload = {
        "elem": element_str(group, w),
        "length": group.length(w),
        "nu": nu.strs(),
        "nu_bar": idx.nu_bar.strs(),
        "kappa": list(idx.omega),
        "straight": group.is_straight(w),
    }
    print(_dumps(payload))
    return 0


def _check_ball_cap(group, args):
    """Refuse a --length above --ball-cap before any ball is built."""
    cap = args.ball_cap
    if cap is None:
        cap = DEFAULT_BALL_CAP_LOW_RANK if group.datum.rank <= 2 else DEFAULT_BALL_CAP
    if args.length > cap:
        raise ResourceError(f"ball of radius {args.length} exceeds the cap {cap}")


def cmd_strata(group, args) -> int:
    labels = [_parse_label(l, group.datum.rank)
              for l in args.omega] if args.omega else None
    _check_ball_cap(group, args)
    fibers = strata(group, args.length, labels)
    if args.json:
        for nu, elems in fibers.items():
            for w in elems:
                print(_dumps({
                    "elem": element_str(group, w),
                    "length": group.length(w),
                    "kappa": list(nu.omega),
                    "newton": nu.nu_bar.strs(),
                }))
        return 0
    print("nu_bar\tkappa\tcount\tmin_length_in_fiber")
    for nu, elems in fibers.items():
        min_len = min(group.length(w) for w in elems)
        print("\t".join([
            ",".join(nu.nu_bar.strs()),
            ",".join(str(x) for x in nu.omega),
            str(len(elems)), str(min_len)]))
    return 0


def _parse_label(text: str, rank: int):
    raw = text.strip()
    if raw.startswith("[") and raw.endswith("]"):
        raw = raw[1:-1]
    try:
        label = tuple(int(x) for x in raw.split(","))
    except ValueError as exc:
        raise InputError(f"bad omega label {text!r}: {exc}") from exc
    if len(label) != rank:
        raise InputError(f"omega label {text!r} needs {rank} coordinates")
    return label


def cmd_reduce(group, args) -> int:
    w = parse_element(group, args.elem)
    w_min, path = reduce_to_min(group, w)
    triple = standard_triple(group, w_min)
    if args.json:
        print(_dumps({
            "start": element_str(group, w),
            "steps": [{"kind": st.kind, "s": f"S{st.label}",
                       "elem": element_str(group, st.result),
                       "length": group.length(st.result)}
                      for st in path.steps],
            "min": element_str(group, w_min),
            "canonical": element_str(group, canonical_min_rep(group, w_min)),
            "triple": _triple_json(group, triple),
        }))
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
        print(_dumps(_triple_json(group, triple)))
    else:
        _print_triple(group, triple)
    return 0


def cmd_alcove_test(group, args) -> int:
    from .levi_alcove import is_v_alcove
    w = parse_element(group, args.elem)
    v = parse_coweight(group, args.v)
    result = {
        "elem": element_str(group, w),
        "v": v.strs(),
        "fixes_v": mat_act(w.finite, v.x) == v.x,
        "v_alcove": is_v_alcove(group, w, v),
    }
    print(_dumps(result))
    return 0


def cmd_positivity(group, args) -> int:
    from .levi_alcove import positivity_exponent
    w = parse_element(group, args.elem)
    v = parse_coweight(group, args.v)
    cert = positivity_exponent(group, w, v)
    print(_dumps({
        "elem": element_str(group, w),
        "v": v.strs(),
        "exponent": cert.exponent,
        "bound": cert.bound,
        "n0": cert.n0,
        "n1": cert.n1,
        "denominator_scale": cert.denominator_scale,
        "min_shift_at_exponent": cert.min_shift_at_exponent,
    }))
    return 0


def cmd_levi(group, args) -> int:
    from .levi_alcove import levi_weyl_group, phi_plus
    v = parse_coweight(group, args.v)
    m = levi_weyl_group(group, v)
    info = {
        "v": v.strs(),
        "phi_zero": [list(a) for a in m.phi_m],
        "phi_plus": [list(a) for a in phi_plus(group, v)],
        "w_m_order": len(m.finite_elements()),
        "affine_simple_reflections": {
            f"S{lab}": element_str(group, s) for lab, s in m.simple_items()},
    }
    if args.json:
        print(_dumps(info))
    else:
        for k, val in info.items():
            print(f"{k}: {val}")
    return 0


def cmd_cocenter_reduce(group, args) -> int:
    from .hecke_cocenter import cocenter_reduce
    f = parse_hecke_expr(group, args.expr)
    nf = cocenter_reduce(group, f)
    _print_nf(group, nf, args.json)
    return 0


def cmd_induce(group, args) -> int:
    from .hecke_cocenter import induce
    from .levi_alcove import levi_weyl_group
    v = parse_coweight(group, args.v)
    f = parse_hecke_expr(group, args.expr)
    _print_nf(group, induce(group, levi_weyl_group(group, v), f), args.json)
    return 0


def cmd_rigid(group, args) -> int:
    _check_ball_cap(group, args)
    from .hecke_cocenter import rigid_decomposition
    rows = rigid_decomposition(group, args.length)
    if args.json:
        for r in rows:
            print(_dumps({
                "nu_bar": r.nu.nu_bar.strs(),
                "kappa": list(r.nu.omega),
                "levi": r.levi_label,
                "count": r.class_count,
                "covered": r.covered,
            }))
        return 0
    print("nu_bar\tkappa\tlevi\tcount\tcovered")
    for r in rows:
        print("\t".join([
            ",".join(r.nu.nu_bar.strs()),
            ",".join(str(x) for x in r.nu.omega),
            r.levi_label, str(r.class_count), str(r.covered).lower()]))
    return 0 if all(r.covered for r in rows) else 1


def cmd_verify(group, args) -> int:
    from .verify import run_suite
    overrides = {
        "length": args.length,
        "pair_budget": args.pair_budget,
        "seeds": args.seeds,
        "seed": args.seed,
    }
    reports = run_suite(args.suite, group, overrides, jobs=args.jobs)
    ok = all(r.passed for r in reports)
    for r in reports:
        if args.json:
            print(_dumps(r.to_json_obj()))
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


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    start = time.monotonic()
    try:
        group = _make_group(args)
        code = _HANDLERS[args.command](group, args)
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
        # bug.  traceback is imported only here: with tokenize, linecache
        # and textwrap it would add about 4 ms to every start-up.
        import traceback
        traceback.print_exc(file=sys.stderr)
        return 3
    print(f"[{args.command}] wall time {time.monotonic() - start:.2f}s",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
