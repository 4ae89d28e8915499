"""Command-line front end.

One binary, one subcommand per module, each declared once in
`_SUBCOMMANDS` by its help, its handler and its arguments; a call builds
the parser of only the subcommand it names.  Every subcommand takes
`--json` and then emits a versioned envelope {"schema": "1", "command":
..., "result": ...}; without it a short human-readable report is printed.

Serialization rules, chosen so golden outputs are bit-stable.  `main`
writes the envelope in one `json.dumps(..., indent=2, default=_scalar)`:
integers, strings, booleans, None, lists and tuples go out as json writes
them, and json hands `_scalar` each exact rational, which renders as a
"num/den" string (denominator 1 included), and each QuadraticSurd, which
renders like a float.  A float renders as a decimal string with 15
significant digits; json would write it as a number, so the handler that
makes it (mellin-fp, reproduce's seconds) passes it through `_scalar`
itself.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from typing import TYPE_CHECKING, Callable

from .errors import (_NUMBER, DomainError, NumericError, ParseError,
                     TracegeoError, _clip, _read_int, _read_number,
                     exit_code_for)

# Only the stdlib and .errors load at module top.  Every library
# module is imported inside the function that calls it, so a subcommand
# loads only what it runs: compiling a module when no bytecode is cached
# costs a few ms.  fractions loads only with a module that computes with
# Fraction, or for a number that _read_number reads, and json only where
# JSON is read or written.  The names below serve annotations only.
if TYPE_CHECKING:
    from .invariants_k import RelativeDatum
    from .root_datum import RootSystem


def _read_float(text: str, name: str) -> float:
    """The float nearest the number that text spells; a value whose float
    overflows or rounds to 0 is refused, naming name."""
    x = _read_number(text, name)
    try:
        if float(x) or not x:
            return float(x)
    except OverflowError:
        pass
    raise DomainError(f"{name}: {_clip(repr(text))} lies outside the float "
                      "range")


def _read_ints(text: str, flag: str, limit: int | None = None) -> list[int]:
    """A comma list of _read_int values."""
    return [_read_int(c.strip(), flag, limit) for c in text.split(",")]


# -- group-spec grammar --------------------------------------------------------


def parse_group_spec(text: str) -> tuple[RootSystem, int, str | None]:
    """The root system, restriction degree and relative-datum path that a
    group spec names.

    Grammar: simple factors joined by 'x' ("A2", "B3xA1"), an optional
    central-torus suffix "+Tk", then optional "@res=<n>" and
    "@relative=<path>" markers in either order, each at most once.
    """
    if not text:
        raise ParseError("empty group spec", offset=0)
    at = text.find("@")
    core = text if at < 0 else text[:at]
    plus = core.find("+")
    factor_part = core if plus < 0 else core[:plus]
    torus_rank = 0
    if plus >= 0:
        if core[plus + 1:plus + 2] != "T":
            raise ParseError("torus suffix must look like +T<k>",
                             offset=plus + 1)
        torus_rank = _read_int(core[plus + 2:], "+T", offset=plus + 2)
    if not factor_part:
        raise ParseError("expected a simple factor like A2", offset=0)
    from .root_datum import RootSystem, SimpleType
    factors = []
    pos = 0
    for chunk in factor_part.split("x"):
        if not chunk:
            raise ParseError("empty factor", offset=pos)
        factors.append(SimpleType.parse(chunk, pos))
        pos += len(chunk) + 1
    degree = 1
    rel_path = None
    seen: set[str] = set()
    idx = at
    while 0 <= idx < len(text):
        nxt = text.find("@", idx + 1)
        chunk = text[idx + 1: nxt if nxt >= 0 else len(text)]
        if chunk.startswith("res="):
            if "res" in seen:
                raise ParseError("duplicate @res suffix", offset=idx + 1)
            seen.add("res")
            offset = idx + 1 + len("res=")
            degree = _read_int(chunk[len("res="):], "@res=", offset=offset)
            if degree < 1:
                raise ParseError("@res= wants a positive integer",
                                 offset=offset)
        elif chunk.startswith("relative="):
            if "relative" in seen:
                raise ParseError("duplicate @relative suffix", offset=idx + 1)
            seen.add("relative")
            rel_path = chunk[len("relative="):]
            if not rel_path:
                raise ParseError("@relative= wants a file path",
                                 offset=idx + 1 + len("relative="))
        else:
            raise ParseError(f"unknown suffix {_clip(repr(chunk))}; expected "
                             "res= or relative=", offset=idx + 1)
        idx = nxt
    return RootSystem(tuple(factors), torus_rank), degree, rel_path


def _render_spec(rs: RootSystem, degree: int, rel_path: str | None) -> str:
    """The canonical group spec: parse_group_spec reads it back."""
    suffixes = "" if degree == 1 else f"@res={degree}"
    if rel_path is not None:
        suffixes += f"@relative={rel_path}"
    return f"{rs}{suffixes}"


# -- serialization helpers -----------------------------------------------------


def _scalar(x) -> str:
    """A Fraction as "num/den"; a float or a surd to 15 digits."""
    # json passes only Fractions and surds, and the handlers that pass a
    # float have loaded a module that computes with Fraction.
    from fractions import Fraction
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if not isinstance(x, float):
        # A surd comes only from the budget handler, which loaded error_budget.
        from .error_budget import QuadraticSurd
        if not isinstance(x, QuadraticSurd):
            raise TypeError(f"cannot serialize {type(x).__name__}")
    return f"{float(x):.15g}"


def _load_json_text(text: str, what: str, **hooks):
    import json
    try:
        return json.loads(text, **hooks)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what}: invalid JSON: {exc.msg}",
                         offset=exc.pos) from exc
    except ValueError:  # an integer past Python's int/str digit limit
        raise ParseError(f"{what}: an integer has too many digits to "
                         "read") from None


def _read_entry(value, name: str, read: Callable = _read_number):
    """A JSON entry read as a number by read, each error naming name.
    The loaders give each number as the str typed; true, false and null are
    read as their JSON words, and an array or object is refused by kind."""
    if isinstance(value, (list, dict)):
        kind = "array" if isinstance(value, list) else "object"
        raise ParseError(f"{name} expects a number, got a JSON {kind}")
    import json
    return read(value if isinstance(value, str) else json.dumps(value), name)


def _load_relative(path: str) -> RelativeDatum:
    from .invariants_k import RelativeDatum
    shown = _clip(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        # strerror, not the whole error, which repeats the path.
        raise DomainError(f"cannot read relative datum {_clip(repr(path))}: "
                          f"{exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{shown}: relative datum is not UTF-8 text",
                         offset=exc.start) from None
    data = _load_json_text(raw, shown)
    if not isinstance(data, dict) or \
            set(data) != {"simple_roots", "nilradical_dims"}:
        raise ParseError(f"{shown}: relative datum must be an object with "
                         "keys simple_roots and nilradical_dims")
    roots, dims = data["simple_roots"], data["nilradical_dims"]
    if not isinstance(roots, list) or not isinstance(dims, list) or \
            any(not isinstance(r, list) or any(type(x) is not int for x in r)
                for r in roots) or any(type(d) is not int for d in dims):
        raise ParseError(f"{shown}: roots must be integer vectors and "
                         "dims integers")
    return RelativeDatum(roots=tuple(map(tuple, roots)),
                         contributions=tuple(dims))


# -- subcommands ---------------------------------------------------------------


def _cmd_k(args) -> tuple[object, str, int]:
    rs, degree, rel_path = parse_group_spec(args.spec)
    from .invariants_k import (GroupSpec, k_by_pairs, k_min_orbit, k_report,
                               k_richardson)
    if args.relative is not None:
        rel_path = args.relative
    relative = _load_relative(rel_path) if rel_path is not None else None
    if args.degree is not None:
        degree = _read_int(args.degree, "--degree")
    g = GroupSpec(rs, degree, relative)
    canonical = _render_spec(rs, degree, rel_path)
    if args.method is None:
        report = k_report(g)
        # The four routes, then agreement, in the order k_report gives them.
        lines = [f"k invariants for {canonical}:"] + [
            f"  {key}: " + ("n/a" if value is None else str(value))
            for key, value in report.items()]
        return {"spec": canonical, **report}, "\n".join(lines), 0
    fn = {"pairs": k_by_pairs, "richardson": k_richardson,
          "minorbit": k_min_orbit}[args.method]
    value = fn(g)
    result = {"spec": canonical, "method": args.method, "value": value}
    return result, f"k({canonical}) = {value} [{args.method}]", 0


def _cmd_orbits(args) -> tuple[object, str, int]:
    from .nilpotent_orbits import GLType, list_orbits, orbit_dim
    from .root_datum import SimpleType
    t = GLType(_read_int(args.type[2:], "gl<n>", offset=2)) \
        if args.type.startswith("gl") else SimpleType.parse(args.type)
    labels = list_orbits(t)
    rows = sorted(
        ({"label": str(lab), "dim": orbit_dim(lab),
          "flags": (["very_even"] if lab.very_even else [])}
         for lab in labels),
        key=lambda r: (r["dim"], r["label"]))
    lines = [f"{len(rows)} nilpotent orbits for {args.type}:"]
    for r in rows:
        star = " very-even" if r["flags"] else ""
        lines.append(f"  {r['label']:<16} dim {r['dim']}{star}")
    return rows, "\n".join(lines), 0


def _cmd_parabolics(args) -> tuple[object, str, int]:
    rs, degree, rel_path = parse_group_spec(args.spec)
    # Parabolic subsets live in the split root datum; only k reads the
    # restriction degree and the relative datum.
    if degree != 1 or rel_path is not None:
        suffix = "@res=" if degree != 1 else "@relative="
        raise ParseError(f"{suffix} does not apply to parabolics")
    from .parabolic_lattice import (dim_unipotent_radical,
                                    enumerate_parabolic_subsets, levi_of)
    rows = []
    # enumerate_parabolic_subsets returns the subsets in sort_key order.
    for p in enumerate_parabolic_subsets(rs):
        levi = levi_of(p)
        rows.append({
            "members": p.member_roots,
            "levi": levi.member_roots,
            "dim_V": dim_unipotent_radical(p),
            "a_M_dim": levi.a_M_dim,
        })
    lines = [f"{len(rows)} parabolic subsets for {rs}:"]
    for r in rows:
        lines.append(f"  |members| {len(r['members']):>3}  |levi| "
                     f"{len(r['levi']):>3}  dim_V {r['dim_V']:>3}  "
                     f"a_M_dim {r['a_M_dim']}")
    return rows, "\n".join(lines), 0


def _cmd_discriminant(args) -> tuple[object, str, int]:
    from .local_data import RationalMatrix, weyl_discriminant
    data = _load_json_text(args.matrix, "--matrix", parse_int=str,
                           parse_float=str, parse_constant=str)
    if not isinstance(data, list) or not data or \
            any(not isinstance(row, list) or len(row) != len(data)
                for row in data):
        raise ParseError("--matrix wants a square JSON array of arrays")
    # A number comes as typed, a JSON number or a string alike.
    matrix = RationalMatrix.from_rows([
        [_read_entry(x, f"--matrix: [{i}][{j}]") for j, x in enumerate(row)]
        for i, row in enumerate(data)])
    primes = _read_ints(args.primes, "--primes") \
        if args.primes is not None else []
    res = weyl_discriminant(matrix, primes)
    result = {
        "value": res.value,
        "abs_inf": res.abs_inf,
        "p_valuations": {str(p): v for p, v in res.p_valuations.items()},
        "centralizer_dim": res.centralizer_dim,
    }
    lines = [f"discriminant = {res.value}",
             f"  |.|_inf = {res.abs_inf}",
             f"  centralizer dimension = {res.centralizer_dim}"]
    for p, v in res.p_valuations.items():
        lines.append(f"  v_{p} = {v}")
    return result, "\n".join(lines), 0


def _cmd_index(args) -> tuple[object, str, int]:
    from .arithmetic import LEVEL_LIMIT, level_data, sl_index
    n = _read_int(args.n, "--n")
    level = _read_int(args.level, "--level", LEVEL_LIMIT)
    value = sl_index(n, level)
    result = {"group": "sl", "n": n, "level": level, "index": value,
              "prime_support": list(level_data(level).S_N)}
    return result, f"[SL({n},Z) : Gamma({level})] = {value}", 0


def _cmd_levels(args) -> tuple[object, str, int]:
    from .arithmetic import LEVEL_LIMIT, prime_fixed_check
    levels = _read_ints(args.levels, "levels", LEVEL_LIMIT)
    allowed = _read_ints(args.allowed, "--allowed", LEVEL_LIMIT) \
        if args.allowed is not None else None
    res = prime_fixed_check(levels, allowed)
    result = {
        "ok": res.ok,
        "reference": list(res.reference),
        "union": list(res.union),
        "offenders": [{"level": n, "extra": list(extra)}
                      for n, extra in res.offenders],
    }
    lines = [f"prime-fixed: {res.ok}",
             f"  reference primes: {list(res.reference)}",
             f"  union of supports: {list(res.union)}"]
    for n, extra in res.offenders:
        lines.append(f"  offender {n}: introduces {list(extra)}")
    return result, "\n".join(lines), 0


def _exp_preset(lam: float, t0: float, name: str):
    """exp_preset, with name (the flag or key) in its domain errors."""
    from .mellin_fp import exp_preset
    try:
        return exp_preset(lam, t0)
    except DomainError as e:
        raise DomainError(f"{name}: {e}") from None


def _mellin_pair_from_spec(data):
    from .mellin_fp import (AsymptoticExpansion, TailFunction,
                            monotone_cubic, sqrt_exp_preset)

    def number(value, key: str, exact: bool = False):
        # Numbers come as typed; an exponent stays exact but needs a float.
        name = f"--spec: {key}"
        x = _read_entry(value, name, _read_float)
        return _read_entry(value, name) if exact else x

    if not isinstance(data, dict):
        raise ParseError("--spec wants a JSON object")
    t0 = number(data.get("t0", "1"), "t0")
    if not t0 > 0:
        raise DomainError(f"--spec: t0 must be positive, got {t0!r}")
    preset = data.get("preset")
    if preset is not None:
        if preset == "exp":
            return _exp_preset(number(data.get("lambda", "1"), "lambda"),
                               t0, "--spec: lambda")
        if preset == "sqrt":
            return sqrt_exp_preset(t0)
        raise ParseError(f"unknown preset {preset!r}; expected exp or sqrt")
    decay = data.get("decay")
    if not isinstance(decay, dict) or set(decay) != {"C", "lambda"}:
        raise ParseError('--spec wants "decay": {"C": ..., "lambda": ...}')
    decay_pair = (number(decay["C"], "decay.C"),
                  number(decay["lambda"], "decay.lambda"))
    raw_terms = data.get("terms", [])
    if not isinstance(raw_terms, list) or \
            any(not isinstance(x, list) or len(x) != 2 for x in raw_terms):
        raise ParseError('--spec wants "terms" as a list of '
                         "[exponent, coefficient] pairs")
    terms = tuple((number(a, f"terms[{i}][0]", exact=True),
                   number(c, f"terms[{i}][1]"))
                  for i, (a, c) in enumerate(raw_terms))
    remainder = number(data.get("remainder_order", "1"), "remainder_order",
                       exact=True)
    samples = data.get("samples")
    if samples is None:
        raise ParseError('--spec without "preset" wants "samples": '
                         "[[t, f(t)], ...]")
    if not isinstance(samples, list) or len(samples) < 2 or \
            any(not isinstance(x, list) or len(x) != 2 for x in samples):
        raise ParseError('"samples" wants at least two [t, value] pairs')
    ts, vs = ([number(x[j], f"samples[{i}][{j}]")
               for i, x in enumerate(samples)] for j in (0, 1))
    if ts[0] <= 0 or any(b <= a for a, b in zip(ts, ts[1:])):
        raise ParseError('"samples" abscissae must be positive and '
                         "strictly increasing")
    interp = monotone_cubic(ts, vs)
    t_lo, t_hi, v_hi = ts[0], ts[-1], vs[-1]
    expansion = AsymptoticExpansion(terms, min(t0, t_lo), remainder)

    def evaluator(t: float) -> float:
        # Below the sampled range the declared expansion stands in; above
        # it the tail continues at the declared exponential rate.
        if t <= t_lo:
            return expansion.evaluate(t)
        if t >= t_hi:
            return v_hi * math.exp(-decay_pair[1] * (t - t_hi))
        return interp(t)

    return TailFunction(evaluator, decay_pair), expansion


def _cmd_mellin_fp(args) -> tuple[object, str, int]:
    from .mellin_fp import fp_mellin, sqrt_exp_preset
    tol = _read_float(args.tol, "--tol")
    t0 = 1.0 if args.t0 is None else _read_float(args.t0, "--t0")
    lam = None if args.lam is None else _read_float(args.lam, "--lambda")
    if (args.spec is None) == (args.preset is None):
        raise ParseError("pass exactly one of --preset or --spec")
    source = "--spec" if args.preset is None else f"--preset {args.preset}"
    if lam is not None and args.preset != "exp":
        raise ParseError(f"--lambda does not apply to {source}")
    if args.t0 is not None and args.preset is None:
        raise ParseError("--t0 does not apply to --spec; give t0 in the spec")
    if args.preset is not None:
        # Name the option, not the library parameter, in a domain error.
        if not t0 > 0:
            raise DomainError(f"--t0 must be positive, got {t0!r}")
        if args.preset == "exp":
            if lam is None:
                raise ParseError("--preset exp wants --lambda")
            pair = _exp_preset(lam, t0, "--lambda")
        else:
            pair = sqrt_exp_preset(t0)
    else:
        pair = _mellin_pair_from_spec(_load_json_text(
            args.spec, "--spec", parse_int=str, parse_float=str,
            parse_constant=str))
    value = fp_mellin(*pair, tol=tol)
    result = {"finite_part": _scalar(value), "tol": _scalar(tol)}
    return result, f"finite part = {value:.12g}", 0


def _cmd_budget(args) -> tuple[object, str, int]:
    from .error_budget import (BudgetParams, _require, a_exponent, beta_max,
                               exponents, lambda_min)
    b_conj = _read_int(args.b_conj, "--b-conj")
    m_nonarch = _read_int(args.m_nonarch, "--m-nonarch")
    k, c2, c4, cn, eps, cprime = (
        _read_number(getattr(args, name), f"--{name}")
        for name in ("k", "C2", "C4", "Cn", "eps", "cprime"))
    # beta_max alone admits k = 0, and would refuse k < 0 as "nonnegative";
    # the budget as a whole needs k > 0.
    beta = beta_max(c2, c4, cn, _require("k", k))
    lam = lambda_min(k, beta, eps, cprime)
    params = BudgetParams(k=k, lam=lam, epsilon=eps, C2=c2, C4=c4, Cn=cn,
                          c_prime=cprime, beta=beta, b_conj=b_conj,
                          m_nonarch=m_nonarch)
    report = exponents(params)
    a = a_exponent(params)

    def scalar(name, x):
        try:
            return _scalar(x)
        except NumericError as exc:  # a surd past the float range
            raise NumericError(f"{name}: {exc}") from None
    beta, lam, e_spec, e1, e2 = (
        scalar(name, x) for name, x in (
            ("beta", beta), ("lambda", lam), ("e_spec", report.e_spec),
            ("e1", report.e1), ("e2", report.e2)))
    result = {
        "beta": beta,
        "lambda": lam,
        "exponents": {"e_spec": e_spec, "e1": e1, "e2": e2},
        "all_ok": report.all_ok,
        "a_exponent": a,
    }
    lines = [f"beta = {beta}",
             f"lambda = {lam}",
             f"exponents: e_spec = {e_spec}, e1 = {e1}, e2 = {e2}",
             f"all_ok: {report.all_ok}",
             f"a_exponent = {a}"]
    return result, "\n".join(lines), 0


def _cmd_reproduce(args) -> tuple[object, str, int]:
    from .reproduce import run_reproduction
    results = run_reproduction()
    all_ok = all(r.ok for r in results)
    rows = [{
        "name": r.name, "ok": r.ok, "detail": r.detail,
        "expected": r.expected, "actual": r.actual,
        "seconds": _scalar(r.seconds),
    } for r in results]
    lines = []
    for r in results:
        mark = " OK " if r.ok else "FAIL"
        lines.append(f"[{mark}] {r.name} ({r.seconds:.2f} s): {r.detail}")
        if not r.ok:
            lines.append(f"       expected: {r.expected}")
            lines.append(f"       actual:   {r.actual}")
    lines.append("all checks passed" if all_ok else "FAILED: " + ", ".join(
        r.name for r in results if not r.ok))
    result = {"all_ok": all_ok, "checks": rows}
    return result, "\n".join(lines), 0 if all_ok else 1


# -- wiring --------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Read "-1e-3", "-.5" and "-1/2" as values, not option flags, so a
        # negative number reaches the domain check that names its option.
        self._negative_number_matcher = re.compile("-" + _NUMBER.pattern,
                                                   re.ASCII)

    def _check_value(self, action, value):
        # Quote the choices as Python 3.10-3.13.0 do; 3.13.13 does not.
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {value!r} (choose from {choices})")

    def error(self, message):
        raise ParseError(message)


# name -> (help, handler, arguments), in the order that `tracegeo -h` lists
# them; arguments holds the (flag, keywords) of each add_argument call.  An
# entry with a fourth item, the name of its one nested subcommand, gives the
# arguments and --json to that subcommand (`levels check-prime-fixed`).
_SUBCOMMANDS = {
    "k": ("decay invariant of a group spec", _cmd_k, [
        ("spec", dict(help='group spec, e.g. "A2" or "D3xA1+T2@res=2"')),
        ("--relative", dict(metavar="FILE",
                            help="JSON file {simple_roots, nilradical_dims}; "
                                 "overrides @relative=")),
        ("--degree", dict(metavar="N", help="restriction-of-scalars degree; "
                                            "overrides @res=")),
        ("--method", dict(choices=["pairs", "richardson", "minorbit"],
                          help="single method instead of the full report"))]),
    "orbits": ("nilpotent orbits of a classical type", _cmd_orbits, [
        ("type", dict(help='simple type "B3" or general linear "gl4"'))]),
    "parabolics": ("all parabolic root subsets of a group spec",
                   _cmd_parabolics, [("spec", {})]),
    "discriminant": ("Weyl discriminant of a rational matrix",
                     _cmd_discriminant, [
        ("--matrix", dict(required=True,
                          help="JSON rows of numbers, each a JSON number or "
                               'a string such as "1/2" or "0.25"')),
        ("--primes", dict(help="extra primes for valuations, e.g. 2,3"))]),
    "index": ("index of a principal congruence subgroup", _cmd_index, [
        ("--n", dict(required=True)), ("--level", dict(required=True))]),
    "levels": ("level-set predicates", _cmd_levels, [
        ("levels", dict(help="comma list of levels, e.g. 2,4,8")),
        ("--allowed", dict(help="comma list of allowed primes"))],
        "check-prime-fixed"),
    "mellin-fp": ("finite part of a normalized Mellin transform",
                  _cmd_mellin_fp, [
        ("--preset", dict(choices=["exp", "sqrt"])),
        ("--lambda", dict(dest="lam", help="decay rate for --preset exp")),
        ("--t0", dict(help="split point / expansion validity (default 1)")),
        ("--tol", dict(default="1e-10")),
        ("--spec", dict(help="JSON {terms, t0, decay:{C,lambda}, "
                             "samples|preset}"))]),
    "budget": ("error-exponent budget feasibility", _cmd_budget, [
        ("--k", dict(required=True)), ("--C2", dict(default="1")),
        ("--C4", dict(default="1")), ("--Cn", dict(default="1")),
        ("--eps", dict(default="1/10")), ("--cprime", dict(default="0")),
        ("--b-conj", dict(default="0")), ("--m-nonarch", dict(default="0"))]),
    "reproduce": ("run every stated-value check end to end", _cmd_reproduce,
                  []),
}


def _add(sub, common, name: str) -> None:
    """Add subcommand name's parser to sub, as its _SUBCOMMANDS entry
    states it."""
    summary, handler, arguments, *nested = _SUBCOMMANDS[name]
    p = sub.add_parser(name, parents=[] if nested else [common], help=summary)
    if nested:
        p = p.add_subparsers(dest=f"{name}_command", required=True,
                             parser_class=_Parser).add_parser(
            nested[0], parents=[common])
    for flag, keywords in arguments:
        p.add_argument(flag, **keywords)
    p.set_defaults(fn=handler)


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with only the named subcommand, or with all of them
    when command names none: the help, usage and error text a call sees
    are the same either way."""
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a versioned JSON envelope")
    top = _Parser(prog="tracegeo", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=_Parser)
    for name in (command,) if command in _SUBCOMMANDS else _SUBCOMMANDS:
        _add(sub, common, name)
    return top


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        parser = _build_parser(argv[0] if argv else None)
        args = parser.parse_args(argv)
        handler: Callable = args.fn
        result, human, code = handler(args)
        text = human
        if args.json:
            import json
            envelope = {"schema": "1", "command": args.command,
                        "result": result}
            text = json.dumps(envelope, indent=2, default=_scalar)
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # The reader closed the pipe (`... | head`).  Point stdout at
            # devnull so the flush at interpreter exit cannot raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return code
    except TracegeoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
