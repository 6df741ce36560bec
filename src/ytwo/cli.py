"""Command-line front end: verification suites with text or JSON reports.

Every command is a suite: a function ``suite(args, report)`` that adds
named checks to one ``RunReport``.  ``run`` builds that report (the
command, ``verify <suite>`` or the command's name, and its parameters),
times the suite and prints the report.  A check is one
``(name, ok, expected, actual, detail)`` tuple, the record that
``spectool.GroupReport.checks`` yields, with ``ok`` True (pass), False
(fail) or None (skip); ``RunReport``, a ``rings.Record``, keeps these
tuples and prints one line per check, or a JSON document with
``--json``.  Exits 1 on any failed check, else 3 when an explicitly
requested enumeration hit the resource cap, else 0; 2 on usage errors.
"""

import argparse
import json
import random
import sys
import time

from .clifford import (
    PinRep,
    center_report,
    check_power_identities,
    kernel_element,
    lifts,
    spinor_norm,
)
from .errors import YtwoError
from .ortho import OrthoRep, conjugate_power_matrix, entries_are_t_polynomials
from .presentation import evaluate, relator_failures, schedule, s_letter
from .quadspace import (
    QuadSpace,
    bilin,
    hyperbolic_decompose,
    q_eval,
    rmat_lower_laurent,
)
from .rings import L_ONE, Record, S, cyclotomic_split, field_degree
from .spinor import (
    check_action,
    check_extended_action,
    independence_certificate,
    spinor_basis,
    SpinorRep,
)
from .spectool import DEFAULT_CAP, augmentation_components, small_cases_check


_STATUS = {True: "pass", False: "fail", None: "skip"}


class RunReport(Record):
    """A command's checks, each a ``(name, ok, expected, actual, detail)``
    tuple as ``GroupReport.checks`` yields them (``ok`` None: skipped)."""

    __slots__ = ("command", "params", "checks", "elapsed_ms", "cap_hit")
    _defaults = dict(checks=list, elapsed_ms=0, cap_hit=False)

    def add(self, name, ok, expected=None, actual=None, detail=None):
        self.checks.append((name, bool(ok), expected, actual, detail))

    @property
    def exit_code(self):
        if any(ok is False for _, ok, *_ in self.checks):
            return 1
        return 3 if self.cap_hit else 0

    def to_json(self):
        keys = ("name", "status", "expected", "actual", "detail")
        return {
            "command": self.command,
            "params": {k: str(v) for k, v in self.params.items()},
            "checks": [
                dict(zip(keys, (name, _STATUS[ok], *rest)))
                for name, ok, *rest in self.checks
            ],
            "elapsed_ms": self.elapsed_ms,
        }

    def render_text(self) -> str:
        lines = []
        counts = dict.fromkeys(_STATUS.values(), 0)
        for name, ok, expected, actual, detail in self.checks:
            status = _STATUS[ok]
            counts[status] += 1
            line = f"[{status}] {name}"
            if ok is False and (expected or actual):
                line += f" (expected {expected}, got {actual})"
            if detail:
                line += f"  -- {detail}"
            lines.append(line)
        lines.append(
            f"{self.command}: {counts['pass']} passed, {counts['fail']} failed, "
            f"{counts['skip']} skipped ({self.elapsed_ms} ms)"
        )
        return "\n".join(lines)


def _attempt(fn):
    """(fn(), None), or (None, message) if fn raised a domain error."""
    try:
        return fn(), None
    except (YtwoError, ArithmeticError, ValueError) as exc:
        return None, str(exc)


def _guarded(report, name, fn, expected=None):
    """Run a check body that raises on failure."""
    _, error = _attempt(fn)
    report.add(name, error is None, expected=expected, detail=error)


# -- suites -----------------------------------------------------------------


def _suite_relations(args, report):
    reps = []
    if args.rep in ("phi", "both", "all"):
        reps.append(("phi", OrthoRep(QuadSpace(args.m)), "y-tilde"))
    if args.rep in ("psi", "both", "all"):
        reps.append(("psi", PinRep(args.m), "y-tilde"))
    if args.rep in ("eta", "all"):
        reps.append(("eta", SpinorRep(args.m), "y"))
    for label, rep, flavor in reps:
        sched = schedule(args.m, args.kmax, flavor)
        bad = set(relator_failures(sched, rep))
        for name, _ in sched:
            ok = name not in bad
            report.add(
                f"{label}/m={args.m}/{name}",
                ok,
                expected="identity",
                actual=None if ok else "non-identity",
            )


def _suite_lifting(args, report):
    phi = OrthoRep(QuadSpace(args.m))
    psi = PinRep(args.m)
    letters = phi.letters()
    for letter in letters:
        image = psi.image(letter)
        ok, error = _attempt(lambda: lifts(image, phi.image(letter)))
        report.add(f"lifting/m={args.m}/generator_{letter}", ok, detail=error)
        norm, error = _attempt(lambda: spinor_norm(image))
        report.add(
            f"pin_norm/m={args.m}/generator_{letter}",
            error is None and norm.is_one,
            expected="1",
            actual=None if error else str(norm),
            detail=error,
        )
    rng = random.Random(args.seed)
    detail = None
    for i in range(args.words):
        word = tuple(
            rng.choice(letters) for _ in range(rng.randint(0, args.maxlen))
        )
        ok, error = _attempt(lambda: lifts(evaluate(word, psi), evaluate(word, phi)))
        if not ok:
            detail = f"first failing word {''.join(word)}"
            detail += f": {error}" if error else ""
            break
    report.add(
        f"lifting/m={args.m}/random_words(count={args.words},maxlen={args.maxlen})",
        detail is None,
        detail=detail,
    )


def _suite_closed_form(args, report):
    space = QuadSpace(args.m)
    phi = OrthoRep(space)
    s1 = (s_letter(1),)
    for k in range(0, args.kmax + 1):
        word = ("A",) * k + s1 + ("a",) * k
        oracle = evaluate(word, phi)
        closed = rmat_lower_laurent(conjugate_power_matrix(space, k))
        report.add(
            f"closed_form/m={args.m}/k={k}",
            closed == oracle,
            expected="iterated conjugate",
        )
        report.add(
            f"closed_form_entries_in_t/m={args.m}/k={k}",
            entries_are_t_polynomials(closed),
        )


def _suite_powers(args, report):
    for k in range(0, args.kmax + 1):
        _guarded(report, f"power_identities/k={k}", lambda k=k: check_power_identities(k))


def _suite_basis(args, report):
    _guarded(
        report,
        f"basis_independence/m={args.m}",
        lambda: independence_certificate(spinor_basis(args.m)),
    )
    _guarded(report, f"matrix_action/m={args.m}", lambda: check_action(args.m))


def _suite_center(args, report):
    rep = center_report(args.m)
    if args.m % 2 == 0:
        report.add(
            f"center_radical_central/m={args.m}",
            rep.radical_is_central,
            expected="central",
        )
        expected_dim = 2
    else:
        report.add(
            f"center_radical_not_central/m={args.m}",
            not rep.radical_is_central,
            expected="non-central",
            detail=f"witness generator {rep.witness}",
        )
        expected_dim = 1
    report.add(
        f"center_specialized_dim/m={args.m}",
        rep.specialized_dim == expected_dim,
        expected=str(expected_dim),
        actual=str(rep.specialized_dim),
    )
    if args.m % 2 == 0:
        for lam, label in ((S, "s"), (L_ONE, "1")):
            z = kernel_element(args.m, lam)
            report.add(
                f"kernel_element/m={args.m}/lam={label}",
                not z.is_identity,
                expected="non-trivial element of ker(pi) inside pin",
            )


def _suite_extended(args, report):
    _guarded(
        report, f"extended_action/m={args.m}", lambda: check_extended_action(args.m)
    )


def _suite_decompose(args, report):
    m = args.rank - 1
    space = QuadSpace(m)
    dec = hyperbolic_decompose(space)
    labels = space.basis_labels()

    def vec_str(v):
        names = [labels[i] for i, c in enumerate(v) if c]
        return "+".join(names) if names else "0"

    for idx, (e, f) in enumerate(dec.pairs, start=1):
        ok = (
            not q_eval(space, e)
            and not q_eval(space, f)
            and bilin(space, e, f).is_one
        )
        report.add(
            f"pair_{idx}",
            ok,
            expected="q(e)=q(f)=0, (e,f)=1",
            detail=f"e={vec_str(e)}, f={vec_str(f)}",
        )
    report.add(
        "residual_rank",
        len(dec.residual) in (2, 3),
        expected="2 or 3",
        actual=str(len(dec.residual)),
        detail="q-values " + ", ".join(str(q) for q in dec.residual_q),
    )
    report.add(
        "state_sequence",
        True,
        detail=" -> ".join(
            "(" + ", ".join(s.str_t() for s in st) + ")" for st in dec.states
        ),
    )


def _suite_specialize(args, report):
    g = small_cases_check(args.m, args.n, cap=args.cap, force=args.enumerate)
    report.checks += g.checks
    report.cap_hit = args.enumerate and g.enumeration == "cap"


def _suite_augmentation(args, report):
    degrees = cyclotomic_split(args.n)
    report.add(
        f"split_degree_sum/n={args.n}",
        sum(degrees) == args.n - 1,
        expected=str(args.n - 1),
        actual=str(sum(degrees)),
        detail=f"degrees {degrees}",
    )
    comps = augmentation_components(args.n)
    report.add(
        f"component_fields/n={args.n}",
        sorted(c.field.degree for c in comps) == degrees,
        expected=str(degrees),
        actual=str(sorted(c.field.degree for c in comps)),
    )


def _param_dict(args) -> dict:
    skip = {"func", "json", "suite", "command"}
    return {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in skip and v is not None
    }


def _int_in(lo, hi):
    """Argument type: an int in [lo, hi]."""

    def parse(text):
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must be in {lo}..{hi}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


def _eval_order(text):
    """Argument type: an evaluation order n, odd and >= 3, within the
    supported order and field degree (checked without building the field)."""
    n = int(text)
    try:
        field_degree(n)
    except YtwoError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ytwo",
        description="Exact verification suites for the characteristic-two "
        "quadratic module, its Clifford algebra, and their finite "
        "specializations.",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", help="emit a JSON report")
    shared.add_argument(
        "--seed", type=int, default=42, help="seed for randomized suites"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run an exact verification suite")
    vsub = verify.add_subparsers(dest="suite", required=True)

    def common(parent, name, suite, m_max=None, kmax=None, n=None, **kw):
        p = parent.add_parser(name, parents=[shared], **kw)
        if m_max:
            p.add_argument(
                "--m", type=_int_in(3, m_max), default=4, help="rank parameter (>= 3)"
            )
        if kmax:
            default, lo, hi = kmax
            p.add_argument("--kmax", type=_int_in(lo, hi), default=default)
        if n is not None:
            help_n = (
                "evaluation order; the centre dimension is the same at every"
                " n, so the report does not depend on it (accepted for"
                " existing scripts)"
            )
            p.add_argument("--n", type=_eval_order, default=n, help=help_n)
        p.set_defaults(func=suite)
        return p

    # Each bound keeps its command within reach (README gives the times
    # at each bound).  The next --m step: relations --rep all takes 1.6 s
    # at m=11; lifting on its default 200 words 19-23 s and 72-94 MB at
    # m=13 (20 words: 2.2-4.4 s at m=13, 2.5-9.5 s at m=14), measured
    # before pin words were multiplied by letter programs, against
    # 2.8-4.0 s and 32-39 MB at m=12 and 0.49-0.64 s and 18 MB at m=10
    # (seeds 1-3) with them and the norm compared on packed ints;
    # closed-form 1.1 s and 35 MB at m=200.
    p_rel = common(vsub, "relations", _suite_relations, m_max=10, kmax=(20, 1, 30))
    p_rel.add_argument(
        "--rep", choices=("phi", "psi", "eta", "both", "all"), default="both"
    )
    p_lift = common(vsub, "lifting", _suite_lifting, m_max=12)
    p_lift.add_argument("--words", type=_int_in(0, 2500), default=200)
    p_lift.add_argument("--maxlen", type=_int_in(0, 100), default=30)
    common(vsub, "closed-form", _suite_closed_form, m_max=100, kmax=(20, 0, 50))
    common(vsub, "powers", _suite_powers, kmax=(50, 0, 1000))
    # the spinor basis and the center report support m <= 8 only
    common(vsub, "basis", _suite_basis, m_max=8)
    common(vsub, "center", _suite_center, m_max=8, n=5)
    common(vsub, "extended", _suite_extended, m_max=8)

    p_dec = common(sub, "decompose", _suite_decompose, help="hyperbolic pair extraction")
    p_dec.add_argument(
        "--rank", type=_int_in(4, 150), required=True, help="module rank m+1"
    )

    p_spec = common(sub, "specialize", _suite_specialize, help="finite-field small-cases report")
    # the eta images are 2**(m-2)-square: time and memory grow ~4x per
    # step.  The (3,9) enumeration stores about 88 bytes per state, 200 MB
    # at the cap; no order in EXPECTED_ORDERS lies between it and 1e9.
    # Wider states meet spectool's byte budget first ((10,41): 553 MB).
    p_spec.add_argument("--m", type=_int_in(3, 10), required=True)
    p_spec.add_argument("--n", type=_eval_order, required=True)
    p_spec.add_argument("--enumerate", action="store_true")
    p_spec.add_argument("--cap", type=_int_in(1, DEFAULT_CAP), default=DEFAULT_CAP)

    p_aug = common(sub, "augmentation", _suite_augmentation, help="cyclotomic splitting report")
    p_aug.add_argument("--n", type=_eval_order, required=True)
    return parser


# the parser ``run`` reads arguments with, built by its first call and
# kept: a tree built per call costs its build time and leaves cyclic
# garbage each time, and parsing keeps no state in it
_parser = None


def run(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    command = f"verify {args.suite}" if args.command == "verify" else args.command
    report = RunReport(command=command, params=_param_dict(args))
    start = time.monotonic()
    args.func(args, report)
    report.elapsed_ms = int((time.monotonic() - start) * 1000)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render_text())
    return report.exit_code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
