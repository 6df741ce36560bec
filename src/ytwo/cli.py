"""Command-line front end: verification suites with text or JSON reports.

Every subcommand runs a suite of named checks.  A check is one
``(name, ok, expected, actual, detail)`` tuple, the record that
``spectool.GroupReport.checks`` yields, with ``ok`` True (pass), False
(fail) or None (skip); ``RunReport`` keeps these tuples and prints one
line per check, or a JSON document with ``--json``.  Exit status: 1 on
any failed check, else 3 when an explicitly requested enumeration hit
the resource cap, else 0; 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field as dc_field

from .clifford import (
    PinRep,
    center_report,
    check_power_identities,
    conjugation_matrix,
    kernel_element,
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
from .rings import L_ONE, S, cyclotomic_split, field_degree
from .spinor import (
    check_action,
    check_extended_action,
    independence_certificate,
    spinor_basis,
    SpinorRep,
)
from .spectool import augmentation_components, small_cases_check


_STATUS = {True: "pass", False: "fail", None: "skip"}


@dataclass
class RunReport:
    """A command's checks, each a ``(name, ok, expected, actual, detail)``
    tuple as ``GroupReport.checks`` yields them (``ok`` None: skipped)."""

    command: str
    params: dict
    checks: list = dc_field(default_factory=list)
    elapsed_ms: int = 0
    cap_hit: bool = False

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


def _guarded(report, name, fn, expected=None):
    """Run a check body that raises on failure."""
    try:
        fn()
        report.add(name, True, expected=expected)
    except (YtwoError, ArithmeticError, ValueError) as exc:
        report.add(name, False, expected=expected, actual=None, detail=str(exc))


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
        for name in sched.names():
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
        ok = conjugation_matrix(psi.image(letter)) == phi.image(letter)
        report.add(f"lifting/m={args.m}/generator_{letter}", ok)
        norm = spinor_norm(psi.image(letter))
        report.add(
            f"pin_norm/m={args.m}/generator_{letter}",
            norm.is_one,
            expected="1",
            actual=str(norm),
        )
    rng = random.Random(args.seed)
    bad = None
    for i in range(args.words):
        word = tuple(
            rng.choice(letters) for _ in range(rng.randint(0, args.maxlen))
        )
        if conjugation_matrix(evaluate(word, psi)) != evaluate(word, phi):
            bad = word
            break
    report.add(
        f"lifting/m={args.m}/random_words(count={args.words},maxlen={args.maxlen})",
        bad is None,
        detail=None if bad is None else f"first failing word {''.join(bad)}",
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


def _cmd_verify(args) -> RunReport:
    report = RunReport(
        command=f"verify {args.suite}", params=_param_dict(args)
    )
    suite = {
        "relations": _suite_relations,
        "lifting": _suite_lifting,
        "closed-form": _suite_closed_form,
        "powers": _suite_powers,
        "basis": _suite_basis,
        "center": _suite_center,
        "extended": _suite_extended,
    }[args.suite]
    suite(args, report)
    return report


def _cmd_decompose(args) -> RunReport:
    report = RunReport(command="decompose", params=_param_dict(args))
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
    return report


def _cmd_specialize(args) -> RunReport:
    report = RunReport(command="specialize", params=_param_dict(args))
    mode = "force" if args.enumerate else "auto"
    g = small_cases_check(args.m, args.n, cap=args.cap, enumerate_mode=mode)
    report.checks += g.checks
    report.cap_hit = args.enumerate and g.enumeration == "cap"
    return report


def _cmd_augmentation(args) -> RunReport:
    report = RunReport(command="augmentation", params=_param_dict(args))
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
    return report


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
    """Argument type: an evaluation order n, odd and >= 3, whose field
    GF(2**d) is within the supported degree (checked without building it)."""
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

    p_verify = sub.add_parser("verify", help="run an exact verification suite")
    vsub = p_verify.add_subparsers(dest="suite", required=True)

    def common(p, m_max=None, kmax=None, n=None):
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
        p.set_defaults(func=_cmd_verify)

    # Each bound keeps its command within reach (README gives the times
    # at each bound).  The next --m step: relations --rep all takes 1.6 s
    # at m=11, lifting 1.7-5.2 s and 29-67 MB by seed at m=11 on 20 words
    # (m=10: 0.8-2.2 s, 23-39 MB), closed-form 16 s and 52 MB at m=200.
    common(vsub.add_parser("relations", parents=[shared]), m_max=10, kmax=(20, 1, 30))
    vsub.choices["relations"].add_argument(
        "--rep", choices=("phi", "psi", "eta", "both", "all"), default="both"
    )
    p_lift = vsub.add_parser("lifting", parents=[shared])
    common(p_lift, m_max=10)
    p_lift.add_argument("--words", type=_int_in(0, 2500), default=200)
    p_lift.add_argument("--maxlen", type=_int_in(0, 100), default=30)
    common(vsub.add_parser("closed-form", parents=[shared]), m_max=100, kmax=(20, 0, 50))
    common(vsub.add_parser("powers", parents=[shared]), kmax=(50, 0, 1000))
    # the spinor basis and the center report support m <= 8 only
    common(vsub.add_parser("basis", parents=[shared]), m_max=8)
    common(vsub.add_parser("center", parents=[shared]), m_max=8, n=5)
    common(vsub.add_parser("extended", parents=[shared]), m_max=8)

    p_dec = sub.add_parser("decompose", parents=[shared], help="hyperbolic pair extraction")
    p_dec.add_argument(
        "--rank", type=_int_in(4, 150), required=True, help="module rank m+1"
    )
    p_dec.set_defaults(func=_cmd_decompose)

    p_spec = sub.add_parser("specialize", parents=[shared], help="finite-field small-cases report")
    # the eta images are 2**(m-2)-square: time and memory grow ~4x per
    # step.  The (3,9) enumeration stores about 88 bytes per state, 200 MB
    # at the cap; no order in EXPECTED_ORDERS lies between it and 1e9.
    # Wider states meet spectool's byte budget first ((10,41): 553 MB).
    p_spec.add_argument("--m", type=_int_in(3, 10), required=True)
    p_spec.add_argument("--n", type=_eval_order, required=True)
    p_spec.add_argument("--enumerate", action="store_true")
    p_spec.add_argument("--cap", type=_int_in(1, 2_000_000), default=2_000_000)
    p_spec.set_defaults(func=_cmd_specialize)

    p_aug = sub.add_parser("augmentation", parents=[shared], help="cyclotomic splitting report")
    p_aug.add_argument("--n", type=_eval_order, required=True)
    p_aug.set_defaults(func=_cmd_augmentation)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    report = args.func(args)
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
