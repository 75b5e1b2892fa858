"""Command-line interface.

Exit codes: 0 success / theorem passes, 1 theorem counterexample, 2 usage or
output-file error, 3 enumeration budget exceeded, 4 internal error (any other
exception, reported as ``internal error: <type>: <message>`` on stderr).

``--max-length`` and ``--max-words`` set the enumeration budget for the whole
command, ``verify`` sweeps included.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from collections.abc import Iterable
from functools import cache
from itertools import chain

# ``classes`` stays bound here, unused: perfbench's tracer wraps a spanned
# function in every module that binds it, and its tests count this one.
from .commutation import class_sizes, classes, graph
from .patterns import analyze_321, is_freely_braided, is_vexillary
from .permcore import (
    code_and_shape,
    diagram,
    format_perm,
    inversions,
    length,
    parse_perm,
)
from .redwords import Budget, BudgetError, budget, enumerate_R, format_word
from .render import (
    graph_dot,
    graph_payload,
    polygon_svg,
    poset_dot,
    poset_payload,
    tiling_payload,
    tiling_svg,
    to_json,
)
from .tilings import enumerate_rhombic, enumerate_zonotopal, peel_lines, poset
from .verify import THEOREMS, EmptySweepError, run as run_verify

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _parse(text: str):
    try:
        return parse_perm(text)
    except (ValueError, TypeError) as exc:
        raise SystemExit2(f"malformed permutation {text!r}: {exc}")


class SystemExit2(Exception):
    """Usage error carrying a message; mapped to exit code 2."""


def _int_at_least(low: int):
    """An argparse type: an int that is at least ``low``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


def _emit(args, text: str | Iterable[str]) -> None:
    """Write ``text``, or each string of an iterable of them in turn, to the
    ``-o`` file or stdout; a long listing is written as it is formatted."""
    chunks = [text] if isinstance(text, str) else text
    if args.output:
        try:
            with open(args.output, "w") as handle:
                handle.writelines(chunks)
        except OSError as exc:
            raise SystemExit2(f"cannot write {args.output!r}: {exc.strerror}")
    else:
        sys.stdout.writelines(chunks)


def _emit_json(args, payload: dict) -> int:
    """Emit ``payload`` as a schema-1 JSON document."""
    _emit(args, to_json(payload))
    return EXIT_OK


def cmd_info(args) -> int:
    w = _parse(args.w)
    code, shape = code_and_shape(w)
    count_321, in_U_n = analyze_321(w)
    fields = {
        "permutation": format_perm(w),
        "length": length(w),
        "inversions": sorted(inversions(w)),
        "code": list(code),
        "shape": list(shape),
        "diagram": sorted(diagram(w)),
        "vexillary": is_vexillary(w),
        "freely_braided": is_freely_braided(w),
        "in_U_n": in_U_n,
        "count_321": count_321,
    }
    if args.format == "json":
        return _emit_json(args, fields)
    lines = [f"{key}: {value}" for key, value in fields.items()]
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_enum(args) -> int:
    """Text output lists one line per object and then ``count``, formatting
    each line as it is written; JSON output is built only when asked for."""
    w = _parse(args.w)
    as_json = args.format == "json"
    if args.what == "words":
        items = enumerate_R(w)
        if as_json:
            return _emit_json(args, {"words": [format_word(word) for word in items]})
        lines = map(format_word, items)
    elif args.what == "classes":
        items = class_sizes(w)
        if as_json:
            return _emit_json(
                args,
                {
                    "classes": [
                        {"representative": format_word(rep), "size": size}
                        for rep, size in items.items()
                    ]
                },
            )
        lines = (f"{format_word(rep)} (size {size})" for rep, size in items.items())
    elif args.what in ("tilings", "zonotopal"):
        rhombic = args.what == "tilings"
        items = enumerate_rhombic(w) if rhombic else enumerate_zonotopal(w)
        if as_json:
            return _emit_json(args, {"tilings": [tiling_payload(t) for t in items]})
        lines = peel_lines(items, profiles=not rhombic)
    else:  # poset
        p = poset(w)
        if as_json:
            return _emit_json(args, poset_payload(p))
        _emit(args, f"elements {len(p.elements)}\ncovers {len(p.hasse)}\n")
        return EXIT_OK
    _emit(args, (f"{line}\n" for line in chain(lines, [f"count {len(items)}"])))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.theorem not in THEOREMS:
        raise SystemExit2(
            f"unknown theorem {args.theorem!r}; known: {' '.join(sorted(THEOREMS))}"
        )
    try:
        result = run_verify(args.theorem, args.n)
    except EmptySweepError as exc:
        raise SystemExit2(str(exc))
    if args.format == "json":
        _emit_json(args, dataclasses.asdict(result))
    else:
        _emit(args, result.summary() + "\n")
    return EXIT_OK if result.ok else EXIT_COUNTEREXAMPLE


def cmd_render(args) -> int:
    w = _parse(args.w)
    target, colon, index_text = args.target.partition(":")
    if target not in ("polygon", "tiling", "graph", "poset"):
        raise SystemExit2(f"unknown render target {args.target!r}")
    if colon and target != "tiling":
        raise SystemExit2(f"render target {target!r} takes no ':' suffix")
    if target == "polygon":
        if args.format == "json":
            raise SystemExit2("render polygon has no JSON form; it emits SVG only")
        _emit(args, polygon_svg(w))
        return EXIT_OK
    if target == "tiling":
        index = index_text or "0"
        if not index.isdecimal():
            raise SystemExit2(f"{index_text!r} is not a tiling index")
        tilings = enumerate_rhombic(w)
        if int(index) >= len(tilings):
            raise SystemExit2(
                f"tiling index {index_text!r} out of range 0..{len(tilings) - 1}"
            )
        shown, payload, picture = tilings[int(index)], tiling_payload, tiling_svg
    elif target == "graph":
        shown, payload, picture = graph(w), graph_payload, graph_dot
    else:  # poset
        shown, payload, picture = poset(w), poset_payload, poset_dot
    if args.format == "json":
        return _emit_json(args, payload(shown))
    _emit(args, picture(shown))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redux",
        description=(
            "Reduced decompositions, commutation classes, and tilings of "
            "Elnitsky's polygon."
        ),
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format; render emits SVG or DOT by target unless json",
    )
    parser.add_argument("--max-length", type=_int_at_least(0), default=Budget.max_length)
    parser.add_argument("--max-words", type=_int_at_least(0), default=Budget.max_words)
    parser.add_argument("-o", "--output", default=None, help="write to file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="report on one permutation")
    p_info.add_argument("w")
    p_info.set_defaults(func=cmd_info)

    p_enum = sub.add_parser("enum", help="enumerate structures")
    p_enum.add_argument(
        "what", choices=["words", "classes", "tilings", "zonotopal", "poset"]
    )
    p_enum.add_argument("w")
    p_enum.set_defaults(func=cmd_enum)

    p_verify = sub.add_parser("verify", help="brute-force a theorem sweep")
    p_verify.add_argument("theorem")
    p_verify.add_argument("--n", type=_int_at_least(1), default=5)
    p_verify.set_defaults(func=cmd_verify)

    p_render = sub.add_parser("render", help="emit SVG/DOT/JSON artifacts")
    p_render.add_argument("target", help="polygon | tiling[:index] | graph | poset")
    p_render.add_argument("w")
    p_render.set_defaults(func=cmd_render)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every :func:`main` call in this process, built by the
    first one: each ``parse_args`` returns a fresh namespace, no default is
    mutable, and each ``func`` default reads the module's names when it
    runs."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with budget(max_length=args.max_length, max_words=args.max_words):
            return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
