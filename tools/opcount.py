"""Count the exact-rational work of each layer of ``flowreject run``.

Run from the repository root:

    python3 tools/opcount.py FILE [--verify]

Runs the pipeline of ``flowreject run`` on the instance FILE in this
process, one layer at a time: parse, simulate, certificate, objectives and
each trace check, plus the monotonicity check with ``--verify``. For each
layer it prints how many ``Fraction`` objects were constructed (calls of
``Fraction.__new__``) and how many ``Fraction`` comparisons were made
(``<``, ``<=``, ``>``, ``>=`` and ``==``, reflected ones included). The
counts are exact and repeat from run to run, but they depend on the
interpreter's ``fractions`` module, so compare them only between runs on
the same Python.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from flowreject import analysis  # noqa: E402
from flowreject.engine import simulate  # noqa: E402
from flowreject.instance import parse_instance  # noqa: E402

_counts = [0, 0]  # constructions, comparisons


def _install_counters() -> None:
    new, richcmp, eq = Fraction.__new__, Fraction._richcmp, Fraction.__eq__

    def counted_new(cls, *args, **kwargs):
        _counts[0] += 1
        return new(cls, *args, **kwargs)

    def counted_richcmp(self, other, op):
        _counts[1] += 1
        return richcmp(self, other, op)

    def counted_eq(a, b):
        _counts[1] += 1
        return eq(a, b)

    Fraction.__new__ = staticmethod(counted_new)
    Fraction._richcmp = counted_richcmp
    Fraction.__eq__ = counted_eq


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("file", help="instance file (JSON Lines)")
    parser.add_argument("--verify", action="store_true", help="add the monotonicity check")
    args = parser.parse_args(argv)
    text = pathlib.Path(args.file).read_bytes()
    _install_counters()
    rows: list[tuple[str, int, int]] = []

    def layer(name: str, fn, *fn_args):
        before = list(_counts)
        result = fn(*fn_args)
        rows.append((name, _counts[0] - before[0], _counts[1] - before[1]))
        return result

    instance = layer("parse", parse_instance, text)
    outcome = layer("simulate", simulate, instance)
    cert = layer("certificate", analysis.build_certificate, outcome)
    objs = layer("objectives", analysis.objectives, cert, outcome)
    layer("structural_properties", analysis.check_structural_properties, outcome)
    layer("dual_feasibility", analysis.check_dual_feasibility, cert, outcome)
    layer("main_inequality", analysis.check_main_inequality, cert, outcome)
    layer("weight_balance", analysis.check_weight_balance, outcome)
    layer("alpha_lower_bound", analysis.check_alpha_lower_bound, cert, outcome, objs)
    layer("theorem_chain", analysis.check_theorem_chain, cert, outcome, objs)
    if args.verify:
        layer("monotonicity", analysis.check_monotonicity, outcome)
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'layer':<22} {'fractions':>10} {'comparisons':>12}")
    for name, made, compared in rows:
        print(f"{name:<22} {made:>10} {compared:>12}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
