"""The decomposition corpus: 3,200 elements of sp(2n, R), n = 1..4, on which two
versions of the spectral route are compared output for output.

Per n: the 15 RECIPES of test_classification_oracle at seeds 0-39, then 100
y_element and then 100 z_element draws, read from one rng_from(5) stream shared
over n = 1..4.  This is not a test module (pytest does not collect it).  From
the repository root,

    PYTHONPATH=src python tests/corpus.py --digest > digest.txt

prints one line per input, and two versions' digests can be `diff`ed.  A line
holds the input's maslov_evaluate (value and bar bits, route) under `auto`,
`spectral` and `limit` (the path sweep alone, at t_max = 400), and its
williamson_decompose (frame digest, residual bits, blocks), or the exception
raised: each alone, then in one stack per n of the inputs that succeed alone;
an input that fails alone is placed in the middle of that stack and the
stack's exception is printed."""

import argparse
import hashlib
import sys

from spqs.maslov import MaslovLimitConfig, maslov_evaluate
from spqs.symplectic import SpElement, SymplecticSpace, rng_from, y_element, z_element
from spqs.williamson import classify_eigenstructure, williamson_decompose
from test_classification_oracle import RECIPES, element, outcome

CFG = MaslovLimitConfig(t_max=400.0)  # `limit`'s horizon, and `auto`'s off semi-simple inputs


def corpus() -> list[tuple[int, str, SpElement]]:
    """(n, label, element) of every input, in corpus order."""
    out, rng = [], rng_from(5)
    for n in (1, 2, 3, 4):
        space = SymplecticSpace(n)
        out += [(n, f"{recipe} seed={seed}", element(space, recipe, seed))
                for recipe in RECIPES for seed in range(40)]
        for name, build in (("y", y_element), ("z", z_element)):
            out += [(n, f"{name} draw={t}", build(space, *rng.standard_normal((2, space.dim))))
                    for t in range(100)]
    return out


def head(inputs) -> list[tuple[int, str, SpElement]]:
    """The inputs of recipe seed < 5 and y/z draw < 10, in corpus order."""
    return [(n, label, B) for n, label, B in inputs
            if int(label.rpartition("=")[2]) < (5 if " seed=" in label else 10)]


def _evaluate(method):
    return lambda Bs: [f"{value.hex()} {bar.hex()} {route}"
                       for value, bar, route in maslov_evaluate(Bs, CFG, method)]


def _decompose(Bs):
    return [" ".join([hashlib.sha256(dec.S.tobytes()).hexdigest(), dec.roundtrip_residual.hex(),
                      *(f"{b.kind}:{b.a.hex()}:{b.b.hex()}:{b.planes}" for b in dec.blocks)])
            for dec in williamson_decompose(classify_eigenstructure(Bs))]


OPERATIONS = {"auto": _evaluate("auto"), "spectral": _evaluate("spectral"),
              "limit": _evaluate("limit"), "decompose": _decompose}


def digest(inputs, names=tuple(OPERATIONS)) -> list[str]:
    """One line per input: each named operation alone, then stacked (see the module)."""
    lines = [f"n={n} {label}" for n, label, _ in inputs]
    for name in names:
        op = OPERATIONS[name]
        for n in sorted({n for n, _, _ in inputs}):
            at = [i for i, (m, _, _) in enumerate(inputs) if m == n]
            Bs = [inputs[i][2] for i in at]
            alone = [outcome(op, [B]) for B in Bs]
            ok = [B for B, out in zip(Bs, alone) if isinstance(out, list)]
            stacked = outcome(op, ok)
            results = iter(stacked) if isinstance(stacked, list) else None
            mid = len(ok) // 2
            for i, B, out in zip(at, Bs, alone):
                if isinstance(out, list):
                    got = next(results) if results else stacked
                    lines[i] += f" | {name}: {out[0]} | stacked: {got}"
                else:
                    got = outcome(op, ok[:mid] + [B] + ok[mid:])
                    got = "no exception" if isinstance(got, list) else got
                    lines[i] += f" | {name}: {out} | mid-stack: {got}"
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--digest", action="store_true", help="print one line per input")
    args = parser.parse_args(argv)
    inputs = corpus()
    if not args.digest:
        print(f"{len(inputs)} inputs")
        return 0
    sys.stdout.writelines(line + "\n" for line in digest(inputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
