"""Seeded mutation fuzz of the command line.

Corpus and generated documents are mutated line by line and token by
token; every mutant runs in-process through each ``cli.main`` subcommand
that reads its kind of document.  Each call must return 0, 1 or 2 without
an escaping exception, and a plan that ``ribbon plan --verify`` prints
must verify.
"""

import contextlib
import io
import random
import time

from ribboncalc import (cli, serialize_diagram, serialize_middle,
                        serialize_ribbon, serialize_script, serialize_tree)
from ribboncalc.corpus import corpus_names, corpus_text
from ribboncalc.trees import DEFAULT_NODE_BUDGET, DEFAULT_PAIR_BUDGET

from genlib import (random_diagram, random_nonpositive_descriptor,
                    random_script, random_tree)

# Integers at and past the edges of what the formats and budgets accept.
EXTREMES = ("0", "-1", "1", "2", str(2 ** 63), str(-2 ** 63), "9" * 40,
            str(DEFAULT_PAIR_BUDGET + 1), str(DEFAULT_NODE_BUDGET + 1))
TOKENS = ("diagram", "tree", "middle", "script", "node", "root", "edge",
          "finite", "component", "link", "dotted", "framed", "label",
          "pairs", "finger", "loop", "cap", "standard", "slide", "cancel",
          "swap", "assert-euler", "r", "a1", "b1", "f1", "w1", "l1", "+",
          "-", "+1", "#", "x:1") + EXTREMES

# Subcommands by document kind; FILE is the mutant, DIAGRAM and SCRIPT are
# corpus files for the other operand of `apply`.
COMMANDS = {
    "diagram": (["check", "FILE"], ["render", "FILE"], ["homology", "FILE"],
                ["homology", "FILE", "--side", "minus"], ["dualize", "FILE"],
                ["apply", "FILE", "SCRIPT"]),
    "tree": (["check", "FILE"], ["render", "FILE"], ["tree", "FILE"],
             ["tree", "FILE", "--positive"], ["tree", "FILE", "--strict"],
             ["tree", "FILE", "--prune-depth"], ["tree", "FILE", "--cost"],
             ["tree", "FILE", "--truncate", "3"]),
    "middle": (["check", "FILE"], ["render", "FILE"]),
    "ribbon": (["check", "FILE"], ["render", "FILE"],
               ["ribbon", "positivity", "FILE"],
               ["ribbon", "plan", "FILE", "--verify"],
               ["--porcelain", "ribbon", "plan", "FILE", "--verify"]),
    "script": (["check", "FILE"], ["apply", "DIAGRAM", "FILE"],
               ["apply", "DIAGRAM", "FILE", "--trace-invariants"]),
}


def documents(rng):
    """``(kind, text)`` for the corpus (its file suffixes are kinds) and
    for generated values."""
    docs = [(name.rsplit(".", 1)[1], corpus_text(name))
            for name in corpus_names()]
    for _ in range(3):
        docs += [("diagram", serialize_diagram(random_diagram(rng))),
                 ("tree", serialize_tree(random_tree(
                     rng, finite=rng.random() < 0.3))),
                 ("middle", serialize_middle(
                     random_nonpositive_descriptor(rng).middle)),
                 ("ribbon", serialize_ribbon(
                     random_nonpositive_descriptor(rng))),
                 ("script", serialize_script(random_script(rng)))]
    return docs


def mutate(rng, text):
    lines = text.splitlines() or [""]
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(lines))
        op = rng.randrange(6)
        if op == 0 and len(lines) > 1:
            del lines[at]
        elif op == 1:
            lines.insert(at, lines[at])
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[at], lines[j] = lines[j], lines[at]
        else:
            toks = lines[at].split()
            ints = [k for k, tok in enumerate(toks)
                    if tok.lstrip("+-").isdigit()]
            if op == 3 and toks:
                toks[rng.randrange(len(toks))] = rng.choice(TOKENS)
            elif op == 5 and ints:
                toks[rng.choice(ints)] = rng.choice(EXTREMES)
            else:
                toks.insert(rng.randint(0, len(toks)), rng.choice(TOKENS))
            lines[at] = " ".join(toks)
    return "\n".join(lines) + "\n"


def test_mutated_documents_through_every_subcommand(tmp_path):
    rng = random.Random(2026)
    paths = {"DIAGRAM": tmp_path / "x1.diagram",
             "SCRIPT": tmp_path / "swap_to_dots.script",
             "FILE": tmp_path / "mutant"}
    paths["DIAGRAM"].write_text(corpus_text("x1.diagram"))
    paths["SCRIPT"].write_text(corpus_text("swap_to_dots.script"))
    docs = documents(rng)
    codes = set()
    calls = 0
    start = time.perf_counter()
    for k in range(200):
        kind, text = docs[k % len(docs)]
        text = mutate(rng, text)
        paths["FILE"].write_text(text)
        for command in COMMANDS[kind]:
            argv = [str(paths.get(arg, arg)) for arg in command]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            calls += 1
            assert code in (0, 1, 2), (argv, text, err.getvalue())
            assert "verified: false" not in out.getvalue(), text
            assert "verified=false" not in out.getvalue(), text
            codes.add(code)
    elapsed = time.perf_counter() - start
    assert codes == {0, 1, 2} and calls > 600
    assert elapsed < 5.0, f"{calls} calls took {elapsed:.1f}s"
