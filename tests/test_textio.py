"""Text formats: round-trip laws, canonical output and positioned errors."""

import random

import pytest

from ribboncalc import (STANDARD_CAP, AccessoryLoop, Cap, Command, Component,
                        DiagramError, Finger, KirbyDiagram, MiddleError,
                        MiddleLevelData, MoveError, MoveScript, ParseError,
                        RibbonDescriptor, SignedTree, TreeEdge, TreeError,
                        chplus, make_descriptor, parse_diagram, parse_middle,
                        parse_ribbon, parse_script, parse_tree,
                        serialize_diagram, serialize_middle, serialize_ribbon,
                        serialize_script, serialize_tree)
from ribboncalc import textio
from ribboncalc.corpus import corpus_names, corpus_text
from ribboncalc.diagram import COUNTS
from ribboncalc.trees import DEFAULT_PAIR_BUDGET

from genlib import (mutant, oracle_lines, oracle_parse_middle_block,
                    oracle_parse_ribbon, oracle_parse_tree_blocks,
                    random_diagram, random_nonpositive_descriptor,
                    random_script, random_tree)


class TestDiagramRoundTrip:
    def test_random_values(self):
        rng = random.Random(101)
        for _ in range(200):
            d = random_diagram(rng)
            assert parse_diagram(serialize_diagram(d)) == d

    def test_serialization_is_canonical(self):
        text = """
        # comment-only lines and odd spacing are normalized away
        diagram demo
          component   a dotted
        component b framed -2   # trailing comment
        link b a 1 3
        fourhandles 1
        """
        once = serialize_diagram(parse_diagram(text))
        assert serialize_diagram(parse_diagram(once)) == once

    def test_labels_survive(self):
        d = parse_diagram("diagram x\ncomponent a framed 0 label left kink\n")
        assert d.component("a").label == "left kink"
        assert parse_diagram(serialize_diagram(d)) == d

    def test_dual_flag_and_counts_survive(self):
        text = ("diagram x\ndual\ncomponent a parenframed 0\n"
                "component m framed 0\nlink a m 1 1\n"
                "threehandles 2\nhidden1 1\nnote kept\n")
        d = parse_diagram(text)
        assert d.dual_flag and d.three_handles == 2
        assert d.hidden_one_handles == 1 and d.notes == ("kept",)
        assert parse_diagram(serialize_diagram(d)) == d


class TestDiagramErrors:
    def error(self, text):
        with pytest.raises(ParseError) as e:
            parse_diagram(text)
        return e.value

    def test_missing_header(self):
        e = self.error("component a dotted\n")
        assert e.line == 1 and "header" in e.message

    def test_duplicate_component(self):
        e = self.error("diagram x\ncomponent a dotted\n\ncomponent a dotted\n")
        assert e.line == 4 and "duplicate" in e.message

    def test_unknown_kind(self):
        e = self.error("diagram x\ncomponent a wavy\n")
        assert "unknown component kind" in e.message

    def test_link_to_unknown_component(self):
        e = self.error("diagram x\ncomponent a dotted\nlink a b 1 1\n")
        assert e.line == 3 and "unknown component" in e.message

    def test_self_link(self):
        assert "self-link" in self.error(
            "diagram x\ncomponent a framed 0\nlink a a 1 1\n").message

    def test_duplicate_link(self):
        text = ("diagram x\ncomponent a framed 0\ncomponent b framed 0\n"
                "link a b 1 1\nlink b a 1 1\n")
        e = self.error(text)
        assert e.line == 5 and e.message == "repeated link pair (a, b)"

    def test_comment_lines_still_counted(self):
        e = self.error("diagram x\n# filler\n# filler\nbogus keyword\n")
        assert e.line == 4

    def test_long_token_is_cut_in_the_message(self):
        # The 5000 digits pass Python's int-string limit; the message keeps
        # the first 40 and the length.
        e = self.error(f"diagram x\ncomponent a framed {'7' * 5000}\n")
        assert e.line == 2 and len(str(e)) < 120
        assert e.message == (f"malformed framing token {'7' * 40!r}... "
                             "(5000 characters)")

    def test_every_echoed_id_is_cut(self):
        # The values' own constructors and the parser cut a long id in the
        # messages that echo it.
        long = "x" * 5000
        cases = [
            (lambda: SignedTree("t", ("a",), long, ()), TreeError),
            (lambda: Component("a", long, 0), ValueError),
            (lambda: KirbyDiagram("d", (Component(long, "framed", 0),
                                        Component(long, "framed", 1))),
             DiagramError),
            (lambda: parse_tree(f"tree {long}\nnode a\nroot a\n"
                                f"tree {long}\n"), ParseError),
            (lambda: parse_script(f"script s\ntwistblowup + f {long}:1 "
                                  f"{long}:2\n"), ParseError)]
        for build, error in cases:
            with pytest.raises(error) as e:
                build()
            assert "(5000 characters)" in str(e.value)
            assert len(str(e.value)) < 120

    @pytest.mark.parametrize("parse, text", [
        (parse_diagram, "diagram x\n{}\n"),
        (parse_diagram, "diagram x\ncomponent a framed 0 {}\n"),
        (parse_tree, "tree t\nnode r\nroot r\nedge r r {}\n"),
        (parse_tree, "tree t\n{}\n"),
        (parse_middle, "middle\npairs {}\n"),
        (parse_ribbon, "tree t\nnode r\nroot r\nedge r r +\nmiddle\n"
                       "pairs 1\nfinger f1 1 1 w1\ncap w1 tree {}\n"),
        (parse_ribbon, "tree {}\nfinite\nnode r\nroot r\nmiddle\n"
                       "pairs 1\nfinger f1 1 1 w1\ncap w1 tree {}\n"),
        (parse_script, "script s\n{}\n"),
        (parse_script, "script s\nslide a1 b1 {}\n"),
        (parse_script, "script s\ntwistblowup + e {}\n"),
        (parse_script, "script s\nassert-euler {}\n"),
        (textio.parse_any, "{}\n")])
    def test_every_echoed_token_is_cut(self, parse, text):
        messages = []
        for token in ("x", "x" * 5000):
            with pytest.raises(ParseError) as e:
                parse(text.format(token, token))
            messages.append(e.value.message)
        short, long = messages
        assert long == short.replace(repr("x"), f"{'x' * 40!r}... "
                                                "(5000 characters)")
        assert long != short

    def test_malformed_integer(self):
        assert "framing" in self.error(
            "diagram x\ncomponent a framed two\n").message


class TestDiagramRules:
    """``KirbyDiagram`` and ``Component`` judge the rules; the parser puts
    their errors on the line of the entry that breaks one."""

    def error(self, text):
        with pytest.raises(ParseError) as e:
            parse_diagram(text)
        return e.value

    @pytest.mark.parametrize("line, message", [
        ("component a dotted 3", "dotted component a carries a framing"),
        ("component a framed label x", "component a needs a framing"),
        ("component a parenframed", "component a needs a framing"),
        ("component a wavy", "unknown component kind 'wavy'"),
        ("component a wavy x", "malformed framing token 'x'"),
        ("component a framed 0 kink", "unexpected token 'kink'"),
        ("component a", "component needs an id and a kind"),
        ("component a parenframed 2",
         "a is paren-framed but dual_flag is unset")])
    def test_component_rule_on_its_line(self, line, message):
        e = self.error(f"diagram x\ncomponent b framed 1\n\n{line}\n")
        assert (e.line, e.message) == (4, message)

    @pytest.mark.parametrize("links, line, message", [
        ("link a b 1 1\nlink a z 1 1\n", 6,
         "link references unknown component z"),
        ("link z a 1 1\n", 5, "link references unknown component z"),
        ("link b b 0 2\n", 5, "self-linking entry for b"),
        ("link a b 1 1\nlink b a 1 1\n", 6, "repeated link pair (a, b)"),
        ("link b a 0 0\nlink a b 1 1\n", 6, "repeated link pair (a, b)"),
        ("link a b 1 1\nlink a b 0 -2\n", 6, "repeated link pair (a, b)"),
        ("link a b 0 -2\n", 5, "geom[a][b] = -2 is negative"),
        ("link b a 3 1\n", 5, "|alg[a][b]| = 3 exceeds geom = 1"),
        ("link a b -1 0\n", 5, "|alg[a][b]| = 1 exceeds geom = 0"),
        ("link a b 1 2\n", 5, "geom[a][b] = 2 and alg = 1 differ mod 2"),
        ("link a b 0 3\n", 5, "geom[a][b] = 3 and alg = 0 differ mod 2")])
    def test_link_rule_on_its_line(self, links, line, message):
        e = self.error("diagram x\ncomponent a framed 0\n# c\n"
                       "component b dotted\n" + links)
        assert (e.line, e.message) == (line, message)

    def test_dotted_circles_do_not_link_algebraically(self):
        text = ("diagram x\ncomponent a dotted\ncomponent b dotted\n"
                "component c framed 0\nlink a c 1 1\nlink a b {} 2\n")
        assert parse_diagram(text.format(0)).geom("a", "b") == 2
        e = self.error(text.format(-2))
        assert (e.line, e.message) == (6, "dotted circles a, b have alg = -2")

    @pytest.mark.parametrize("kw, field", list(COUNTS.items()))
    def test_negative_count_on_its_line(self, kw, field):
        e = self.error(f"diagram x\ncomponent a framed 0\n{kw} -1\n"
                       "note after\n")
        assert (e.line, e.message) == (3, f"{field} = -1 is negative")

    @pytest.mark.parametrize("kw", list(COUNTS))
    def test_repeated_count_line(self, kw):
        # The last line used to win silently.
        e = self.error(f"diagram x\n{kw} 2\ncomponent a framed 0\n{kw} 3\n")
        assert (e.line, e.message) == (4, f"duplicate {kw} line")
        e = self.error(f"diagram x\n{kw} 0\n{kw} 0\n")
        assert (e.line, e.message) == (3, f"duplicate {kw} line")

    def test_duplicate_component_on_the_later_line(self):
        e = self.error("diagram x\ncomponent a dotted\nlink a b 1 1\n"
                       "component b framed 0\ncomponent a framed 1\n")
        assert (e.line, e.message) == (5, "duplicate component id 'a'")

    def test_rule_error_loses_to_a_later_syntax_error(self):
        e = self.error("diagram x\ncomponent a dotted\ncomponent a dotted\n"
                       "threehandles two\n")
        assert (e.line, e.message) == (4, "malformed count 'two'")

    def test_link_may_precede_its_components(self):
        d = parse_diagram("diagram x\nlink b a 1 1\ncomponent a framed 0\n"
                          "component b dotted\n")
        assert d.links == ((("a", "b"), 1, 1),)
        assert serialize_diagram(d) == ("diagram x\ncomponent a framed 0\n"
                                        "component b dotted\nlink a b 1 1\n")

    def test_zero_link_lines_are_dropped(self):
        d = parse_diagram("diagram x\ncomponent a framed 0\n"
                          "component b framed 0\nlink a b 0 0\n")
        assert d.links == () and "link" not in serialize_diagram(d)


class TestCanonicalLinks:
    """Values built through the API round-trip through text (they did not
    when a (0, 0) entry or an out-of-order entry was kept as given)."""

    def comps(self):
        return (Component("b", "framed", 0), Component("a", "framed", 1),
                Component("c", "dotted"))

    def test_zero_entry_dropped(self):
        d = KirbyDiagram("x", self.comps(), ((("a", "b"), 0, 0),
                                             (("a", "c"), 1, 1)))
        assert d.links == ((("a", "c"), 1, 1),)
        assert parse_diagram(serialize_diagram(d)) == d

    def test_entries_sorted_by_position(self):
        entries = ((("a", "c"), 1, 1), (("b", "c"), 2, 2), (("a", "b"), 1, 3))
        d = KirbyDiagram("x", self.comps(), entries)
        assert d.links == (entries[2], entries[1], entries[0])
        assert parse_diagram(serialize_diagram(d)) == d
        assert d == KirbyDiagram("x", self.comps(), entries[::-1])

    def test_with_links_agrees_with_the_constructor(self):
        d = KirbyDiagram("x", self.comps()).with_links(
            {("c", "a"): (1, 1), ("b", "a"): (0, 0), ("c", "b"): (2, 2)})
        assert d.links == ((("b", "c"), 2, 2), (("a", "c"), 1, 1))

    @pytest.mark.parametrize("links, entry", [
        (((("a", "c"), 1, 1), (("a", "a"), 0, 2)), ("link", 1)),
        (((("a", "z"), 1, 1),), ("link", 0)),
        (((("c", "a"), 1, 1),), ("link", 0)),
        (((("a", "c"), 1, 1), (("b", "c"), 0, 0), (("a", "c"), 0, 0)),
         ("link", 2))])
    def test_errors_name_the_entry(self, links, entry):
        with pytest.raises(DiagramError) as e:
            KirbyDiagram("x", self.comps(), links)
        assert e.value.entry == entry and isinstance(e.value, ValueError)

    def test_duplicate_component_names_the_entry(self):
        with pytest.raises(DiagramError) as e:
            KirbyDiagram("x", self.comps() + (Component("a", "dotted"),))
        assert e.value.entry == ("component", 3)


class TestUnwritableDiagrams:
    """serialize_diagram refuses a value its text would read back changed."""

    def one(self, **kw):
        comp = Component(kw.pop("cid", "a"), "framed", 0, kw.pop("label", None))
        return KirbyDiagram(kw.pop("name", "x"), (comp,), **kw)

    @pytest.mark.parametrize("kw", [
        {"name": "two words"}, {"name": "x#1"}, {"name": ""},
        {"cid": "a b"}, {"cid": "a#"}, {"cid": "a\n"},
        {"label": "left # kink"}, {"label": "left  kink"},
        {"label": " left"}, {"label": "left\tkink"},
        {"notes": ("ok", "# hidden")}, {"notes": ("two  spaces",)},
        {"notes": ("trailing ",)}])
    def test_refused(self, kw):
        with pytest.raises(ValueError):
            serialize_diagram(self.one(**kw))

    @pytest.mark.parametrize("kw", [
        {"label": "left kink"}, {"label": ""}, {"label": "label x"},
        {"notes": ("", "kept as is")}, {"cid": "label"}])
    def test_writable_values_round_trip(self, kw):
        d = self.one(**kw)
        assert parse_diagram(serialize_diagram(d)) == d


    @pytest.mark.parametrize("name, comps, message", [
        ("x", (("a", "bad # label"), ("b c", None)), "label 'bad # label'"),
        ("x", (("a", None), ("b c", "bad # label")), "component id 'b c'"),
        ("x y", (("a b", None),), "diagram name 'x y'"),
        ("x", (("a", "fine"), ("b", None), ("c#", " lead")),
         "component id 'c#'"),
        ("x", (("a", "fine"), ("b", "  two")), "label '  two'")])
    def test_names_the_first_offender(self, name, comps, message):
        # In the order of the text: the name, then the id and the label of
        # each component.
        d = KirbyDiagram(name, tuple(Component(cid, "framed", 0, label)
                                     for cid, label in comps))
        with pytest.raises(ValueError) as e:
            serialize_diagram(d)
        assert str(e.value) == f"{message} cannot be written as text"


class TestUnwritableIds:
    """serialize_tree, serialize_middle, serialize_ribbon and
    serialize_script refuse a name or id that their text would read back
    changed, and name it."""

    @staticmethod
    def refused(serialize, value, message):
        with pytest.raises(ValueError) as e:
            serialize(value)
        assert str(e.value) == f"{message} cannot be written as text"

    @staticmethod
    def tree(name="t", node="a"):
        return SignedTree(name, ("r", node), "r", (TreeEdge("r", node, 1),))

    @pytest.mark.parametrize("kw, message", [
        ({"name": "t#x"}, "tree name 't#x'"),
        ({"name": "t x"}, "tree name 't x'"),
        ({"node": "a b"}, "node id 'a b'"), ({"node": ""}, "node id ''"),
        ({"node": "a\x1c"}, "node id 'a\\x1c'"),
        ({"node": "a\u2028"}, "node id 'a\\u2028'")])
    def test_tree(self, kw, message):
        self.refused(serialize_tree, self.tree(**kw), message)

    @staticmethod
    def middle(fid="f", wid="w", lid="l"):
        return MiddleLevelData(1, (Finger(fid, 1, 1, wid),),
                               (AccessoryLoop(lid, (fid,)),))

    @pytest.mark.parametrize("kw, message", [
        ({"fid": "f 1"}, "finger id 'f 1'"), ({"wid": "w#"}, "whitney id 'w#'"),
        ({"lid": "l\tx"}, "loop id 'l\\tx'"), ({"lid": ""}, "loop id ''")])
    def test_middle(self, kw, message):
        self.refused(serialize_middle, self.middle(**kw), message)

    @pytest.mark.parametrize("tree, m, message", [
        ({"name": "c h"}, {}, "tree name 'c h'"),
        ({"node": "a\x85"}, {}, "node id 'a\\x85'"),
        ({}, {"wid": "w x"}, "whitney id 'w x'")])
    def test_ribbon(self, tree, m, message):
        m = self.middle(**m)
        r = RibbonDescriptor(m, tuple((cid, Cap(self.tree(**tree)))
                                      for cid in m.cap_ids()))
        self.refused(serialize_ribbon, r, message)

    @pytest.mark.parametrize("name, command, message", [
        ("s", Command("blowup", (1, "e x")), "command argument 'e x'"),
        ("s", Command("twistblowup", (-1, "e", (("a b", 1),))),
         "command argument 'a b:1'"),
        ("s", Command("blowdown", ("#e",)), "command argument '#e'"),
        ("s t", Command("dualize"), "script name 's t'")])
    def test_script(self, name, command, message):
        self.refused(serialize_script, MoveScript(name, (command,)), message)

    @pytest.mark.parametrize("cid", ["label", "\u00e9", "\u200b", "a:b"])
    def test_writable_ids_round_trip(self, cid):
        t = self.tree(cid, cid)
        assert parse_tree(serialize_tree(t)) == t
        m = self.middle(cid, cid + "w", cid + "l")
        assert parse_middle(serialize_middle(m)) == m
        r = RibbonDescriptor(m, tuple((k, Cap(chplus(cid)))
                                      for k in m.cap_ids()))
        assert parse_ribbon(serialize_ribbon(r)) == r
        s = MoveScript(cid, (Command("blowup", (1, cid)),))
        assert parse_script(serialize_script(s)) == s


class TestLexerOracle:
    """_lines against genlib's oracle_lines, the lexer that split the whole
    document at once, with pieces cut a few characters long so that every
    line separator and '#' falls at, just before and just after a cut."""

    SEPARATORS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e",
                  "\x85", "\u2028", "\u2029")

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 7])
    def test_separators_around_the_cuts(self, monkeypatch, chunk):
        monkeypatch.setattr(textio, "_CHUNK", chunk)
        for sep in self.SEPARATORS:
            for k in range(2 * chunk + 2):
                for tail in ("", "#", " # c", "x#"):
                    text = ("a" * k + tail + sep + "b c" + sep + sep + tail
                            + "d" + "\n" + "e" * k + sep + "f")
                    assert (list(textio._lines(text))
                            == list(oracle_lines(text))), repr(text)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8])
    def test_random_texts(self, monkeypatch, chunk):
        monkeypatch.setattr(textio, "_CHUNK", chunk)
        rng = random.Random(chunk)
        words = ("a", "bb", " ", "\t", "#", "# c", "x#y", "", "\n")
        for _ in range(300):
            text = "".join(rng.choice(words) + rng.choice(self.SEPARATORS)
                           for _ in range(rng.randint(0, 12)))
            text += rng.choice(("", "z", "\r", "#", "z #"))
            assert list(textio._lines(text)) == list(oracle_lines(text))

    def test_documents_parse_the_same_in_small_pieces(self, monkeypatch):
        texts = [corpus_text(name) for name in corpus_names()]
        values = [textio.parse_any(text) for text in texts]
        monkeypatch.setattr(textio, "_CHUNK", 3)
        assert [textio.parse_any(text) for text in texts] == values


def oracle_parse_any(text):
    """parse_any's rule, read off a list of every line's keyword."""
    keywords = [toks[0] for _, toks in oracle_lines(text)]
    first = keywords[0] if keywords else ""
    if (first == "tree" and "middle" in keywords
            or first == "middle" and "cap" in keywords):
        return "ribbon", parse_ribbon(text)
    if first not in ("diagram", "tree", "middle", "script"):
        raise ParseError(1, f"cannot determine document type from {first!r}")
    return first, PARSERS[first](text)


class TestParseAny:
    """parse_any reads only the first keyword, and past it only tree and
    middle documents, as far as the keyword that makes them a ribbon
    descriptor."""

    @staticmethod
    def outcome(parse, text):
        try:
            return parse(text)
        except ParseError as exc:
            return exc.line, exc.message

    def test_agrees_with_a_whole_keyword_list(self):
        from test_cli_fuzz import documents, mutate
        rng = random.Random(19)
        docs = documents(rng)
        texts = [text for _, text in docs] + [
            "", "# only\n", "cap x\n", "tree t\nnode r # middle\nroot r\n",
            "tree middle\nnode r\nroot r\n", "middle\npairs 1 # cap\n"]
        texts += [mutate(rng, docs[k % len(docs)][1]) for k in range(600)]
        kinds = set()
        for text in texts:
            got = self.outcome(textio.parse_any, text)
            assert got == self.outcome(oracle_parse_any, text), text
            kinds.add(got[0])
        assert {"diagram", "tree", "middle", "ribbon", "script", 1} <= kinds


class TestHeadersAndCounts:
    """The positioned errors of missing, repeated and short lines."""

    @pytest.mark.parametrize("parse, text, line, message", [
        (parse_diagram, "", 1, "missing 'diagram NAME' header"),
        (parse_diagram, "# only a comment\n", 1,
         "missing 'diagram NAME' header"),
        (parse_diagram, "diagram x\n\ndiagram y\n", 3,
         "duplicate diagram header"),
        (parse_diagram, "diagram x y\n", 1, "diagram header needs a name"),
        (parse_diagram, "diagram x\nhidden1\n", 2, "hidden1 needs a count"),
        (parse_tree, "tree t\nnode r\nroot r\ntree t\nnode r\nroot r\n",
         4, "duplicate tree name 't'"),
        (parse_middle, "", 1, "missing 'middle' header"),
        (parse_middle, "pairs 1\n", 1, "expected 'middle' header first"),
        (parse_middle, "middle\npairs 1\nloop l1\n", 3,
         "loop needs an id and at least one finger"),
        (parse_ribbon, "middle\npairs 1\ncap w1\n", 3,
         "cap needs: cap ID standard|tree NAME"),
        (parse_script, "", 1, "missing 'script NAME' header"),
        (parse_script, "script s\nscript t\n", 2, "duplicate script header"),
        (parse_script, "script\n", 1, "script header needs a name")])
    def test_positioned(self, parse, text, line, message):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert (e.value.line, e.value.message) == (line, message)


class TestTreeRoundTrip:
    def test_random_values(self):
        rng = random.Random(103)
        for _ in range(200):
            t = random_tree(rng, finite=rng.random() < 0.3)
            assert parse_tree(serialize_tree(t)) == t

    def test_canonical(self):
        text = "tree t\nnode a b\nroot a\nedge a b +\nedge b a -\n"
        once = serialize_tree(parse_tree(text))
        assert serialize_tree(parse_tree(once)) == once

    def test_multi_node_line(self):
        t = parse_tree("tree t\nnode a b c\nroot a\nedge a b +\nedge a c -\n")
        assert t.nodes == ("a", "b", "c")


TREE_CHP = "tree c\nnode r\nroot r\nedge r r +\n"

# Tokens and lines that mutated tree documents draw from.
TOKENS = ("+", "-", "+1", "-1", "0", "2", "x", "n0", "n1", "tree", "node",
          "edge", "root", "finite", "middle")
LINES = ("finite", "root n0", "node n0", "node n9", "edge n0 n1 +",
         "edge n0 zz -", "edge n1 n0", "tree t", "tree", "bogus", "middle",
         "# comment", "")


class TestMiddleBlockParserOracle:
    """The middle-block parser, with its trusted fingers and its shortcut
    for caps already in canonical order, against a copy of its earlier
    version in genlib: equal values, or the same ParseError line and
    message, on random documents and on mutants of them."""

    @staticmethod
    def outcome(parse, text):
        try:
            return parse(text)
        except ParseError as e:
            return e.line, e.message

    @staticmethod
    def oracle_middle(text):
        m, caps = oracle_parse_middle_block(text, oracle_lines(text), {})
        if caps:
            raise ParseError(1, "cap lines belong to ribbon documents")
        return m

    def test_documents_and_mutants(self):
        rng = random.Random(59)
        values = errors = 0
        for _ in range(250):
            r = random_nonpositive_descriptor(rng)
            for parse, oracle, text in (
                    (parse_ribbon, oracle_parse_ribbon, serialize_ribbon(r)),
                    (parse_middle, self.oracle_middle,
                     serialize_middle(r.middle))):
                for t in [text] + [mutant(rng, text) for _ in range(4)]:
                    got, want = self.outcome(parse, t), self.outcome(oracle, t)
                    assert got == want, t
                    if isinstance(got, tuple):
                        errors += 1
                    else:
                        values += 1
                        # Every parsed finger equals the public one.
                        fingers = (got.middle if parse is parse_ribbon
                                   else got).fingers
                        assert all(f == Finger(f.id, f.from_a, f.through_b,
                                               f.whitney)
                                   and type(f) is Finger for f in fingers)
        assert values > 500 and errors > 500


class TestTreeBlockParserOracle:
    """The tree-block parser against a copy of its earlier version in
    genlib: the same trees, or the same ParseError line and message."""

    @staticmethod
    def outcome(parse, *args):
        try:
            return parse(*args)
        except ParseError as e:
            return e.line, e.message

    def mutate(self, rng, lines):
        for _ in range(rng.randint(0, 3)):
            at = rng.randrange(len(lines) + 1)
            op = rng.randrange(5)
            if op == 0 and at < len(lines):
                del lines[at]
            elif op == 1 and at < len(lines):
                lines.insert(at, lines[at])
            elif op == 2:
                lines.insert(at, rng.choice(LINES))
            elif at < len(lines) and lines[at].split():
                toks = lines[at].split()
                k = rng.randrange(len(toks))
                if op == 3:
                    toks[k] = rng.choice(TOKENS)
                else:
                    del toks[k]
                lines[at] = " ".join(toks)
        return lines

    def test_mutated_documents(self):
        rng = random.Random(109)
        seen = set()
        for _ in range(3000):
            lines = []
            for i in range(rng.randint(1, 3)):
                t = random_tree(rng, max_nodes=6, finite=rng.random() < 0.3)
                text = serialize_tree(t).replace(f"tree {t.name}", f"tree t{i}")
                lines += text.splitlines()
            if rng.random() < 0.3:
                lines += ["middle", "pairs 1"]
            text = "\n".join(self.mutate(rng, lines)) + "\n"
            stop_at = rng.choice((None, "middle"))
            got = self.outcome(textio._parse_tree_blocks, text, stop_at)
            if not isinstance(got[0], int):  # the remainder's lines as text
                got = got[0], [(n, " ".join(toks))
                               for n, toks in got[1] or ()]
            want = self.outcome(oracle_parse_tree_blocks,
                                [(n, " ".join(toks))
                                 for n, toks in textio._lines(text)], stop_at)
            assert got == want, text
            seen.add(got[1] if isinstance(got[0], int) else "ok")
        for stem in ("ok", "duplicate node id", "edge needs", "undeclared node",
                     "header first", "duplicate root", "malformed sign",
                     "has no root", "unreachable", "not declared",
                     "back-edges", "needs a name", "unknown keyword"):
            assert any(stem in message for message in seen), stem


class TestTreeErrors:
    def error(self, text):
        with pytest.raises(ParseError) as e:
            parse_tree(text)
        return e.value

    def test_missing_root(self):
        assert "no root" in self.error("tree t\nnode a\n").message

    def test_duplicate_node(self):
        assert "duplicate node" in self.error(
            "tree t\nnode a a\nroot a\n").message

    def test_undeclared_edge_endpoint(self):
        e = self.error("tree t\nnode a\nroot a\nedge a b +\n")
        assert e.line == 4 and "undeclared" in e.message

    def test_bad_sign(self):
        assert "sign" in self.error(
            "tree t\nnode a\nroot a\nedge a a 2\n").message

    @pytest.mark.parametrize("tok,sign", [("+", 1), ("+1", 1), ("-", -1),
                                          ("-1", -1)])
    def test_every_sign_token(self, tok, sign):
        t = parse_tree(f"tree t\nnode r a\nroot r\nedge r a {tok}\n")
        assert t.edges == (TreeEdge("r", "a", sign),)

    @pytest.mark.parametrize("sign", ["0", "++"])
    def test_malformed_sign_is_positioned(self, sign):
        e = self.error(f"tree t\nnode r a\nroot r\n\nedge r a {sign}\n")
        assert e.line == 5 and e.message == f"malformed sign {sign!r}"

    def test_two_blocks_rejected(self):
        two = "tree t\nnode a\nroot a\ntree u\nnode b\nroot b\n"
        assert "exactly one" in self.error(two).message

    # A rule of validate_tree is a ParseError on the line of its entry,
    # here the root line, or on the header line for a rule of the whole
    # tree.
    TREE_RULES = [
        ("tree t\nnode a b\nroot a\n", "node b unreachable from root"),
        ("tree t\nnode a\nroot b\n", "root 'b' not declared"),
        ("tree t\nfinite\nnode a b\nroot a\nedge a b +\nedge b a +\n",
         "tower contains back-edges")]
    # The entry's line below the header, by message.
    BELOW_HEADER = {"root 'b' not declared": 2}

    @pytest.mark.parametrize("text, message", TREE_RULES)
    def test_tree_rule_is_positioned(self, text, message):
        e = self.error("# a tree\n" + text)
        assert e.line == 2 + self.BELOW_HEADER.get(message, 0)
        assert e.message == f"tree t: {message}"

    @pytest.mark.parametrize("text, message", TREE_RULES)
    def test_tree_rule_in_a_ribbon_document(self, text, message):
        doc = (TREE_CHP + text.replace("tree t", "tree u")
               + "middle\npairs 1\nfinger f1 1 1 w1\ncap w1 tree c\n")
        with pytest.raises(ParseError) as e:
            parse_ribbon(doc)
        assert e.value.line == 5 + self.BELOW_HEADER.get(message, 0)
        assert e.value.message == f"tree u: {message}"


def _tree_lines(rng, name, finite, nodes, root, edges):
    """A tree block's lines, its ids grouped on random node lines that come
    before or after the edges, and the 0-based index among them of each
    id, edge and root line: ``(lines, id_at, edge_at, root_at)``."""
    groups, k = [], 0
    while k < len(nodes):
        size = rng.randint(1, 3)
        groups.append("node " + " ".join(nodes[k:k + size]))
        k += size
    body = [f"root {root}"] + [f"edge {a} {b} {'+' if s == 1 else '-'}"
                               for a, b, s in edges]
    body = groups + body if rng.random() < 0.5 else body + groups
    lines = [f"tree {name}"] + ["finite"] * finite + body
    id_at = [i for i, x in enumerate(lines) if x.startswith("node ")
             for _ in x.split()[1:]]
    edge_at = [i for i, x in enumerate(lines) if x.startswith("edge ")]
    return lines, id_at, edge_at, lines.index(f"root {root}")


def _broken_trees(rng, t):
    """Single-rule breaks of ``t``: ``(kind, nodes, root, edges)``."""
    nodes, edges = list(t.nodes), [tuple(e) for e in t.edges]
    k = rng.randrange(len(nodes))
    yield ("repeated id", _insert(tuple(nodes), rng.randint(k + 1, len(nodes)),
                                  nodes[k]), t.root, edges)
    yield "undeclared root", nodes, "zz", edges
    if edges:
        k = rng.randrange(len(edges))
        a, b, sign = edges[k]
        bad = ("zz", b, sign) if rng.random() < 0.5 else (a, "zz", sign)
        yield ("undeclared endpoint", nodes, t.root,
               edges[:k] + [bad] + edges[k + 1:])
    new = [f"u{i}" for i in range(rng.randint(1, 2))]
    into = [(u, rng.choice(nodes), 1) for u in new if rng.random() < 0.5]
    at = rng.randint(0, len(nodes))
    yield ("unreachable node",
           _insert(tuple(nodes), at, new[0]) + tuple(new[1:]), t.root,
           edges + into)
    if t.finite:
        extra = (rng.choice(nodes), rng.choice(nodes), rng.choice((1, -1)))
        yield ("back-edge", nodes, t.root,
               _insert(tuple(edges), rng.randint(0, len(edges)), extra))


class TestTreeRuleMessages:
    """A broken tree rule reads the same from the parser as from the
    constructor, and the parser puts it on the line of the entry the
    constructor names: the header for a rule of the whole tree."""

    ENTRY_KINDS = {"repeated id": "node", "undeclared root": "root",
                   "undeclared endpoint": "edge", "unreachable node": None,
                   "back-edge": None}

    def test_seeded_mutants(self):
        rng = random.Random(127)
        seen: dict[str, int] = {}
        for _ in range(150):
            t = random_tree(rng, max_nodes=8, finite=rng.random() < 0.5)
            for kind, nodes, root, edges in _broken_trees(rng, t):
                with pytest.raises(TreeError) as built:
                    SignedTree("u", tuple(nodes), root,
                               tuple(TreeEdge(*e) for e in edges), t.finite)
                entry = built.value.entry
                assert (entry and entry[0]) == self.ENTRY_KINDS[kind], kind
                lines, id_at, edge_at, root_at = _tree_lines(
                    rng, "u", t.finite, list(nodes), root, edges)
                # After a valid block, in a ribbon document, or alone.
                before = (TREE_CHP.splitlines() if rng.random() < 0.5
                          else ["# a tree"] * rng.randint(0, 2))
                text = "\n".join(before + lines) + "\n"
                at = {None: 0, "node": id_at, "edge": edge_at,
                      "root": [root_at]}
                line = 1 + len(before) + (
                    at[entry[0]][entry[1]] if entry else 0)
                with pytest.raises(ParseError) as parsed:
                    if before and before[0] == "tree c":
                        parse_ribbon(text + "middle\npairs 1\n"
                                     "finger f1 1 1 w1\ncap w1 tree c\n")
                    else:
                        parse_tree(text)
                assert parsed.value.message == str(built.value), (kind, text)
                assert parsed.value.line == line, (kind, text)
                seen[kind] = seen.get(kind, 0) + 1
        assert len(seen) == 5 and min(seen.values()) >= 30, seen

    def test_node_line_may_follow_the_edges_that_use_it(self):
        later = parse_tree("tree t\nroot r\nedge r a +\nedge a r -\n"
                           "node a\nnode r\n")
        assert later == parse_tree("tree t\nnode a r\nroot r\n"
                                   "edge r a +\nedge a r -\n")

    def test_rule_error_loses_to_a_later_syntax_error(self):
        with pytest.raises(ParseError) as e:
            parse_tree("tree t\nnode r r\nroot r\nedge r r 2\n")
        assert (e.value.line, e.value.message) == (4, "malformed sign '2'")


class TestMiddleAndRibbon:
    def test_middle_round_trip(self):
        rng = random.Random(107)
        for _ in range(200):
            m = random_nonpositive_descriptor(rng).middle
            assert parse_middle(serialize_middle(m)) == m

    def test_ribbon_round_trip(self):
        rng = random.Random(109)
        for _ in range(200):
            r = random_nonpositive_descriptor(rng)
            assert parse_ribbon(serialize_ribbon(r)) == r

    def test_distinct_trees_sharing_a_name_are_not_serialized(self):
        m = MiddleLevelData(2, (Finger("f1", 1, 2, "w1"),
                                Finger("f2", 2, 1, "w2")))
        plus = parse_tree("tree t\nnode r\nroot r\nedge r r +\n")
        minus = parse_tree("tree t\nnode r\nroot r\nedge r r -\n")
        r = make_descriptor(m, {"w1": Cap(plus), "w2": Cap(minus)})
        with pytest.raises(ValueError, match="distinct trees share the name t"):
            serialize_ribbon(r)

    def test_equal_trees_of_one_name_are_written_once(self):
        # Two objects, one tree: compared field by field, and accepted.
        m = MiddleLevelData(2, (Finger("f1", 1, 2, "w1"),
                                Finger("f2", 2, 1, "w2")))
        text = "tree t\nnode r\nroot r\nedge r r +\n"
        first, second = parse_tree(text), parse_tree(text)
        assert first is not second
        r = make_descriptor(m, {"w1": Cap(first), "w2": Cap(second)})
        out = serialize_ribbon(r)
        assert out.splitlines().count("tree t") == 1
        assert parse_ribbon(out) == r

    def test_cap_lines_rejected_in_plain_middle(self):
        with pytest.raises(ParseError, match="ribbon documents"):
            parse_middle("middle\npairs 1\ncap w1 standard\n")

    def test_missing_pairs(self):
        with pytest.raises(ParseError, match="pairs"):
            parse_middle("middle\n")

    def test_pair_budget(self):
        at = f"middle\npairs {DEFAULT_PAIR_BUDGET}\nfinger f1 1 2 w1\n"
        assert parse_middle(at).pairs == DEFAULT_PAIR_BUDGET
        over = at.replace(str(DEFAULT_PAIR_BUDGET),
                          str(DEFAULT_PAIR_BUDGET + 1))
        for parse, text in ((parse_middle, over),
                            (parse_ribbon, "# r\n" + over
                             + "cap w1 standard\n")):
            with pytest.raises(ParseError) as e:
                parse(text)
            assert e.value.line == 2 + (parse is parse_ribbon)
            assert e.value.message == (
                f"pair count {DEFAULT_PAIR_BUDGET + 1} exceeds the pair "
                f"budget {DEFAULT_PAIR_BUDGET}")

    def test_ribbon_needs_middle_block(self):
        with pytest.raises(ParseError, match="middle"):
            parse_ribbon("tree t\nnode a\nroot a\nedge a a +\n")

    def test_ribbon_missing_cap(self):
        text = "middle\npairs 2\nfinger f1 1 2 w1\n"
        with pytest.raises(ParseError, match="missing caps"):
            parse_ribbon(text)

    def test_ribbon_extra_cap(self):
        text = "middle\npairs 2\ncap zz standard\n"
        with pytest.raises(ParseError, match="unknown ids"):
            parse_ribbon(text)

    def test_cap_referencing_unknown_tree(self):
        text = ("middle\npairs 2\nfinger f1 1 2 w1\n"
                "cap w1 tree ghost\n")
        with pytest.raises(ParseError, match="unknown tree"):
            parse_ribbon(text)

    def test_duplicate_finger_id(self):
        with pytest.raises(ParseError, match="duplicate finger"):
            parse_middle("middle\npairs 2\nfinger f1 1 2 w1\nfinger f1 2 1 w2\n")

    def test_shared_whitney_id(self):
        text = ("middle\npairs 2\nfinger f1 1 2 w\nfinger f2 1 2 w\n"
                "loop l1 f1\nloop l2 f2\n"
                "cap w standard\ncap l1 standard\ncap l2 standard\n")
        with pytest.raises(ParseError) as e:
            parse_ribbon(text)
        assert e.value.line == 4
        assert "duplicate whitney id w" in e.value.message
        assert "f1" in e.value.message

    @pytest.mark.parametrize("order, line", [
        (["finger f1 1 2 w1", "finger f2 1 2 l1", "loop l1 f1"], 5),
        (["loop l1 f1", "finger f2 1 2 l1", "finger f1 1 2 w1"], 3)])
    def test_loop_id_equal_to_a_whitney_id(self, order, line):
        # Loop l1 and finger f2's whitney circle would share one cap.
        text = ("middle\npairs 2\n" + "\n".join(order)
                + "\ncap w1 standard\ncap l1 standard\n")
        with pytest.raises(ParseError) as e:
            parse_ribbon(text)
        assert e.value.line == line
        assert e.value.message == "loop id l1 is the whitney id of finger f2"

    @pytest.mark.parametrize("line", [
        "finger f1 3 1 w1", "finger f1 1 3 w1", "finger f1 0 1 w1",
        "finger f1 -1 2 w1"])
    def test_sphere_outside_pairs(self, line):
        text = f"middle\npairs 2\nfinger f0 1 2 w0\n{line}\n"
        with pytest.raises(ParseError) as e:
            parse_middle(text)
        assert e.value.line == 4
        assert "finger f1 references sphere outside 1..2" in e.value.message

    def test_sphere_checked_against_a_later_pairs_line(self):
        with pytest.raises(ParseError) as e:
            parse_middle("middle\nfinger f1 1 3 w1\npairs 2\n")
        assert e.value.line == 2 and "outside 1..2" in e.value.message
        m = parse_middle("middle\nfinger f1 1 2 w1\npairs 2\n")
        assert m.fingers[0].through_b == 2

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_nonpositive_pair_count(self, count):
        with pytest.raises(ParseError) as e:
            parse_middle(f"middle\npairs {count}\n")
        assert e.value.line == 2
        assert f"pair count {count} must be positive" in e.value.message

    @pytest.mark.parametrize("text, line", [
        ("middle\npairs 1\nfinger f1 1 1 w1\nloop l1 fX\n", 4),
        # the finger lines may come later, as the pairs line may
        ("middle\npairs 1\nloop l1 f1 fX\nfinger f1 1 1 w1\n", 3)])
    def test_loop_naming_an_undeclared_finger(self, text, line):
        for parse, tail in ((parse_middle, ""),
                            (parse_ribbon, "cap w1 standard\n"
                                           "cap l1 standard\n")):
            with pytest.raises(ParseError) as e:
                parse(text + tail)
            assert e.value.line == line
            assert "loop l1 references undeclared finger fX" in e.value.message

    def test_cap_on_a_finite_tower(self):
        text = ("tree t\nfinite\nnode r s\nroot r\nedge r s +\n"
                "middle\npairs 1\nfinger f1 1 1 w1\nloop l1 f1\n"
                "cap l1 standard\ncap w1 tree t\n")
        with pytest.raises(ParseError) as e:
            parse_ribbon(text)
        assert e.value.line == 11 and "finite tower" in e.value.message
        # a finite tree block that no cap names is not an error
        unused = text.replace("cap w1 tree t", "cap w1 standard")
        assert parse_ribbon(unused).cap("w1").standard

    def test_caps_naming_one_tree_share_a_cap(self):
        text = ("tree t\nnode a\nroot a\nedge a a +\n"
                "middle\npairs 2\nfinger f1 1 2 w1\nfinger f2 2 1 w2\n"
                "loop l1 f1 f2\n"
                "cap w1 tree t\ncap w2 tree t\ncap l1 standard\n")
        r = parse_ribbon(text)
        assert r.cap("w1") is r.cap("w2")
        apart = make_descriptor(r.middle, {"w1": Cap(r.cap("w1").tree),
                                           "w2": Cap(r.cap("w2").tree),
                                           "l1": STANDARD_CAP})
        assert apart == r
        assert serialize_ribbon(apart) == serialize_ribbon(r)
        assert parse_ribbon(serialize_ribbon(r)) == r


def _insert(items, k, item):
    return items[:k] + (item,) + items[k:]


def _mutants(rng, r):
    """Five single-rule breaks of ``r``'s text: ``(kind, text, line, build)``
    with the 1-based line of the broken entry and a thunk that builds the
    same broken value directly."""
    m, caps = r.middle, r.caps
    fingers, loops = m.fingers, m.accessory_loops
    lines = serialize_ribbon(r).splitlines()

    def index(prefix):
        return next(i for i, x in enumerate(lines) if x.startswith(prefix))

    def text(i, line, insert=False):
        """The document with ``line`` after line i, or in its place."""
        return "\n".join(lines[:i + insert] + [line] + lines[i + 1:]) + "\n"

    def middle(fs, ls):
        return lambda: MiddleLevelData(m.pairs, fs, ls)

    if fingers:
        k = rng.randrange(len(fingers))
        f = fingers[k]
        i = index(f"finger {f.id} ")
        yield ("finger line repeated", text(i, lines[i], insert=True), i + 2,
               middle(_insert(fingers, k + 1, f), loops))
        a, b = ((m.pairs + 1, f.through_b) if rng.random() < 0.5
                else (f.from_a, m.pairs + 1))
        bad = Finger(f.id, a, b, f.whitney)
        yield ("sphere past pairs",
               text(i, f"finger {f.id} {a} {b} {f.whitney}"), i + 1,
               middle(fingers[:k] + (bad,) + fingers[k + 1:], loops))
    if loops:
        k = rng.randrange(len(loops))
        l = loops[k]
        i = index(f"loop {l.id} ")
        for kind, new in (
                ("loop named like a whitney circle",
                 AccessoryLoop(rng.choice(fingers).whitney, l.fingers)),
                ("loop over an undeclared finger",
                 AccessoryLoop(l.id, _insert(l.fingers,
                                             rng.randint(0, len(l.fingers)),
                                             "fX")))):
            yield (kind, text(i, f"loop {new.id} " + " ".join(new.fingers)),
                   i + 1, middle(fingers, loops[:k] + (new,) + loops[k + 1:]))
    if caps:
        j = rng.randrange(len(caps))
        i = index(f"cap {caps[j][0]} ")
        yield ("cap line repeated", text(i, lines[i], insert=True), i + 2,
               lambda: RibbonDescriptor(m, _insert(caps, j + 1, caps[j])))


class TestMiddleRuleMessages:
    """A broken middle rule reads the same from the parser as from the
    constructor, and the parser puts it on the line that breaks it."""

    def test_seeded_mutants(self):
        rng = random.Random(113)
        seen: dict[str, int] = {}
        for _ in range(150):
            r = random_nonpositive_descriptor(rng)
            for kind, text, line, build in _mutants(rng, r):
                with pytest.raises(MiddleError) as built:
                    build()
                with pytest.raises(ParseError) as parsed:
                    parse_ribbon(text)
                assert parsed.value.line == line, (kind, text)
                assert parsed.value.message == str(built.value), (kind, text)
                seen[kind] = seen.get(kind, 0) + 1
        assert len(seen) == 5 and min(seen.values()) >= 30, seen

    def test_repeated_cap_line(self):
        text = ("middle\npairs 1\nfinger f1 1 1 w1\n"
                "cap w1 standard\ncap w1 standard\n")
        with pytest.raises(ParseError) as e:
            parse_ribbon(text)
        assert e.value.line == 5
        assert e.value.message == "duplicate cap for w1"


class TestScriptRoundTrip:
    def test_random_values(self):
        rng = random.Random(113)
        for _ in range(200):
            s = random_script(rng)
            assert parse_script(serialize_script(s)) == s

    def test_canonical(self):
        text = ("script demo\n"
                "slide a b +1\n"          # +1 normalizes to +
                "twistblowup - e a:2 b:-1\n"
                "assert-homology plus 2 2 4\n")
        once = serialize_script(parse_script(text))
        assert serialize_script(parse_script(once)) == once

    def test_every_command_form(self):
        s = MoveScript("all", (
            Command("slide", ("a", "b", -1)),
            Command("blowup", (1, "e")),
            Command("twistblowup", (1, "e2", (("a", 2), ("b", -1)))),
            Command("blowdown", ("e",)),
            Command("swap", ("a",)),
            Command("addpair", ("12", "d", "h")),
            Command("addpair", ("23", "h")),
            Command("cancel", ("d", "h")),
            Command("cancel", (None, "h")),
            Command("dualize"),
            Command("assert-homology", ("minus", 1, (2,))),
            Command("assert-euler", (2,)),
            Command("assert-signature", (-1,)),
            Command("assert-geom", ("a", "b", 0)),
            Command("assert-count", ("hidden1", 2)),
            Command("assert-kind", ("a", "parenframed")),
        ))
        assert parse_script(serialize_script(s)) == s
        assert serialize_script(s).endswith(
            "\nassert-count hidden1 2\nassert-kind a parenframed\n")


    def test_strand_named_twice_is_not_serialized(self):
        # The parser refuses `a:1 a:2`, so the serializer may not write it.
        s = MoveScript("s", (
            Command("twistblowup", (1, "e", (("a", 1), ("a", 2)))),))
        with pytest.raises(MoveError, match="twistblowup needs: "):
            serialize_script(s)


class TestScriptErrors:
    def error(self, text):
        with pytest.raises(ParseError) as e:
            parse_script(text)
        return e.value

    def test_missing_header(self):
        assert self.error("slide a b +\n").line == 1

    def test_unknown_command(self):
        e = self.error("script s\n\nwiggle a\n")
        assert e.line == 3 and "unknown command" in e.message

    def test_bad_strand_token(self):
        assert "strand token" in self.error(
            "script s\ntwistblowup + e a2\n").message

    def test_bad_homology_side(self):
        assert "plus|minus" in self.error(
            "script s\nassert-homology sideways 2\n").message

    def test_bad_addpair(self):
        assert "addpair" in self.error("script s\naddpair 13 a b\n").message

    def test_strand_named_twice(self):
        e = self.error("script s\nblowup + e\ntwistblowup + f a:1 a:2\n")
        assert e.line == 3 and "strand 'a' named twice" in e.message

    @pytest.mark.parametrize("line", [
        "slide a b", "slide a b + c", "blowdown", "swap a b", "addpair 12 a",
        "addpair 23 a b", "cancel", "cancel a b c", "dualize now",
        "twistblowup + e", "assert-homology plus", "assert-euler",
        "assert-signature 1 2", "assert-geom a b", "assert-count hidden1",
        "assert-count twohandles 1", "assert-kind a", "assert-kind a wavy",
        "assert-kind a dotted x"])
    def test_wrong_token_count_names_the_usage(self, line):
        e = self.error(f"script s\n\n{line}\n")
        assert e.line == 3 and e.message.startswith(f"{line.split()[0]} needs: ")


# One document of each kind, in canonical form.
CANONICAL = {
    "diagram": corpus_text("x1.diagram"),
    "tree": "tree t\nnode r a\nroot r\nedge r a +\nedge a r -\nedge a a +\n",
    "middle": "middle\npairs 2\nfinger f1 1 2 w1\nfinger f2 2 1 w2\n"
              "loop l1 f1 f2\n",
    "ribbon": corpus_text("r1.ribbon"),
    "script": corpus_text("swap_to_dots.script"),
}
PARSERS = {"diagram": parse_diagram, "tree": parse_tree,
           "middle": parse_middle, "ribbon": parse_ribbon,
           "script": parse_script}


def _noisy(text):
    """``text`` with the same tokens on other lines: blank, tab-only and
    comment-only lines in between, tab separators, trailing comments and
    '#' glued to the last token."""
    out = []
    for k, line in enumerate(line for line in text.splitlines()
                             if line.split("#", 1)[0].strip()):
        out += ["", "\t", "   # a comment-only line"][k % 3:]
        line = line.split("#", 1)[0].rstrip()
        out.append((line.replace(" ", "\t"), line + "#x",
                    " " + line + "  # trailing")[k % 3])
    return "\n".join(out) + "\n"


class TestLexer:
    """Comments, blank lines and whitespace in every document kind."""

    @pytest.mark.parametrize("kind", sorted(PARSERS))
    def test_noise_changes_nothing(self, kind):
        text = CANONICAL[kind]
        noisy = _noisy(text)
        assert noisy.count("\t") and noisy.count("#x") and noisy != text
        assert PARSERS[kind](noisy) == PARSERS[kind](text)
        assert textio.parse_any(noisy) == textio.parse_any(text) == (
            kind, PARSERS[kind](text))

    def test_lines_yield_tokens(self):
        text = "a b\n\n  # c\nc\t d #e\n#\ne#f g\n"
        assert list(textio._lines(text)) == [
            (1, ["a", "b"]), (4, ["c", "d"]), (6, ["e"])]
        assert list(textio._lines("a\tb\n\nc")) == [(1, ["a", "b"]),
                                                     (3, ["c"])]

    @pytest.mark.parametrize("kind,text,line,stem", [
        ("diagram", "diagram x\n\n# c\ncomponent a dotted\n\t\nbogus k\n",
         6, "unknown keyword"),
        ("tree", "tree t\n# c\n\nnode\tr\nroot r # root\nedge r r 5#x\n",
         6, "malformed sign"),
        ("tree", "tree t\n\n# c\nnode r\n# c\n\n", 1, "has no root"),
        ("middle", "middle\n\n#c\npairs\t2\n# c\nfinger f1 1 3 w1 # far\n",
         6, "sphere"),
        ("ribbon", "# r\n\ntree c\nnode r\nroot r\nedge r r +\n\nmiddle\n"
                   "pairs 1 # one\n\tfinger f1 1 1 w1\n# c\ncap w1 tree d\n",
         12, "unknown tree"),
        ("ribbon", "tree c\nnode r\nroot r\nedge r r +\nmiddle\n#c\n\n"
                   "pairs 1\nfinger f1 1 1 w1\nfinger f2 1 1 w2\n# c\n"
                   "cap w1 standard\ncap w2 standard\n\ncap w1 standard\n",
         15, "cap"),
        ("script", "script s\n\n# c\n\twiggle a\n", 4, "unknown command"),
    ])
    def test_error_lines_count_every_line(self, kind, text, line, stem):
        for parse in (PARSERS[kind], textio.parse_any):
            with pytest.raises(ParseError) as e:
                parse(text)
            assert e.value.line == line and stem in e.value.message, e.value
