import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import llull.ballots
from llull import (
    BadRepresentativeError,
    Ballot,
    BallotSet,
    BallotSyntaxError,
    EmptyProfileError,
    LlullError,
    NotAutonomousError,
    OptionSet,
    TiePolicy,
    UnknownOptionError,
    WeightOverflowError,
    aggregate,
    contract,
    is_autonomous,
    parse_ballots,
    restrict_ballots,
)
from llull.ballots import MAX_VOTERS
from conftest import (
    in_declaration_order,
    oracle_aggregate,
    oracle_contract,
    oracle_is_autonomous,
    oracle_parse_ballots,
    oracle_restrict_ballots,
    planted_autonomous_profile,
    random_profile,
)

DOC = """\
# demo profile
options: a, b, c
2: a>b>c
1: b=c>a
1: b        # truncated
"""


class TestParser:
    def test_document_roundtrip(self):
        profile = parse_ballots(DOC)
        assert profile.option_set.labels == ("a", "b", "c")
        assert profile.voters == 4
        assert profile.ballots[0] == Ballot((("a",), ("b",), ("c",)), 2)
        assert profile.ballots[1] == Ballot((("b", "c"), ("a",)), 1)
        assert profile.ballots[2] == Ballot((("b",),), 1)

    def test_header_whitespace_is_flexible(self):
        profile = parse_ballots("options:  a ,b,  c\n1: a\n")
        assert profile.option_set.labels == ("a", "b", "c")

    def test_header_accepts_space_separated_labels(self):
        profile = parse_ballots("options: a b c\n2: a>b>c\n1: b\n")
        assert profile.option_set.labels == ("a", "b", "c")
        assert profile.voters == 3
        assert len(profile.ballots) == 2

    def test_space_separated_header_still_checks_labels(self):
        with pytest.raises(BallotSyntaxError):
            parse_ballots("options: a a\n1: a\n")
        with pytest.raises(BallotSyntaxError):
            parse_ballots("options: a=b c\n1: c\n")

    def test_missing_header(self):
        with pytest.raises(BallotSyntaxError):
            parse_ballots("1: a>b\n")

    def test_no_ballots(self):
        with pytest.raises(EmptyProfileError):
            parse_ballots("options: a, b\n# nothing else\n")

    def test_empty_document(self):
        with pytest.raises(EmptyProfileError):
            parse_ballots("")

    def test_unknown_option_carries_line(self):
        with pytest.raises(UnknownOptionError) as exc:
            parse_ballots("options: a, b\n1: a>z\n")
        assert exc.value.line == 2

    def test_syntax_errors_carry_position(self):
        with pytest.raises(BallotSyntaxError) as exc:
            parse_ballots("options: a, b\n1: a>>b\n")
        assert exc.value.line == 2
        assert exc.value.column == 6

    def test_bad_weight(self):
        for line in ("x: a", "0: a", "-1: a", "a>b"):
            with pytest.raises(BallotSyntaxError):
                parse_ballots(f"options: a, b\n{line}\n")

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0661", "\uff11"])
    def test_non_ascii_digit_weight(self, digit):
        # str.isdigit accepts all three; int() refuses the first and reads the others.
        with pytest.raises(BallotSyntaxError) as exc:
            parse_ballots(f"options: a, b\n  {digit}: a>b\n")
        assert str(exc.value) == "line 2, column 3: weight must be a positive integer"

    @pytest.mark.parametrize(
        "separator", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_only_newlines_end_a_line(self, separator):
        with pytest.raises(UnknownOptionError) as exc:
            parse_ballots(f"options: a b\n{separator}\n1: z\n")
        assert exc.value.line == 3
        profile = parse_ballots(f"options: a b\n1: a # x{separator}y > b\n")
        assert list(profile.ballots) == [Ballot((("a",),), 1)]

    def test_crlf_and_cr_end_lines(self):
        with pytest.raises(UnknownOptionError) as exc:
            parse_ballots("options: a b\r\n1: a\r\r\n2: z\n")
        assert exc.value.line == 4

    def test_duplicate_rank(self):
        with pytest.raises(BallotSyntaxError):
            parse_ballots("options: a, b\n1: a>b>a\n")

    def test_duplicate_header_label(self):
        with pytest.raises(BallotSyntaxError):
            parse_ballots("options: a, b, a\n1: a\n")

    def test_reserved_characters_rejected(self):
        with pytest.raises(BallotSyntaxError):
            parse_ballots("options: a>b, c\n1: c\n")
        with pytest.raises(BallotSyntaxError):
            parse_ballots("options: a:b, c\n1: c\n")

    def test_label_with_inner_whitespace_rejected(self):
        with pytest.raises(BallotSyntaxError):
            parse_ballots("options: a b, c\n1: c\n")

    def test_empty_header(self):
        with pytest.raises(BallotSyntaxError):
            parse_ballots("options:\n1: a\n")


class TestBallotObjects:
    def test_ranks(self):
        assert Ballot((("b", "c"), ("a",)), 1).ranks() == {"b": 0, "c": 0, "a": 1}

    def test_validation(self):
        with pytest.raises(ValueError):
            Ballot((), 1)
        with pytest.raises(ValueError):
            Ballot(((),), 1)
        with pytest.raises(ValueError):
            Ballot((("a",), ("a",)), 1)
        with pytest.raises(ValueError):
            Ballot((("a",),), 0)

    def test_ballot_set_validation(self):
        opts = OptionSet(("a", "b"))
        with pytest.raises(EmptyProfileError):
            BallotSet(opts, ())
        with pytest.raises(UnknownOptionError):
            BallotSet(opts, (Ballot((("z",),), 1),))

    def test_columns(self):
        profile = parse_ballots(DOC)
        assert profile.ranks.dtype == np.uint8
        assert profile.ranks.tolist() == [[0, 1, 2], [1, 0, 0], [3, 0, 3]]
        assert profile.weights.dtype == np.int64
        assert profile.weights.tolist() == [2, 1, 1]
        assert not profile.ranks.flags.writeable and not profile.weights.flags.writeable
        rebuilt = BallotSet(profile.option_set, profile.ballots)
        assert rebuilt.ranks.tolist() == profile.ranks.tolist()

    def test_tied_labels_come_back_in_declaration_order(self):
        profile = parse_ballots("options: a, b, c\n1: c = a > b\n")
        assert profile.ballots[0] == Ballot((("a", "c"), ("b",)), 1)
        built = BallotSet(profile.option_set, [Ballot((("c", "b"),), 2)])
        assert built.ballots[-1] == Ballot((("b", "c"),), 2)
        assert built.ballots[:] == (Ballot((("b", "c"),), 2),)

    def test_len_of_ballots_builds_no_ballot(self, monkeypatch):
        profile = parse_ballots(DOC)

        def refuse(*args, **kwargs):
            raise AssertionError("len() built a Ballot")

        monkeypatch.setattr(llull.ballots, "Ballot", refuse)
        assert len(profile.ballots) == 3


class TestWeightOverflow:
    """The int64 columns and counts hold at most MAX_VOTERS voters."""

    def test_single_weight_past_int64(self):
        with pytest.raises(WeightOverflowError) as exc:
            parse_ballots("options: a b c\n9223372036854775808: a > b > c\n1: b > a\n")
        assert exc.value.line == 2

    def test_weight_sum_past_the_bound(self):
        with pytest.raises(WeightOverflowError) as exc:
            parse_ballots("options: a b c\n" + "2305843009213693952: a > b > c\n" * 4)
        assert exc.value.line == 3
        assert str(exc.value).startswith("line 3: ")
        assert parse_ballots(f"options: a b\n{MAX_VOTERS}: a\n").voters == MAX_VOTERS
        with pytest.raises(WeightOverflowError) as exc:
            parse_ballots(f"options: a b\n{MAX_VOTERS}: a\n1: b\n")
        assert exc.value.line == 3

    def test_weight_with_thousands_of_digits(self):
        with pytest.raises(WeightOverflowError) as exc:
            parse_ballots("options: a b\n" + "7" * 5000 + ": a\n")
        assert exc.value.line == 2

    def test_leading_zeros_are_not_digits(self):
        profile = parse_ballots("options: a b\n" + "0" * 30 + "3: a\n")
        assert profile.voters == 3

    def test_ballot_objects_past_the_bound(self):
        opts = OptionSet(("a", "b"))
        with pytest.raises(WeightOverflowError):
            BallotSet(opts, [Ballot((("a",),), MAX_VOTERS), Ballot((("b",),), 1)])

    def test_weights_at_the_bound_count_exactly(self):
        opts = OptionSet(("a", "b", "c"))
        third = MAX_VOTERS // 3
        ballots = [
            Ballot((("a",), ("b", "c")), third),
            Ballot((("c",),), third),
            Ballot((("b", "a"),), MAX_VOTERS - 2 * third),
        ]
        profile = BallotSet(opts, ballots)
        assert profile.voters == MAX_VOTERS
        for ties in TiePolicy:
            got = aggregate(profile, ties).scores
            assert got.tobytes() == oracle_aggregate(opts, ballots, ties).tobytes()


class TestAggregation:
    def test_documented_tally(self):
        M = aggregate(parse_ballots(DOC))
        assert M.entry("a", "b") == 0.5
        assert M.entry("b", "a") == 0.5
        assert M.entry("a", "c") == 0.5
        assert M.entry("c", "a") == 0.25
        assert M.entry("b", "c") == pytest.approx(0.875)
        assert M.entry("c", "b") == pytest.approx(0.125)

    def test_ranked_beats_unranked(self):
        M = aggregate(parse_ballots("options: a, b\n1: a\n"))
        assert M.entry("a", "b") == 1.0
        assert M.entry("b", "a") == 0.0

    def test_tie_policies(self):
        text = "options: a, b\n1: a=b\n"
        half = aggregate(parse_ballots(text), TiePolicy.HALF)
        assert half.entry("a", "b") == 0.5
        assert half.entry("b", "a") == 0.5
        abstain = aggregate(parse_ballots(text), TiePolicy.ABSTAIN)
        assert abstain.entry("a", "b") == 0.0
        assert abstain.entry("b", "a") == 0.0

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_counts_are_exact_multiples(self, seed):
        rng = np.random.default_rng(seed)
        profile = random_profile(rng, int(rng.integers(2, 7)))
        M = aggregate(profile)
        units = np.round(M.scores * (2 * profile.voters))
        assert (units / (2 * profile.voters) == M.scores).all()
        assert (M.scores + M.scores.T <= 1.0).all()

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_complete_profiles_have_full_turnout(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        profile = random_profile(rng, n, truncate_prob=0.0)
        M = aggregate(profile)
        t = M.scores + M.scores.T
        off = ~np.eye(n, dtype=bool)
        assert (t[off] == 1.0).all()


class TestAutonomyAndContraction:
    def test_planted_sets_are_autonomous(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            profile, members = planted_autonomous_profile(rng)
            assert is_autonomous(profile, members)

    def test_split_ranking_is_not_autonomous(self):
        profile = parse_ballots("options: c1, c2, z\n1: c1>z>c2\n")
        assert not is_autonomous(profile, ["c1", "c2"])

    def test_partial_ranking_is_not_autonomous(self):
        # z unranked compares as "below" against c1 but "uncompared" against c2.
        profile = parse_ballots("options: c1, c2, z\n1: c1\n")
        assert not is_autonomous(profile, ["c1", "c2"])

    def test_contract_matches_matrix_merge(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            profile, members = planted_autonomous_profile(rng)
            M = aggregate(profile)
            merged = aggregate(contract(profile, members, "c*"))
            outside = [x for x in profile.option_set if x not in members]
            for z in outside:
                expected = {M.entry(c, z) for c in members}
                assert len(expected) == 1
                assert merged.entry("c*", z) == expected.pop()
                expected_rev = {M.entry(z, c) for c in members}
                assert merged.entry(z, "c*") == expected_rev.pop()
            for p in outside:
                for q in outside:
                    if p != q:
                        assert merged.entry(p, q) == M.entry(p, q)

    def test_contract_rejects_non_autonomous(self):
        profile = parse_ballots("options: c1, c2, z\n1: c1>z>c2\n")
        with pytest.raises(NotAutonomousError):
            contract(profile, ["c1", "c2"], "c*")

    def test_contract_rejects_bad_representatives(self):
        profile = parse_ballots("options: c1, c2, z\n1: c1>c2>z\n")
        with pytest.raises(BadRepresentativeError):
            contract(profile, ["c1", "c2"], "z")
        with pytest.raises(BadRepresentativeError):
            contract(profile, ["c1", "c2"], "c>")
        with pytest.raises(BadRepresentativeError):
            contract(profile, ["c1", "c2"], "")

    def test_contract_may_reuse_member_label(self):
        profile = parse_ballots("options: c1, c2, z\n1: c1>c2>z\n")
        merged = contract(profile, ["c1", "c2"], "c1")
        assert merged.option_set.labels == ("c1", "z")

    def test_restrict_ballots(self):
        profile = parse_ballots("options: a, b, c\n2: a>b>c\n1: c\n1: b>a\n")
        sub = restrict_ballots(profile, ["a", "b"])
        assert sub.option_set.labels == ("a", "b")
        assert sub.voters == 3
        assert sub.ballots[0] == Ballot((("a",), ("b",)), 2)

    def test_restrict_ballots_empty(self):
        profile = parse_ballots("options: a, b, c\n1: a>b\n")
        with pytest.raises(EmptyProfileError):
            restrict_ballots(profile, ["c"])


LABEL_POOL = ("a", "b", "c", "d", "x1", "long_label", "\u00e9", "\u03a9")
PADDING = ("", "", " ", "  ", "\t", "\f", "\x1c", "\u2028")
LINE_ENDS = ("\n", "\n", "\r\n", "\r")
BAD_WEIGHTS = ("0", "00", "x", "-1", "+1", "1.5", "", "1 2", "\u00b2", "\u0661", "9" * 25)
MUTATIONS = ("unknown", "reserved", "whitespace", "duplicate", "empty", "weight", "colon")


@st.composite
def ballot_documents(draw):
    """Valid ballot documents, about half with one line mutated into an error."""
    labels = draw(st.permutations(LABEL_POOL))[: draw(st.integers(1, 6))]

    def pad():
        return draw(st.sampled_from(PADDING))

    if draw(st.booleans()):
        header = "options:" + ",".join(pad() + label + pad() for label in labels)
    else:
        header = "options:" + "".join(" " + pad() + label for label in labels)
    lines = ["# preamble"] * draw(st.integers(0, 1)) + [header]
    broken = draw(st.none() | st.integers(0, 5))  # the ballot line to mutate, if any
    for k in range(draw(st.integers(1, 6))):
        chosen = draw(st.permutations(labels))[: draw(st.integers(1, len(labels)))]
        tiers = [[chosen[0]]]
        for label in chosen[1:]:
            if draw(st.integers(0, 3)) == 0:
                tiers[-1].append(label)
            else:
                tiers.append([label])
        weight = draw(st.sampled_from(("", "0", "00"))) + str(draw(st.integers(1, 5)))
        colon = ":"
        mutation = draw(st.sampled_from(MUTATIONS)) if k == broken else None
        tier = draw(st.integers(0, len(tiers) - 1))
        spot = draw(st.integers(0, len(tiers[tier]) - 1))
        if mutation == "unknown":
            tiers[tier][spot] = "zz"
        elif mutation == "reserved":
            tiers[tier][spot] += draw(st.sampled_from(":,#")) + "q"
        elif mutation == "whitespace":
            tiers[tier][spot] += " q"
        elif mutation == "duplicate":
            tiers.append([chosen[0]])
        elif mutation == "empty":
            tiers[tier][spot] = ""
        elif mutation == "weight":
            weight = draw(st.sampled_from(BAD_WEIGHTS))
        elif mutation == "colon":
            colon = ""
        ranking = (pad() + ">" + pad()).join(
            (pad() + "=" + pad()).join(labels_in_tier) for labels_in_tier in tiers
        )
        line = pad() + weight + pad() + colon + pad() + ranking + pad()
        if draw(st.booleans()):
            line += "# note" + pad() + "a > b"
        lines.append(line)
        lines += [pad(), "# comment"][: draw(st.integers(0, 2))]
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))


def _outcome(fn):
    try:
        return fn(), None
    except LlullError as exc:
        return None, exc


class TestAgainstOracles:
    """The columnar parser and kernel against the line parser and per-ballot tally."""

    @given(doc=ballot_documents())
    @settings(max_examples=300, deadline=None)
    def test_documents_match_the_line_parser(self, doc):
        expected, expected_exc = _outcome(lambda: oracle_parse_ballots(doc))
        profile, exc = _outcome(lambda: parse_ballots(doc))
        if expected_exc is not None:
            assert type(exc) is type(expected_exc)
            assert str(exc) == str(expected_exc)
            return
        assert exc is None
        option_set, ballots = expected
        assert profile.option_set.labels == option_set.labels
        assert list(profile.ballots) == [in_declaration_order(option_set, b) for b in ballots]
        assert profile.voters == sum(b.weight for b in ballots)
        for ties in TiePolicy:
            got = aggregate(profile, ties).scores
            assert got.tobytes() == oracle_aggregate(option_set, ballots, ties).tobytes()

    @pytest.mark.parametrize("chunk_units", [1, 30, 2**19])
    def test_chunk_size_does_not_change_the_count(self, monkeypatch, chunk_units):
        monkeypatch.setattr(llull.ballots, "_CHUNK_UNITS", chunk_units)
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            profile = random_profile(rng, n, n_ballots=int(rng.integers(1, 40)))
            ballots = list(profile.ballots)
            for ties in TiePolicy:
                want = oracle_aggregate(profile.option_set, ballots, ties)
                assert aggregate(profile, ties).scores.tobytes() == want.tobytes()


@st.composite
def profile_operations(draw):
    """A profile, an option subset and a representative label to contract it to."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        profile, block = planted_autonomous_profile(rng)
    else:
        n = draw(st.integers(1, 7))
        profile = random_profile(rng, n, n_ballots=draw(st.integers(1, 12)))
        block = profile.option_set.labels[: draw(st.integers(1, n))]
    labels = profile.option_set.labels
    kind = draw(st.sampled_from(("block", "random", "single", "all", "empty", "unknown")))
    if kind == "block":
        subset = list(block)
    elif kind == "random":
        subset = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=len(labels) + 2))
    elif kind == "single":
        subset = [draw(st.sampled_from(labels))]
    elif kind == "all":
        subset = list(labels)
    elif kind == "empty":
        subset = []
    else:
        subset = [draw(st.sampled_from(labels)), "zz"]
    subset = draw(st.permutations(subset))
    rep = draw(st.sampled_from(["c*", "", "c>", "a b", *subset, *labels]))
    return profile, subset, rep


def _assert_same_profile(got, want):
    assert got.option_set.labels == want.option_set.labels
    assert got.ranks.dtype == want.ranks.dtype
    assert np.array_equal(got.ranks, want.ranks)
    assert got.weights.dtype == want.weights.dtype
    assert np.array_equal(got.weights, want.weights)
    assert type(got.voters) is int and got.voters == want.voters


def _assert_same_outcome(fn, oracle, compare):
    got, exc = _outcome(fn)
    want, want_exc = _outcome(oracle)
    if want_exc is not None:
        assert type(exc) is type(want_exc)
        assert str(exc) == str(want_exc)
        return
    assert exc is None
    compare(got, want)


def _assert_equal(got, want):
    assert got == want


class TestProfileOperationsAgainstOracles:
    """Restriction, contraction and autonomy on the columns against per-Ballot walks."""

    @given(case=profile_operations())
    @settings(max_examples=400, deadline=None)
    def test_operations_match_the_ballot_walks(self, case):
        profile, subset, rep = case
        _assert_same_outcome(
            lambda: is_autonomous(profile, subset),
            lambda: oracle_is_autonomous(profile, subset),
            _assert_equal,
        )
        _assert_same_outcome(
            lambda: restrict_ballots(profile, subset),
            lambda: oracle_restrict_ballots(profile, subset),
            _assert_same_profile,
        )
        _assert_same_outcome(
            lambda: contract(profile, subset, rep),
            lambda: oracle_contract(profile, subset, rep),
            _assert_same_profile,
        )

    def test_wide_profile_narrows_its_rank_dtype(self):
        labels = tuple(f"o{i}" for i in range(300))
        rng = np.random.default_rng(8)
        ballots = []
        for _ in range(6):
            chosen = [labels[i] for i in rng.permutation(300)[: int(rng.integers(1, 300))]]
            ballots.append(Ballot(tuple((x,) for x in chosen), int(rng.integers(1, 4))))
        profile = BallotSet(OptionSet(labels), ballots)
        assert profile.ranks.dtype == np.uint16
        subset = labels[:5] + labels[-3:]
        sub = restrict_ballots(profile, subset)
        assert sub.ranks.dtype == np.uint8
        _assert_same_profile(sub, oracle_restrict_ballots(profile, subset))
        _assert_same_profile(contract(profile, labels, "all"), oracle_contract(profile, labels, "all"))

    def test_operations_build_no_ballot(self, monkeypatch):
        profile = parse_ballots("options: c1, c2, z\n2: c1 = c2 > z\n1: z > c2 > c1\n1: z\n")

        def refuse(*args):
            raise AssertionError("a Ballot was built")

        monkeypatch.setattr(llull.ballots._BallotView, "__getitem__", refuse)
        monkeypatch.setattr(Ballot, "__post_init__", refuse)
        assert is_autonomous(profile, ["c1", "c2"])
        assert not is_autonomous(profile, ["c1", "z"])
        merged = contract(profile, ["c2", "c1"], "c")
        assert merged.option_set.labels == ("c", "z")
        assert merged.ranks.tolist() == [[0, 1], [1, 0], [2, 0]]
        sub = restrict_ballots(profile, ["z", "c2"])
        assert sub.option_set.labels == ("c2", "z")
        assert sub.ranks.tolist() == [[0, 1], [1, 0], [2, 0]]
        assert sub.weights.tolist() == [2, 1, 1]
        assert (merged.voters, sub.voters) == (4, 4)
