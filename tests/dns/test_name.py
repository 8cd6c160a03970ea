"""Tests for repro.dns.name: DomainName semantics."""

import pytest
from hypothesis import example, given, strategies as st

from repro.dns.name import ROOT, DomainName, _validate_alabel
from repro.errors import InvalidDomainName


class TestParse:
    def test_basic(self):
        name = DomainName.parse("www.example.ru")
        assert name.labels == ("www", "example", "ru")

    def test_case_insensitive(self):
        assert DomainName.parse("WWW.Example.RU") == DomainName.parse("www.example.ru")

    def test_unicode_equals_alabel(self):
        assert DomainName.parse("Пример.рф") == DomainName.parse(
            "xn--e1afmkfd.xn--p1ai"
        )

    def test_trailing_dot(self):
        assert DomainName.parse("example.ru.") == DomainName.parse("example.ru")

    def test_root(self):
        assert DomainName.parse(".") is ROOT
        assert ROOT.is_root

    def test_empty_label_rejected(self):
        with pytest.raises(InvalidDomainName):
            DomainName.parse("a..ru")

    def test_hyphen_edges_rejected(self):
        with pytest.raises(InvalidDomainName):
            DomainName.parse("-bad.ru")

    def test_overlong_label_rejected(self):
        with pytest.raises(InvalidDomainName):
            DomainName.parse("a" * 64 + ".ru")

    def test_overlong_name_rejected(self):
        with pytest.raises(InvalidDomainName):
            DomainName.parse(".".join(["abcdefgh"] * 32))

    def test_illegal_character_rejected(self):
        with pytest.raises(InvalidDomainName):
            DomainName.parse("sp ace.ru")


class TestStructure:
    def test_tld(self):
        assert DomainName.parse("example.ru").tld == "ru"
        assert ROOT.tld is None

    def test_parent(self):
        assert DomainName.parse("www.example.ru").parent == DomainName.parse(
            "example.ru"
        )

    def test_root_has_no_parent(self):
        with pytest.raises(InvalidDomainName):
            _ = ROOT.parent

    def test_child(self):
        assert DomainName.parse("example.ru").child("www") == DomainName.parse(
            "www.example.ru"
        )

    def test_is_subdomain_of(self):
        name = DomainName.parse("www.example.ru")
        assert name.is_subdomain_of(DomainName.parse("example.ru"))
        assert name.is_subdomain_of(name)
        assert name.is_subdomain_of(ROOT)
        assert not DomainName.parse("example.ru").is_subdomain_of(name)
        assert not DomainName.parse("badexample.ru").is_subdomain_of(
            DomainName.parse("example.ru")
        )

    def test_relativize(self):
        name = DomainName.parse("a.b.example.ru")
        assert name.relativize(DomainName.parse("example.ru")) == ("a", "b")

    def test_relativize_rejects_unrelated(self):
        with pytest.raises(InvalidDomainName):
            DomainName.parse("a.com").relativize(DomainName.parse("example.ru"))

    def test_ancestors(self):
        name = DomainName.parse("a.b.ru")
        ancestors = list(name.ancestors())
        assert ancestors == [
            DomainName.parse("a.b.ru"),
            DomainName.parse("b.ru"),
            DomainName.parse("ru"),
            ROOT,
        ]

    def test_to_unicode(self):
        assert DomainName.parse("xn--e1afmkfd.xn--p1ai").to_unicode() == "пример.рф"

    def test_str_root(self):
        assert str(ROOT) == "."

    def test_canonical_ordering(self):
        names = sorted(
            [
                DomainName.parse("b.ru"),
                DomainName.parse("a.com"),
                DomainName.parse("a.ru"),
            ]
        )
        assert [str(n) for n in names] == ["a.com", "a.ru", "b.ru"]

    def test_immutable(self):
        name = DomainName.parse("example.ru")
        with pytest.raises(AttributeError):
            name._labels = ()

    def test_hashable(self):
        assert len({DomainName.parse("a.ru"), DomainName.parse("A.RU")}) == 1


_LABEL = st.from_regex(r"[a-z0-9]([a-z0-9-]{0,10}[a-z0-9])?", fullmatch=True)


@given(st.lists(_LABEL, min_size=1, max_size=5))
def test_parse_str_roundtrip(labels):
    """Property: str() and parse() are inverses."""
    name = DomainName(labels)
    assert DomainName.parse(str(name)) == name


def reference_alabel_errors(label):
    """The A-label rules one by one: the message refused with, or None."""
    if not label:
        return "empty label"
    if len(label) > 63:
        return f"label longer than 63 octets: {label!r}"
    if not set(label) <= set("abcdefghijklmnopqrstuvwxyz0123456789-_"):
        return f"illegal character in label: {label!r}"
    if label.startswith("-") or label.endswith("-"):
        return f"label may not start or end with '-': {label!r}"
    return None


@given(
    st.text(alphabet="az09_-.A я", max_size=66)
    | st.from_regex(r"[a-z0-9_][a-z0-9_-]{58,64}[a-z0-9_]", fullmatch=True)
)
@example("a" * 63)
@example("a" * 64)
@example("_")
@example("-")
@example("a-")
@example("-a")
@example("")
def test_alabel_fast_path_accepts_only_valid_labels(label):
    """Property: the pattern fast path refuses exactly what the rules refuse."""
    expected = reference_alabel_errors(label)
    if expected is None:
        assert _validate_alabel(label) == label
    else:
        with pytest.raises(InvalidDomainName) as refused:
            _validate_alabel(label)
        assert str(refused.value) == expected
