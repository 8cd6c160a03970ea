"""Reachability gate: every definition in ``src/`` is used by the program.

A uniquely named function, method or class that nothing in ``src/``,
``scripts/``, ``examples/``, ``benchmarks/`` or ``perfbench/`` refers
to is reached only by its own unit tests: code the tests keep green but
no caller needs.  A new one fails this test.  The ones kept on purpose
are listed in :data:`KEEPERS`, each with its reason.

A reference is a name, an attribute, or a string constant spelling the
whole identifier (``getattr`` and patch-by-name).  Three things do not
count: a mention inside the definition's own body, an import alias and
an ``__all__`` entry, since a re-export alone is not a use.  Names
defined more than once in ``src/`` (``run``, ``render``...) are skipped,
since a reference cannot be attributed to one of them.
"""

import ast
import collections
import gc
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Trees whose code counts as a caller.
CALLER_TREES = ("src", "scripts", "examples", "benchmarks", "perfbench")

_DNS = "repro.dns object model, kept whole as the resolving path's substrate (DESIGN §2)"

#: Definitions no caller tree reaches, kept on purpose -> the reason.
KEEPERS = {
    # The repro.dns accessors.
    "Message.is_nodata": _DNS,
    "Message.answer_rrset": _DNS,
    "DomainName.is_root": _DNS,
    "DomainName.relativize": _DNS,
    "SimulatedNetwork.detach": _DNS,
    "AuthoritativeServer.zones": _DNS,
    "AuthoritativeServer.detach_zone": _DNS,
    "AuthoritativeServer.validate": _DNS,
    "Zone.remove": _DNS,
    "Zone.from_text": _DNS,
    "Zone.bump_serial": _DNS,
    "Zone.names_delegated": _DNS,
    "SimulatedNetwork.set_down": "the outage hook of the resolver failure tests",
    "SimulatedNetwork.is_down": "the outage hook of the resolver failure tests",
    # Test oracles and helpers: tests read other behaviour through them.
    "current_deadline": "the read side the deadline-scoping test checks",
    "write_int32_array": "encodes the int32 columns the codec round-trip tests decode",
    "read_int32_array": "decoder oracle for the written int32 columns",
    "classify_ns_geo": "scalar oracle of test_summary_reference.py",
    "classify_hosting_geo": "scalar oracle of test_summary_reference.py",
    "classify_ns_tld": "scalar oracle of test_summary_reference.py",
    "MerkleTree.consistency_proof": "RFC 6962 oracle proving the CT log the issuance analysis reads",
    "MerkleTree.verify_consistency": "RFC 6962 oracle proving the CT log the issuance analysis reads",
    "GeoDatabaseBuilder.add_range": "how the geo test modules build their fixtures",
    "GeoDatabase.lookup_array": "checked against the scalar lookup the program uses",
    "SweepMetrics.counter": "how the service and live tests read a recorded counter",
    "SweepMetrics.recovery_count": "what the self-heal fault tests assert",
    "Prefix.contains_prefix": "oracle for the allocator's in-parent blocks",
    "Prefix.overlaps": "oracle for the allocator's disjoint blocks",
    "RoutingTable.withdraw": "the property tests' reference for longest-prefix match",
    "CertificateAuthority.issued_count": "PKI oracle in test_certsim.py",
    "CertificateAuthority.issued_certificates": "PKI oracle in test_certsim.py",
    "CertificateStore.by_fingerprint": "PKI oracle in test_certsim.py",
    "world_digest": "the scenario byte-identity oracle (tests/scenario/test_identity.py)",
    "World.ns_hostnames_for": "oracle for the fast collector's and the DNS build's NS names",
    "ScenarioManifest.between": "how tests and docs read a scenario's events by date",
    "DayClock.tick": "advances the clock in the DNS cache tests",
    "QueryClient.follow_events": "the client's SSE reader, documented in docs/live.md",
    "NameFactory.next_ascii": "one label of NameFactory.labels; test_names.py checks it against per-call numpy draws",
    "NameFactory.next_cyrillic": "one label of NameFactory.labels; test_names.py checks it against per-call numpy draws",
}


def _definitions(body, path, prefix=""):
    """``(name, qualname, path, first_line, last_line)`` of module and class members."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = prefix + node.name
            yield node.name, qualname, path, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, path, qualname + ".")


def _references(tree, path, references):
    """Record every name, attribute and identifier string in ``tree``."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            exported.update(map(id, ast.walk(node.value)))
    for node in ast.walk(tree):
        kind = type(node)
        if kind is ast.Name:
            references[node.id].append((path, node.lineno))
        elif kind is ast.Attribute:
            references[node.attr].append((path, node.lineno))
        elif (
            kind is ast.Constant
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in exported
        ):
            references[node.value].append((path, node.lineno))


def unreached():
    """Qualnames of uniquely named ``src/`` definitions no caller reaches."""
    definitions = []
    references = collections.defaultdict(list)
    gc.disable()  # ast.parse allocates many small objects; GC passes only cost
    try:
        for tree_name in CALLER_TREES:
            for path in sorted((ROOT / tree_name).rglob("*.py")):
                tree = ast.parse(path.read_text(encoding="utf-8"))
                if tree_name == "src":
                    definitions.extend(_definitions(tree.body, path))
                _references(tree, path, references)
    finally:
        gc.enable()
    defined = collections.Counter(name for name, *_ in definitions)
    found = {}
    for name, qualname, path, first, last in definitions:
        if defined[name] > 1 or (name.startswith("__") and name.endswith("__")):
            continue
        if not any(
            where != path or not first <= line <= last
            for where, line in references.get(name, ())
        ):
            found[qualname] = f"{path.relative_to(ROOT)}:{first}"
    return found


def test_every_definition_is_reached():
    found = unreached()
    new = {qualname: where for qualname, where in found.items() if qualname not in KEEPERS}
    assert not new, (
        "definitions nothing outside tests/ reaches (delete them with the "
        f"tests that exercise only them, or add them to KEEPERS): {new}"
    )
    stale = sorted(set(KEEPERS) - set(found))
    assert not stale, f"KEEPERS entries now reached or gone: {stale}"
