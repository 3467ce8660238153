"""Runtime bookkeeping, RDF retraction, and protective behaviour."""

import pytest

from repro.actions import ActionError, ActionRuntime, RetractTriple
from repro.bindings import Binding
from repro.rdf import Graph, Literal, URIRef
from repro.xmlmodel import E, parse, serialize


class TestRuntimeBookkeeping:
    def test_trace_records_operations(self):
        runtime = ActionRuntime()
        runtime.register_document("d", parse("<root><x/></root>"))
        graph = Graph()
        runtime.register_graph("g", graph)
        triple = (URIRef("urn:s"), URIRef("urn:p"), Literal("o"))
        message = runtime.send("box", E("m"))
        assert runtime.messages("box") == [message]
        runtime.insert("d", "/root", E("y"))
        assert serialize(runtime.documents["d"]) == "<root><x/><y/></root>"
        assert runtime.delete("d", "/root/x") == 1
        assert serialize(runtime.documents["d"]) == "<root><y/></root>"
        runtime.assert_triple("g", *triple)
        assert triple in graph
        assert runtime.retract_triple("g", *triple)
        assert len(graph) == 0

    def test_delete_returns_count(self):
        runtime = ActionRuntime()
        runtime.register_document("d", parse("<r><x/><x/><y/></r>"))
        assert runtime.delete("d", "/r/x") == 2
        assert runtime.delete("d", "/r/x") == 0

    def test_cannot_delete_document_root(self):
        runtime = ActionRuntime()
        root = parse("<r/>")
        runtime.register_document("d", root)
        # the root has a synthetic Document parent; deleting it would
        # orphan the store — the runtime detaches it instead of failing,
        # so assert the store still resolves
        runtime.delete("d", "/r")
        assert runtime.documents["d"] is root

    def test_insert_into_multiple_targets_copies(self):
        runtime = ActionRuntime()
        runtime.register_document("d", parse("<r><s/><s/></r>"))
        runtime.insert("d", "/r/s", E("leaf"))
        sections = runtime.documents["d"].findall("s")
        assert all(section.find("leaf") is not None for section in sections)
        # the two inserted leaves are distinct nodes
        first, second = (section.find("leaf") for section in sections)
        assert first is not second

    def test_retract_returns_presence(self):
        runtime = ActionRuntime()
        graph = Graph([(URIRef("urn:s"), URIRef("urn:p"), Literal("o"))])
        runtime.register_graph("g", graph)
        assert runtime.retract_triple("g", URIRef("urn:s"), URIRef("urn:p"),
                                      Literal("o")) is True
        assert runtime.retract_triple("g", URIRef("urn:s"), URIRef("urn:p"),
                                      Literal("o")) is False

    def test_unknown_graph_raises(self):
        with pytest.raises(ActionError, match="unknown graph"):
            ActionRuntime().assert_triple("ghost", URIRef("urn:s"),
                                          URIRef("urn:p"), Literal("o"))


class TestRetractAction:
    def test_retract_with_literal_object(self):
        runtime = ActionRuntime()
        graph = Graph([(URIRef("urn:fleet#polo"),
                        URIRef("urn:fleet#reservedFor"),
                        Literal("John Doe"))])
        runtime.register_graph("fleet", graph)
        action = RetractTriple("fleet", "urn:fleet#{Car}",
                               "urn:fleet#reservedFor", "{Person}")
        action.perform(runtime, Binding({"Car": "polo",
                                         "Person": "John Doe"}))
        assert len(graph) == 0

    def test_retract_requires_uri_subject(self):
        runtime = ActionRuntime()
        runtime.register_graph("g", Graph())
        action = RetractTriple("g", "{S}", "urn:p", "o")
        with pytest.raises(ActionError, match="URI"):
            action.perform(runtime, Binding({"S": "not a uri"}))
