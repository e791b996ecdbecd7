"""Tests for graph assembly and session execution (§4.1, §5.2)."""

import time

import pytest

from repro.dataflow.errors import PipelineError
from repro.dataflow.graph import Graph, GraphError
from repro.dataflow.node import CollectSink, IterableSource, LambdaNode, Node
from repro.dataflow.session import Session


def linear_graph(items, fn, parallelism=1):
    g = Graph("t")
    q1 = g.queue("a", 4)
    q2 = g.queue("b", 4)
    g.add(IterableSource("src", items), output=q1)
    g.add(LambdaNode("fn", fn, parallelism=parallelism), input=q1, output=q2)
    sink = CollectSink()
    g.add(sink, input=q2)
    return g, sink


class TestGraphWiring:
    def test_duplicate_node_name(self):
        g = Graph("t")
        q = g.queue("q", 1)
        g.add(IterableSource("x", []), output=q)
        with pytest.raises(GraphError):
            g.add(IterableSource("x", []), output=q)

    def test_duplicate_queue_name(self):
        g = Graph("t")
        g.queue("q", 1)
        with pytest.raises(GraphError):
            g.queue("q", 1)

    def test_foreign_queue_rejected(self):
        g1, g2 = Graph("a"), Graph("b")
        q = g1.queue("q", 1)
        with pytest.raises(GraphError):
            g2.add(IterableSource("s", []), output=q)

    def test_unconsumed_queue_rejected(self):
        g = Graph("t")
        q = g.queue("q", 1)
        g.add(IterableSource("s", [1]), output=q)
        with pytest.raises(GraphError):
            g.validate()

    def test_unproduced_queue_rejected(self):
        g = Graph("t")
        q = g.queue("q", 1)
        g.add(CollectSink("sink"), input=q)
        with pytest.raises(GraphError):
            g.validate()

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            Graph("t").validate()

    def test_no_source_rejected(self):
        g = Graph("t")
        q = g.queue("q", 1)
        node = LambdaNode("loop", lambda x: x)
        g.add(node, input=q, output=q)
        with pytest.raises(GraphError):
            g.validate()


class TestSessionExecution:
    def test_linear_pipeline(self):
        g, sink = linear_graph(range(50), lambda x: x + 1)
        result = Session(g).run(timeout=10)
        assert sorted(sink.collected) == list(range(1, 51))
        assert result.wall_seconds >= 0

    def test_parallel_transform(self):
        g, sink = linear_graph(range(100), lambda x: x * 2, parallelism=4)
        Session(g).run(timeout=10)
        assert sorted(sink.collected) == [x * 2 for x in range(100)]

    def test_filtering_node(self):
        g, sink = linear_graph(range(20), lambda x: x if x % 2 == 0 else None)
        Session(g).run(timeout=10)
        assert sorted(sink.collected) == list(range(0, 20, 2))

    def test_stats_report(self):
        g, sink = linear_graph(range(10), lambda x: x)
        result = Session(g).run(timeout=10)
        assert result.report["nodes"]["fn"]["items_in"] == 10
        assert result.report["nodes"]["fn"]["items_out"] == 10
        assert result.report["queues"]["a"]["total_enqueued"] == 10

    def test_error_aborts_pipeline(self):
        def explode(x):
            if x == 5:
                raise ValueError("item 5 is cursed")
            return x

        g, sink = linear_graph(range(100), explode)
        with pytest.raises(PipelineError) as excinfo:
            Session(g).run(timeout=10)
        assert excinfo.value.node_name == "fn"
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_error_in_source(self):
        class BadSource(Node):
            def generate(self, ctx):
                yield 1
                raise RuntimeError("source died")

        g = Graph("t")
        q = g.queue("q", 2)
        g.add(BadSource("bad"), output=q)
        sink = CollectSink()
        g.add(sink, input=q)
        with pytest.raises(PipelineError):
            Session(g).run(timeout=10)

    def test_timeout(self):
        # Stuck well past the 0.2 s timeout, but back within the run's
        # join grace, so the test does not wait out the grace.
        class Stuck(Node):
            def generate(self, ctx):
                time.sleep(1.0)
                yield 1

        g = Graph("t")
        q = g.queue("q", 1)
        g.add(Stuck("stuck"), output=q)
        g.add(CollectSink(), input=q)
        with pytest.raises(TimeoutError):
            Session(g).run(timeout=0.2)

    def test_finalize_flush(self):
        class Batcher(Node):
            def __init__(self):
                super().__init__("batcher")
                self._batch = []

            def process(self, item, ctx):
                self._batch.append(item)
                if len(self._batch) == 3:
                    out = [tuple(self._batch)]
                    self._batch = []
                    return out
                return None

            def finalize(self, ctx):
                if self._batch:
                    return [tuple(self._batch)]
                return None

        g = Graph("t")
        q1 = g.queue("a", 4)
        q2 = g.queue("b", 4)
        g.add(IterableSource("src", range(7)), output=q1)
        g.add(Batcher(), input=q1, output=q2)
        sink = CollectSink()
        g.add(sink, input=q2)
        Session(g).run(timeout=10)
        assert sink.collected == [(0, 1, 2), (3, 4, 5), (6,)]

    def test_queue_depth_bounded_during_run(self):
        g, sink = linear_graph(range(200), lambda x: x)
        Session(g).run(timeout=10)
        assert g.queues[0].max_depth <= g.queues[0].capacity

    def test_resources_shared_across_replicas(self):
        g = Graph("t")
        handle = g.register_resource("shared_list", [])

        class Appender(Node):
            def process(self, item, ctx):
                ctx.resources.get(handle).append(item)
                return None

        q = g.queue("q", 4)
        g.add(IterableSource("src", range(20)), output=q)
        g.add(Appender("app", parallelism=3), input=q)
        Session(g).run(timeout=10)
        assert sorted(g.resources.get(handle)) == list(range(20))
