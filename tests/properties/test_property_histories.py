"""Property-based tests for histories and phenomenon detectors.

The key invariants: serial histories (each transaction reads only from the
most recently committed writer, in commit order) never exhibit any anomaly;
detectors never crash on arbitrary well-formed histories; and the cycle
detectors agree with brute-force simple-cycle enumeration over a DSG built
here straight from the definitions.
"""

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.adya.graphs import EDGE_TYPES, RW, SESSION, WR, WW, _EdgeIndex, build_dsg, cycles_with
from repro.adya.history import HistoryBuilder, HistoryTransaction, ReadEvent, WriteEvent
from repro.adya.levels import ISOLATION_LEVELS, check_history
from repro.adya.phenomena import G0, G1C, LOST_UPDATE, PHENOMENA, WRITE_SKEW, detect

KEYS = ["x", "y", "z"]


@st.composite
def serial_histories(draw):
    """Generate a serial, single-copy history: transactions run one at a
    time; reads observe the latest committed writer of the key."""
    builder = HistoryBuilder()
    latest_writer = {}
    transaction_count = draw(st.integers(min_value=1, max_value=8))
    for _ in range(transaction_count):
        session = draw(st.integers(min_value=1, max_value=3))
        txn = builder.transaction(session=session)
        op_count = draw(st.integers(min_value=1, max_value=4))
        writes = {}
        for _ in range(op_count):
            key = draw(st.sampled_from(KEYS))
            if draw(st.booleans()):
                value = draw(st.integers(min_value=0, max_value=100))
                txn.write(key, value)
                writes[key] = value
            else:
                if key in writes:
                    txn.read(key, from_txn=txn.txn_id, value=writes[key])
                else:
                    writer, value = latest_writer.get(key, (None, None))
                    txn.read(key, from_txn=writer, value=value)
        for key, value in writes.items():
            latest_writer[key] = (txn.txn_id, value)
    return builder.build()


@st.composite
def arbitrary_histories(draw):
    """Generate arbitrary (possibly anomalous) well-formed histories."""
    builder = HistoryBuilder()
    transaction_count = draw(st.integers(min_value=1, max_value=6))
    handles = []
    for _ in range(transaction_count):
        session = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=2)))
        txn = builder.transaction(session=session)
        handles.append(txn)
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            key = draw(st.sampled_from(KEYS))
            if draw(st.booleans()):
                txn.write(key, draw(st.integers(min_value=0, max_value=9)))
            else:
                source = draw(st.one_of(
                    st.none(), st.sampled_from([h.txn_id for h in handles])))
                txn.read(key, from_txn=source, value=None)
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            txn.abort()
    return builder.build()


@st.composite
def reordered_histories(draw):
    """Arbitrary histories with each item's version order permuted, so
    write-dependency (G0) cycles occur as well."""
    history = draw(arbitrary_histories())
    for key, order in list(history.version_order.items()):
        history.set_version_order(key, draw(st.permutations(order)))
    return history


class TestSerialHistoriesAreClean:
    @given(serial_histories())
    @settings(max_examples=50, deadline=None)
    def test_serial_histories_satisfy_every_level(self, history):
        for name in ISOLATION_LEVELS:
            report = check_history(history, name)
            assert report.satisfied, f"{name} violated in a serial history:\n{report}"


class TestDetectorRobustness:
    @given(arbitrary_histories())
    @settings(max_examples=50, deadline=None)
    def test_detectors_never_crash(self, history):
        for name, phenomenon in PHENOMENA.items():
            witnesses = phenomenon.detect(history)
            for witness in witnesses:
                assert witness.phenomenon == name
                assert witness.transactions

    @given(arbitrary_histories())
    @settings(max_examples=50, deadline=None)
    def test_stronger_levels_flag_supersets_of_weaker_levels(self, history):
        """If a weaker level is violated, every stronger level (by prohibited-
        phenomena inclusion) is violated too."""
        reports = {name: check_history(history, name) for name in ISOLATION_LEVELS}
        for weak_name, weak in ISOLATION_LEVELS.items():
            for strong_name, strong in ISOLATION_LEVELS.items():
                if weak.prohibits <= strong.prohibits and not reports[weak_name].satisfied:
                    assert not reports[strong_name].satisfied


def reference_edges(history):
    """The DSG's (src, dst, kind, item) edges, straight from Adya's definitions."""
    edges = set()
    for key, order in history.version_order.items():
        for earlier, later in zip(order, order[1:]):
            edges.add((earlier, later, WW, key))
    for reader in history.committed():
        for read in reader.reads:
            writer = read.writer_txn
            if (writer in history.transactions and writer != reader.txn_id
                    and history.transactions[writer].committed):
                edges.add((writer, reader.txn_id, WR, read.key))
            order = history.version_order.get(read.key, [])
            position = order.index(writer) if writer in order else -1
            if position + 1 < len(order) and order[position + 1] != reader.txn_id:
                edges.add((reader.txn_id, order[position + 1], RW, read.key))
    return edges


def has_qualifying_cycle(edges, allowed, required=None):
    """Brute force: does some simple cycle over ``allowed`` edges use a
    ``required`` edge (any edge when ``required`` is None)?"""
    kinds = {}
    for src, dst, kind, _item in edges:
        if kind in allowed:
            kinds.setdefault((src, dst), set()).add(kind)
    graph = nx.DiGraph(list(kinds))
    for cycle in nx.simple_cycles(graph):
        hops = zip(cycle, cycle[1:] + cycle[:1])
        if required is None or any(kinds[hop] & required for hop in hops):
            return True
    return False


#: Detector -> (allowed kinds, required kinds, single item?).
CYCLE_DETECTORS = {
    G0: ({WW}, None, False),
    G1C: ({WW, WR}, None, False),
    LOST_UPDATE: ({WW, WR, RW}, {RW}, True),
    WRITE_SKEW: ({WW, WR, RW}, {RW}, False),
}


class TestCycleDetectorOracle:
    @given(reordered_histories())
    @settings(max_examples=200, deadline=None)
    def test_cycle_detectors_match_brute_force(self, history):
        edges = reference_edges(history)
        for name, (allowed, required, single_item) in CYCLE_DETECTORS.items():
            if single_item:
                expected = any(
                    has_qualifying_cycle({e for e in edges if e[3] == key},
                                         allowed, required)
                    for key in history.keys())
            else:
                expected = has_qualifying_cycle(edges, allowed, required)
            assert bool(detect(history, name)) == expected, name

    @given(reordered_histories())
    @settings(max_examples=200, deadline=None)
    def test_witnesses_are_closed_walks_over_allowed_edges(self, history):
        edges = reference_edges(history)
        graph = build_dsg(history, include_sessions=False)
        for allowed, required, single_item in CYCLE_DETECTORS.values():
            items = history.keys() if single_item else [None]
            for item in items:
                for cycle in cycles_with(graph, allowed_kinds=allowed,
                                         required_kinds=required, item=item):
                    for edge, following in zip(cycle, cycle[1:] + cycle[:1]):
                        assert edge.dst == following.src
                        assert edge.kind in allowed
                        assert (edge.src, edge.dst, edge.kind, edge.item) in edges
                        assert item is None or edge.item == item
                    if required:
                        assert any(edge.kind in required for edge in cycle)


class TestEdgeIndex:
    @given(arbitrary_histories(), st.sets(st.sampled_from(EDGE_TYPES), min_size=1),
           st.sampled_from([None] + KEYS))
    @settings(max_examples=200, deadline=None)
    def test_selection_is_the_filtered_edge_sequence(self, history, kinds, item):
        """Witness order depends on edge order, so a selection must equal
        scanning every edge of the graph in order."""
        graph = build_dsg(history)
        expected = [
            (src, dst, data["kind"], data["item"])
            for src, dst, data in graph.edges(data=True)
            if data["kind"] in kinds
            and (item is None or data["kind"] == SESSION or data["item"] == item)
        ]
        assert _EdgeIndex(graph).select(kinds, item) == expected


class TestCheckerSeesMutations:
    """The DSG and position indexes are cached per history; mutators drop them."""

    def test_set_version_order_invalidates(self):
        builder = HistoryBuilder()
        builder.transaction().write("x", 1).write("y", 1)
        builder.transaction().write("x", 2).write("y", 2)
        history = builder.build()
        assert check_history(history, "RC").satisfied
        history.set_version_order("y", [2, 1])
        report = check_history(history, "RC")
        assert not report.satisfied and G0 in report.violations

    def test_add_transaction_invalidates(self):
        builder = HistoryBuilder()
        builder.transaction(txn_id=1).write("x", 1).read("y", from_txn=2, value=2)
        history = builder.build()
        assert check_history(history, "RC").satisfied
        history.add_transaction(HistoryTransaction(
            txn_id=2, reads=[ReadEvent("x", writer_txn=1, value=1)],
            writes=[WriteEvent("y", 2, index=1)]))
        report = check_history(history, "RC")
        assert not report.satisfied and G1C in report.violations
