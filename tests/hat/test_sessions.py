"""Tests for session guarantees (Section 5.1.3).

Session guarantees are the registry's session layers, stacked by spec
(``"read-committed+ryw"``, ``"eventual+mr"``); ``sticky=False`` builds the
same stack in the paper's non-sticky demonstration mode.
"""

import pytest

from repro.hat.testbed import Scenario, build_testbed
from repro.hat.transaction import Operation, Transaction


@pytest.fixture
def testbed():
    return build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=2))


def run(testbed, client, operations):
    return testbed.env.run_until_complete(
        client.execute(Transaction(list(operations)))
    )


def partition_away_home(testbed):
    """Make the first cluster's servers unreachable from everyone else."""
    home_servers = testbed.config.cluster(testbed.config.cluster_names[0]).servers
    testbed.network.partitions.partition_by(
        lambda site: None if site in home_servers else "rest"
    )


class TestStickySessionGuarantees:
    def test_read_your_writes_across_transactions(self, testbed):
        session = testbed.make_client("read-committed+ryw", sticky=True)
        run(testbed, session, [Operation.write("profile", "v1")])
        result = run(testbed, session, [Operation.read("profile")])
        assert result.value_read("profile") == "v1"
        assert session.violations() == 0

    def test_monotonic_reads_never_go_backwards(self, testbed):
        """Even if a later read hits a stale replica, the session never
        observes an older version than it has already seen."""
        session = testbed.make_client("eventual+mr", sticky=True)
        writer = testbed.make_client("eventual",
                                     home_cluster=testbed.config.cluster_names[1])
        run(testbed, writer, [Operation.write("feed", "old")])
        testbed.run(1500.0)
        first = run(testbed, session, [Operation.read("feed")])
        assert first.value_read("feed") == "old"
        run(testbed, writer, [Operation.write("feed", "new")])
        testbed.run(1500.0)
        second = run(testbed, session, [Operation.read("feed")])
        assert second.value_read("feed") == "new"
        third = run(testbed, session, [Operation.read("feed")])
        assert third.value_read("feed") == "new"
        assert session.violations() == 0

    def test_session_cache_repairs_stale_replica_read(self, testbed):
        """If the contacted replica lags behind the session's own write, the
        sticky session serves the cached write (client-side caching)."""
        session = testbed.make_client("read-committed+ryw",
                                      home_cluster=testbed.config.cluster_names[0])
        run(testbed, session, [Operation.write("inbox", "mine")])
        # Force the next read to another cluster that has not converged yet by
        # partitioning away the home cluster's servers.
        partition_away_home(testbed)
        result = run(testbed, session, [Operation.read("inbox")])
        assert result.value_read("inbox") == "mine"
        assert session.session.cache_hits >= 1
        assert session.violations() == 0


class TestNonStickySessions:
    def test_ryw_violation_possible_without_stickiness(self, testbed):
        """The paper's impossibility argument: without stickiness, a client
        forced onto a different replica can miss its own writes."""
        session = testbed.make_client("read-committed+ryw",
                                      home_cluster=testbed.config.cluster_names[0],
                                      sticky=False)
        run(testbed, session, [Operation.write("cart", "item-1")])
        partition_away_home(testbed)
        result = run(testbed, session, [Operation.read("cart")])
        # The stale read is observed (not repaired) and counted as a violation.
        assert result.value_read("cart") is None
        assert session.session.cache_hits == 0
        assert session.violations() >= 1

    def test_sticky_flag_controls_repair(self, testbed):
        sticky = testbed.make_client("read-committed+ryw", sticky=True)
        loose = testbed.make_client("read-committed+ryw", sticky=False)
        assert sticky.sticky and not loose.sticky


class TestSessionBookkeeping:
    def test_high_water_mark_advances(self, testbed):
        session = testbed.make_client("read-committed+ryw")
        run(testbed, session, [Operation.write("a", 1)])
        first = session.session.high_water
        assert first is not None
        run(testbed, session, [Operation.write("b", 2)])
        assert session.session.high_water > first

    def test_aborted_transactions_do_not_update_state(self, testbed):
        session = testbed.make_client("read-committed+ryw")
        # Cut the client off from every replica: the commit cannot land.
        testbed.network.partitions.partition_by(
            lambda site: None if site == session.node.name else "servers"
        )
        result = run(testbed, session, [Operation.write("x", 1)])
        assert not result.committed
        assert session.session.own_writes == {}

    def test_protocol_name_suffix(self, testbed):
        assert testbed.make_client("mav+ryw").protocol_name == "mav+ryw"
        assert testbed.make_client("mav+mr+mw+wfr+ryw").protocol_name \
            == "mav+causal"
