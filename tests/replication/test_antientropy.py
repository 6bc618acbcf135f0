"""Tests for the anti-entropy service (via a small live testbed)."""

import pytest

from repro.errors import ReproError
from repro.hat.testbed import Scenario, Testbed, build_testbed
from repro.hat.transaction import Operation, Transaction
from repro.replication.antientropy import AntiEntropyConfig


@pytest.fixture
def testbed() -> Testbed:
    return build_testbed(Scenario(regions=["VA", "OR"], servers_per_cluster=2,
                                  anti_entropy=AntiEntropyConfig(interval_ms=5.0)))


class TestAntiEntropy:
    def test_writes_propagate_to_remote_cluster(self, testbed):
        local = testbed.make_client("eventual", home_cluster=testbed.config.cluster_names[0])
        remote = testbed.make_client("eventual", home_cluster=testbed.config.cluster_names[1])
        result = testbed.env.run_until_complete(
            local.execute(Transaction([Operation.write("user1", "hello")]))
        )
        assert result.committed
        testbed.run(1000.0)  # allow gossip rounds plus WAN latency
        read = testbed.env.run_until_complete(
            remote.execute(Transaction([Operation.read("user1")]))
        )
        assert read.value_read("user1") == "hello"

    def test_convergence_of_concurrent_writes(self, testbed):
        """Eventual consistency: all replicas agree on a last-writer-wins value."""
        clients = [testbed.make_client("eventual", home_cluster=name)
                   for name in testbed.config.cluster_names]
        for index, client in enumerate(clients):
            testbed.env.run_until_complete(
                client.execute(Transaction([Operation.write("user9", f"value-{index}")]))
            )
        testbed.run(1500.0)
        observed = set()
        for client in clients:
            result = testbed.env.run_until_complete(
                client.execute(Transaction([Operation.read("user9")]))
            )
            observed.add(result.value_read("user9"))
        assert len(observed) == 1  # every replica converged to one winner

    def test_stats_track_pushed_versions(self, testbed):
        client = testbed.make_client("eventual")
        testbed.env.run_until_complete(
            client.execute(Transaction([Operation.write("user2", "x")]))
        )
        testbed.run(200.0)
        pushed = sum(server.anti_entropy.stats.versions_pushed
                     for server in testbed.server_list())
        assert pushed >= 1

    def test_no_pushes_without_writes(self, testbed):
        testbed.run(200.0)
        pushed = sum(server.anti_entropy.stats.versions_pushed
                     for server in testbed.server_list())
        assert pushed == 0

    def test_partitioned_replica_catches_up_after_heal(self, testbed):
        local = testbed.make_client("eventual", home_cluster=testbed.config.cluster_names[0])
        remote = testbed.make_client("eventual", home_cluster=testbed.config.cluster_names[1])
        testbed.partition_regions([["VA"], ["OR"]])
        testbed.env.run_until_complete(
            local.execute(Transaction([Operation.write("user3", "only-va")]))
        )
        testbed.run(300.0)
        stale = testbed.env.run_until_complete(
            remote.execute(Transaction([Operation.read("user3")]))
        )
        assert stale.value_read("user3") is None  # partition blocks propagation
        testbed.heal()
        testbed.run(1500.0)
        fresh = testbed.env.run_until_complete(
            remote.execute(Transaction([Operation.read("user3")]))
        )
        assert fresh.value_read("user3") == "only-va"


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"interval_ms": 0.0},  # would reschedule the push loop forever
        {"interval_ms": -5.0},
        {"batch_size": 0},
        {"max_versions_per_round": 0},  # would push nothing, never converge
        {"max_versions_per_round": -1},
    ], ids=lambda kwargs: ",".join(f"{k}={v}" for k, v in kwargs.items()))
    def test_rejects(self, kwargs):
        with pytest.raises(ReproError):
            AntiEntropyConfig(**kwargs)

    def test_accepts_smallest_valid(self):
        config = AntiEntropyConfig(interval_ms=0.5, batch_size=1,
                                   max_versions_per_round=1)
        assert config.effective_max_per_round() == 1
        assert AntiEntropyConfig().max_versions_per_round is None
